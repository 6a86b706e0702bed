"""Nestable tracing spans that survive process boundaries.

The tracer is the one timing ledger of the observability layer: every
instrumented region (``with trace("classify.invalid[full]", rows=n):``)
produces one :class:`SpanRecord` — a small, picklable dataclass — in
the ambient :class:`Tracer`. Records, not live objects, are the unit
of exchange: a fork/spawn pool worker accumulates the records of its
chunk, ships them back inside the chunk summary, and the supervisor
merges them, so a streamed parallel run yields the same span ledger a
single-shot run would.

Tracing is **disabled by default** and the disabled path is a single
attribute check — cheap enough to leave the instrumentation compiled
into every hot loop (the ``perf_trace_overhead`` benchmark holds it
under 2% on a 4M-row classification). A stage table is
:func:`span_totals` over a run's records; :func:`render_spans` prints
it (the CLI's ``--stats`` and ``repro trace show``).
"""

from __future__ import annotations

import time
from contextlib import AbstractContextManager, contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator


@dataclass(slots=True)
class SpanRecord:
    """One completed span: a named, timed region of the pipeline.

    ``start`` is wall-clock epoch seconds (comparable across worker
    processes); ``seconds`` is the monotonic-clock duration. ``rows``
    is the row count the region processed (0 when not applicable),
    ``parent`` the name of the enclosing span at completion time, and
    ``attrs`` any extra key/value context. Records are picklable and
    JSON-friendly via :meth:`to_dict`.
    """

    name: str
    seconds: float
    rows: int = 0
    start: float = 0.0
    parent: str | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready mapping (the manifest's ``spans`` entries)."""
        out: dict[str, Any] = {
            "name": self.name,
            "seconds": self.seconds,
            "rows": self.rows,
            "start": self.start,
            "parent": self.parent,
        }
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "SpanRecord":
        """Rebuild a record parsed back from a manifest."""
        return cls(
            name=data["name"],
            seconds=float(data["seconds"]),
            rows=int(data.get("rows", 0)),
            start=float(data.get("start", 0.0)),
            parent=data.get("parent"),
            attrs=dict(data.get("attrs", {})),
        )


@dataclass(slots=True)
class SpanTotal:
    """Aggregate of every span sharing one name (see :func:`span_totals`)."""

    name: str
    calls: int = 0
    seconds: float = 0.0
    rows: int = 0

    @property
    def rows_per_sec(self) -> float:
        """Throughput over the accumulated time (inf for 0-second spans)."""
        if self.seconds <= 0.0:
            return float("inf") if self.rows else 0.0
        return self.rows / self.seconds


class Tracer:
    """Collects :class:`SpanRecord` s with explicit nesting.

    A tracer is either enabled (spans are recorded) or disabled (every
    entry point is a no-op behind one attribute check). The module
    keeps one ambient tracer (:func:`current_tracer`) that all library
    instrumentation uses; worker processes inherit its enabled flag by
    fork or are told it through the pool initializer.
    """

    __slots__ = ("enabled", "records", "_stack")

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.records: list[SpanRecord] = []
        self._stack: list[str] = []

    @contextmanager
    def span(
        self, name: str, *, rows: int = 0, **attrs: object
    ) -> Iterator[None]:
        """Open a nested span; the record is appended on exit."""
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        self._stack.append(name)
        start_wall = time.time()
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            self.records.append(
                SpanRecord(
                    name=name,
                    seconds=elapsed,
                    rows=rows,
                    start=start_wall,
                    parent=parent,
                    attrs=attrs,
                )
            )

    def record(
        self, name: str, seconds: float, *, rows: int = 0, **attrs: object
    ) -> None:
        """Append an already-measured span (no nesting side effects).

        For regions that do not fit one ``with`` block: a generator's
        lifetime, a streamed run, a watch window.
        """
        if not self.enabled:
            return
        parent = self._stack[-1] if self._stack else None
        self.records.append(
            SpanRecord(
                name=name,
                seconds=seconds,
                rows=rows,
                start=time.time() - seconds,
                parent=parent,
                attrs=attrs,
            )
        )

    def drain(self) -> list[SpanRecord]:
        """Return and clear every completed record."""
        records, self.records = self.records, []
        return records

    @contextmanager
    def capture(self) -> Iterator[list[SpanRecord]]:
        """Collect the records completed inside the block.

        Yields a list that is populated (and the records removed from
        the tracer) when the block exits — the supervisor uses this to
        attach the spans of an in-process chunk to that chunk's
        summary without disturbing its own open spans.
        """
        mark = len(self.records)
        captured: list[SpanRecord] = []
        try:
            yield captured
        finally:
            captured.extend(self.records[mark:])
            del self.records[mark:]


#: The process-wide ambient tracer. Fork workers inherit it (and its
#: enabled flag) copy-on-write; spawn workers are configured through
#: the pool initializer (see ``repro.core.classifier._stream_init``).
_TRACER = Tracer(enabled=False)

#: Worker-read mutable globals of this module (reprolint RL203): pool
#: workers read ``_TRACER``, and the classifier's pool initializer
#: re-arms it through :func:`enable_tracing` (reprolint RL003).
_STREAM_GLOBALS = ("_TRACER",)


def current_tracer() -> Tracer:
    """The ambient tracer instrumentation records into."""
    return _TRACER


def set_tracer(tracer: Tracer) -> Tracer:
    """Replace the ambient tracer; returns the previous one (tests)."""
    global _TRACER
    previous, _TRACER = _TRACER, tracer
    return previous


def enable_tracing(enabled: bool = True) -> None:
    """Turn the ambient tracer on (or off with ``enabled=False``)."""
    _TRACER.enabled = enabled


def tracing_enabled() -> bool:
    """Whether the ambient tracer is currently recording."""
    return _TRACER.enabled


def trace(
    name: str, *, rows: int = 0, **attrs: object
) -> AbstractContextManager[None]:
    """``with trace("classify.invalid", rows=n):`` on the ambient tracer."""
    return _TRACER.span(name, rows=rows, **attrs)


def span_totals(
    records: Iterable[SpanRecord | dict],
) -> dict[str, SpanTotal]:
    """Aggregate records by name into calls/seconds/rows totals.

    Accepts live :class:`SpanRecord` s or their ``to_dict`` mappings
    (as read back from a manifest), preserving first-seen order.
    """
    totals: dict[str, SpanTotal] = {}
    for record in records:
        if isinstance(record, dict):
            record = SpanRecord.from_dict(record)
        total = totals.get(record.name)
        if total is None:
            total = totals[record.name] = SpanTotal(record.name)
        total.calls += 1
        total.seconds += record.seconds
        total.rows += record.rows
    return totals


def render_spans(records: Iterable[SpanRecord | dict]) -> str:
    """Plain-text span-total table (``repro trace show``)."""
    totals = span_totals(records)
    if not totals:
        return "no spans recorded"
    lines = [
        f"  {'span':<28} {'calls':>6} {'rows':>12} {'seconds':>10} "
        f"{'rows/sec':>12}"
    ]
    for total in totals.values():
        rate = total.rows_per_sec
        rate_text = f"{rate:12.0f}" if rate != float("inf") else f"{'inf':>12}"
        lines.append(
            f"  {total.name:<28} {total.calls:>6} {total.rows:>12} "
            f"{total.seconds:>10.4f} {rate_text}"
        )
    return "\n".join(lines)
