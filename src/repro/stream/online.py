"""Windowed online classification (the engine behind ``repro watch``).

:class:`OnlineClassifier` consumes one timestamp-ordered stream of
:class:`~repro.stream.events.RouteEvent` /
:class:`~repro.stream.events.FlowEvent` and emits one
:class:`WindowResult` per tumbling window of ``window_seconds``:

* route events are applied to the :class:`OnlineValidState`
  immediately, in stream order;
* flow chunks are classified against the state *as of their position
  in the stream* — inside a window, a chunk that arrives after a route
  delta sees the patched matrices, a chunk before it does not;
* each window runs as one ``classify_stream`` call, so its merged
  counters/labels follow the exact chunk-merge algebra of the batch
  pipeline, and the supervised pool path (``n_workers``) re-arms
  worker pools whenever the state version moves mid-window.

Timestamps must be non-decreasing; a regression raises. Windows with
no events at all are skipped (the stream is sparse, not dense).
"""

from __future__ import annotations

import pathlib
import time
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from repro.core.classifier import FailurePolicy
from repro.core.results import StreamClassificationResult
from repro.obs.manifest import RunManifest
from repro.obs.metrics import current_metrics
from repro.obs.trace import current_tracer
from repro.stream.events import FlowEvent, RouteEvent, WatchEvent
from repro.stream.state import OnlineValidState


@dataclass(slots=True)
class WindowResult:
    """Everything one tumbling window produced."""

    #: Window ordinal: ``timestamp // window_seconds``.
    index: int
    #: Half-open window time range ``[start, end)``.
    start: int
    end: int
    #: Route events consumed inside the window.
    n_route_events: int
    #: How many of them changed state / were ignored.
    n_deltas_applied: int
    n_deltas_ignored: int
    #: Finalized-view patches vs full rebuilds triggered.
    n_patched: int
    n_rebuilds: int
    #: Flow chunks classified.
    n_chunks: int
    #: Merged classification of every flow chunk in the window.
    result: StreamClassificationResult

    @property
    def n_flows(self) -> int:
        """Flow rows classified in this window."""
        return self.result.n_flows


class _Peekable:
    """Single-event lookahead over an event iterator."""

    __slots__ = ("_iterator", "_head")

    def __init__(self, events: Iterable[WatchEvent]) -> None:
        self._iterator = iter(events)
        self._head: WatchEvent | None = next(self._iterator, None)

    def peek(self) -> WatchEvent | None:
        return self._head

    def advance(self) -> None:
        self._head = next(self._iterator, None)


class OnlineClassifier:
    """Tumbling-window classification over an interleaved event stream."""

    def __init__(
        self,
        state: OnlineValidState,
        window_seconds: int,
        *,
        n_workers: int | None = None,
        policy: FailurePolicy | str | None = None,
        keep_labels: bool = False,
        manifest_dir: str | pathlib.Path | None = None,
        emitted_through: int | None = None,
    ) -> None:
        """``manifest_dir`` — when set, one
        :class:`~repro.obs.manifest.RunManifest` is written per window,
        with the window's counters and (when tracing is enabled) its
        ``classify.*`` spans.

        ``policy`` defaults to ``"retry"`` when ``n_workers`` > 1: a
        long-running watch should ride out a transient worker failure,
        so a failed chunk is retried instead of failing the window as
        ``classify_stream``'s own ``"fail_fast"`` default would.

        ``emitted_through`` — exactly-once recovery hook: windows with
        an index at or below it are still *computed* (their route
        events must advance the state) but neither observed nor
        yielded; the ``watch.windows_recovered`` counter tallies them.
        A resumed durable daemon sets this to its emitted-window
        cursor so replaying the WAL suffix never re-emits a window the
        crashed run already delivered.
        """
        if window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        if n_workers is not None and n_workers > 1 and policy is None:
            policy = "retry"
        self.state = state
        self.window_seconds = int(window_seconds)
        self.n_workers = n_workers
        self.policy = FailurePolicy.coerce(policy)
        self.keep_labels = keep_labels
        self.manifest_dir = (
            pathlib.Path(manifest_dir) if manifest_dir is not None else None
        )
        self.emitted_through = emitted_through
        self._last_timestamp: int | None = None

    @property
    def last_timestamp(self) -> int | None:
        """The monotonicity guard's position (highest timestamp seen).

        Checkpointed by the durable daemon and restored on resume, so
        the guard rejects exactly the same regressions it would have
        rejected in an uninterrupted run.
        """
        return self._last_timestamp

    @last_timestamp.setter
    def last_timestamp(self, value: int | None) -> None:
        self._last_timestamp = value

    def run(self, events: Iterable[WatchEvent]) -> Iterator[WindowResult]:
        """Consume the stream, yielding one result per non-empty window.

        The generator is lazy: each ``next()`` drains exactly one
        window, so an unbounded stream yields results incrementally
        and can be stopped at any window boundary. Windows at or below
        :attr:`emitted_through` are recovery recomputations: consumed
        and applied, but suppressed instead of yielded.
        """
        stream = _Peekable(events)
        while True:
            head = stream.peek()
            if head is None:
                return
            index = head.timestamp // self.window_seconds
            emit = self.emitted_through is None or index > self.emitted_through
            result = self._run_window(index, stream, observe=emit)
            if emit:
                yield result
            else:
                current_metrics().counter("watch.windows_recovered").inc()

    def _run_window(
        self, window_index: int, stream: _Peekable, *, observe: bool = True
    ) -> WindowResult:
        state = self.state
        start = window_index * self.window_seconds
        end = start + self.window_seconds
        applied_before = state.n_applied
        ignored_before = state.n_ignored
        patched_before = state.n_patched
        rebuilds_before = state.n_rebuilds
        n_route_events = 0
        n_chunks = 0

        def window_chunks() -> Iterator[object]:
            nonlocal n_route_events, n_chunks
            while True:
                event = stream.peek()
                if event is None or event.timestamp >= end:
                    return
                if (
                    self._last_timestamp is not None
                    and event.timestamp < self._last_timestamp
                ):
                    raise ValueError(
                        f"event timestamp {event.timestamp} regressed "
                        f"behind {self._last_timestamp}; the watch "
                        "stream must be time-ordered"
                    )
                self._last_timestamp = event.timestamp
                stream.advance()
                if isinstance(event, RouteEvent):
                    n_route_events += 1
                    state.apply_route(event.observation)
                elif isinstance(event, FlowEvent) and len(event.flows):
                    n_chunks += 1
                    yield event.flows

        began = time.perf_counter()
        merged = state.classifier.classify_stream(
            window_chunks(),
            n_workers=self.n_workers,
            keep_labels=self.keep_labels,
            policy=self.policy,
        )
        elapsed = time.perf_counter() - began
        result = WindowResult(
            index=window_index,
            start=start,
            end=end,
            n_route_events=n_route_events,
            n_deltas_applied=state.n_applied - applied_before,
            n_deltas_ignored=state.n_ignored - ignored_before,
            n_patched=state.n_patched - patched_before,
            n_rebuilds=state.n_rebuilds - rebuilds_before,
            n_chunks=n_chunks,
            result=merged,
        )
        if observe:
            self._observe(result, elapsed)
        return result

    def _observe(self, result: WindowResult, elapsed: float) -> None:
        """Record spans, counters, and the optional window manifest."""
        current_tracer().record(
            "watch.window",
            elapsed,
            rows=result.n_flows,
            window=result.index,
            route_events=result.n_route_events,
            chunks=result.n_chunks,
        )
        metrics = current_metrics()
        metrics.counter("watch.windows").inc()
        if result.n_route_events:
            metrics.counter("watch.route_events").inc(result.n_route_events)
        if result.n_flows:
            metrics.counter("watch.flows").inc(result.n_flows)
        metrics.histogram("watch.window_seconds").observe(elapsed)
        if self.manifest_dir is None:
            return
        self.manifest_dir.mkdir(parents=True, exist_ok=True)
        manifest = RunManifest.create(
            "watch.window",
            config={
                "window": result.index,
                "start": result.start,
                "end": result.end,
            },
        )
        manifest.finish(
            spans=result.result.spans,
            complete=result.result.complete,
            extra={
                **result.result.counters(),
                "window_summary": {
                    "route_events": result.n_route_events,
                    "deltas_applied": result.n_deltas_applied,
                    "deltas_ignored": result.n_deltas_ignored,
                    "finalized_patched": result.n_patched,
                    "finalized_rebuilds": result.n_rebuilds,
                    "chunks": result.n_chunks,
                    "flows": result.n_flows,
                }
            },
        )
        manifest.write(
            self.manifest_dir / f"window_{result.index:06d}.json"
        )
