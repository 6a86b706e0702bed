"""Route observation dumps in an MRT-inspired line format.

One record per line, pipe-separated like the widely used
``bgpdump -m`` output of MRT ``TABLE_DUMP2`` files::

    TABLE_DUMP2|<timestamp>|B|<source>|<peer_asn>|<prefix>|<as_path>|...

where ``B`` marks a table-dump entry, ``A`` an update announcement
(our ``from_update`` flag) and ``W`` a withdrawal. The AS path is
space-separated, monitor-first, origin-last — exactly the in-memory
convention of :class:`repro.bgp.messages.RouteObservation`.

Real archived dumps accumulate damage (truncated transfers, encoding
glitches, collector bugs), so the reader supports the same two
failure modes as the flow CSV reader: ``on_error="raise"`` aborts on
the first malformed record with a structured
:class:`~repro.errors.IngestError`, ``on_error="quarantine"`` skips
and records bad lines in a :class:`~repro.errors.Quarantine`.
"""

from __future__ import annotations

import pathlib
import time
from collections.abc import Iterable, Iterator

from repro.bgp.messages import RouteObservation
from repro.errors import IngestError, Quarantine
from repro.net.prefix import Prefix
from repro.obs.metrics import current_metrics
from repro.obs.trace import current_tracer

_RECORD = "TABLE_DUMP2"

_ON_ERROR = ("raise", "quarantine")

#: The largest 4-byte AS number.
_ASN_MAX = 2**32 - 1


def write_route_dump(
    observations: Iterable[RouteObservation], path: str | pathlib.Path
) -> int:
    """Write observations; returns the number of records written."""
    count = 0
    with open(path, "w") as handle:
        for observation in observations:
            if observation.withdrawal:
                kind = "W"
            elif observation.from_update:
                kind = "A"
            else:
                kind = "B"
            path_text = " ".join(str(asn) for asn in observation.path)
            handle.write(
                f"{_RECORD}|{observation.timestamp}|{kind}|"
                f"{observation.source}|{observation.monitor_peer}|"
                f"{observation.prefix}|{path_text}\n"
            )
            count += 1
    return count


def _number(token: str, what: str) -> int:
    """A token of plain ASCII digits as an int; ``int()`` alone would
    also take signs, underscores and non-ASCII digits."""
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"bad {what} {token!r}")
    return int(token)


def _asn(token: str) -> int:
    asn = _number(token, "ASN")
    if asn > _ASN_MAX:
        raise ValueError(f"ASN {asn} out of range")
    return asn


def _parse_record(line: str) -> RouteObservation:
    """One dump line → observation; raises ValueError on any defect."""
    try:
        line.encode()
    except UnicodeEncodeError as exc:
        # The file is read with "surrogateescape": a byte that is not
        # UTF-8 arrives as a lone surrogate, and marks a bad record.
        raise ValueError("undecodable byte (not UTF-8)") from exc
    fields = line.split("|")
    if len(fields) != 7 or fields[0] != _RECORD:
        raise ValueError("malformed record")
    _record, timestamp, kind, source, peer, prefix_text, path_text = fields
    as_path = tuple(map(_asn, path_text.split()))
    if not as_path:
        raise ValueError("empty AS path")
    if _asn(peer) != as_path[0]:
        raise ValueError(
            f"peer {peer} does not match path head {as_path[0]}"
        )
    if kind not in ("A", "B", "W"):
        raise ValueError(f"bad kind {kind!r}")
    return RouteObservation(
        prefix=Prefix.parse(prefix_text),
        path=as_path,
        source=source,
        timestamp=_number(timestamp, "timestamp"),
        from_update=kind in ("A", "W"),
        withdrawal=kind == "W",
    )


def load_route_dump(
    path: str | pathlib.Path,
    *,
    on_error: str = "raise",
    quarantine: Quarantine | None = None,
) -> Iterator[RouteObservation]:
    """Stream observations back from a dump file.

    Dumps are machine-written, so by default malformed lines raise an
    :class:`~repro.errors.IngestError` carrying the line number —
    silence would hide corruption. ``on_error="quarantine"`` instead
    skips bad lines and records them (line number, reason, capped raw
    sample) in ``quarantine``, which the caller should inspect after
    the stream is consumed.
    """
    if on_error not in _ON_ERROR:
        raise ValueError(f"on_error must be one of {_ON_ERROR}")
    if on_error == "quarantine" and quarantine is None:
        quarantine = Quarantine(source=str(path))
    start = time.perf_counter()
    yielded = 0
    quarantined = 0
    try:
        with open(path, encoding="utf-8", errors="surrogateescape") as handle:
            for line_number, line in enumerate(handle, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    observation = _parse_record(line)
                except ValueError as exc:
                    if on_error == "raise":
                        raise IngestError(
                            f"{path}:{line_number}: {exc}",
                            path=str(path),
                            line_number=line_number,
                        ) from exc
                    assert quarantine is not None
                    quarantine.add(line_number, str(exc), line)
                    quarantined += 1
                    continue
                yielded += 1
                yield observation
    finally:
        # Record the span when the consumer finishes (or abandons)
        # the stream — a generator has no other natural exit point.
        tracer = current_tracer()
        if tracer.enabled:
            tracer.record(
                "io.load_route_dump",
                time.perf_counter() - start,
                rows=yielded,
                path=str(path),
            )
        if quarantined:
            current_metrics().counter("ingest.quarantined_rows").inc(
                quarantined
            )
