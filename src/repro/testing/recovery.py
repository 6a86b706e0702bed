"""Crash-recovery driver for the durable watch suite.

The kill/resume tests need code that runs inside *child processes*
under both the ``fork`` and ``spawn`` start methods — spawn children
re-import their target by qualified name, so the driver lives here in
the package (importable from ``repro.testing.recovery``) instead of in
a test module.

:func:`run_watch` drives a :class:`~repro.stream.durable.DurableWatch`
over a deterministic synthetic route/flow stream and appends one JSON
line per *emitted* window to a ledger file — each line carries the
window index, its event/flow tallies, per-approach invalid counts, and
a sha256 digest of the per-approach label vectors, fsynced before the
next window starts. A process SIGKILLed mid-run therefore leaves a
ledger that is exactly the prefix of windows it emitted, and the
parent test asserts two properties over the concatenated ledgers of
the killed run and its resumption:

* **no duplicates** — every window index appears exactly once
  (exactly-once emission);
* **bit-equality** — the concatenation equals the ledger of one
  uninterrupted run over the same stream (deterministic recovery).

The synthetic stream (:func:`synthetic_events`) is seeded and built
from ``random.Random`` only, so fork and spawn children reproduce it
bit for bit without sharing any parent state.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import random
from collections.abc import Callable

import numpy as np

from repro.bgp.messages import RouteObservation
from repro.bgp.rib import GlobalRIB
from repro.cones.full_cone import FullConeValidSpace
from repro.cones.naive import NaiveValidSpace
from repro.ixp.flows import PROTO_TCP, FlowTable, TruthLabel
from repro.net.addr import addr_to_int
from repro.net.prefix import Prefix
from repro.stream.durable import DurableWatch, recover
from repro.stream.events import FlowEvent, RouteEvent, WatchEvent
from repro.stream.online import WindowResult
from repro.stream.state import OnlineValidState

__all__ = [
    "ledger_rows",
    "run_watch",
    "synthetic_events",
    "synthetic_state",
]

#: Window width used by :func:`run_watch` (seconds of stream time).
WINDOW_SECONDS = 100

_ASNS = (1, 10, 20, 100, 200)
_PREFIXES = ("60.0.0.0/16", "20.0.0.0/16", "30.0.0.0/16")
_SRC_POOL = ("60.0.5.5", "20.0.0.9", "30.0.1.1", "9.9.9.9", "10.1.2.3")


def _obs(
    prefix: str, *path: int, ts: int = 0, withdrawal: bool = False
) -> RouteObservation:
    return RouteObservation(
        prefix=Prefix.parse(prefix),
        path=tuple(path),
        source="rrc00",
        timestamp=ts,
        from_update=True,
        withdrawal=withdrawal,
    )


def _flow_table(rows: list[tuple[str, int]], ts: int) -> FlowTable:
    n = len(rows)
    return FlowTable(
        src=np.array([addr_to_int(r[0]) for r in rows], dtype=np.uint64),
        dst=np.full(n, addr_to_int("20.0.0.1"), dtype=np.uint64),
        proto=np.full(n, PROTO_TCP),
        src_port=np.full(n, 1000),
        dst_port=np.full(n, 80),
        packets=np.full(n, 2),
        bytes=np.full(n, 120),
        member=np.array([r[1] for r in rows], dtype=np.int64),
        dst_member=np.full(n, 20, dtype=np.int64),
        time=np.full(n, ts, dtype=np.int64),
        truth=np.full(n, int(TruthLabel.LEGIT), dtype=np.uint8),
    )


def synthetic_state() -> OnlineValidState:
    """A warm online state over the fixed base routes.

    Every run (fresh or resumed-without-checkpoint) starts from this
    exact state, mirroring how the CLI warms the RIB from the same
    table dumps on every start.
    """
    rib = GlobalRIB()
    rib.apply(_obs("60.0.0.0/16", 20, 1, 10, 100))
    rib.apply(_obs("20.0.0.0/16", 10, 1, 20, 200))
    approaches = {
        "naive": NaiveValidSpace(rib),
        "full": FullConeValidSpace(rib),
    }
    return OnlineValidState(rib, approaches)


def synthetic_events(
    seed: int,
    n_ticks: int = 120,
    rows_per_chunk: tuple[int, int] = (3, 8),
) -> list[WatchEvent]:
    """A deterministic interleaved route/flow stream.

    Announce/withdraw churn over a small prefix pool plus flow chunks
    drawn from sources inside and outside the announced space — enough
    state movement that every window's labels depend on the route
    history before it (a wrong resume point shows up as a digest
    mismatch, not a silent pass). ``rows_per_chunk`` bounds the flow
    rows per chunk — the default keeps the recovery suite fast; the
    durability benchmark raises it so per-window classification cost
    is realistic relative to the fsync overhead it measures.
    """
    rng = random.Random(seed)
    row_lo, row_hi = rows_per_chunk
    live: list[tuple[str, tuple[int, ...]]] = []
    events: list[WatchEvent] = []
    ts = 0
    for _ in range(n_ticks):
        ts += rng.randint(1, 12)
        roll = rng.random()
        if roll < 0.35:
            if live and rng.random() < 0.5:
                prefix, path = live.pop(rng.randrange(len(live)))
                events.append(
                    RouteEvent(_obs(prefix, *path, ts=ts, withdrawal=True))
                )
            else:
                prefix = rng.choice(_PREFIXES)
                path = tuple(rng.sample(_ASNS, rng.randint(2, 3)))
                live.append((prefix, path))
                events.append(RouteEvent(_obs(prefix, *path, ts=ts)))
        else:
            rows = [
                (rng.choice(_SRC_POOL), rng.choice(_ASNS))
                for _ in range(rng.randint(row_lo, row_hi))
            ]
            events.append(FlowEvent(_flow_table(rows, ts), ts))
    return events


def _ledger_row(window: WindowResult) -> dict:
    digest = hashlib.sha256()
    for name in sorted(window.result.approaches):
        labels = window.result.label_vector(name)
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(labels).tobytes())
    return {
        "window": window.index,
        "route_events": window.n_route_events,
        "chunks": window.n_chunks,
        "flows": window.n_flows,
        "invalid": window.result.counters()["invalid_counts"],
        "labels_sha256": digest.hexdigest(),
    }


def ledger_rows(path: str | pathlib.Path) -> list[dict]:
    """Parse a ledger file back into its per-window rows."""
    rows = []
    text = pathlib.Path(path).read_text() if pathlib.Path(path).exists() else ""
    for line in text.splitlines():
        if line.strip():
            rows.append(json.loads(line))
    return rows


def run_watch(
    checkpoint_dir: str | pathlib.Path,
    ledger_path: str | pathlib.Path,
    *,
    seed: int = 23,
    n_ticks: int = 120,
    checkpoint_every: int = 1,
    resume: bool = False,
    fault_hook: Callable[[str], None] | None = None,
    n_workers: int | None = None,
) -> list[int]:
    """Run (or resume) a durable watch, appending emitted windows.

    The ledger is opened in append mode and every row is flushed and
    fsynced before the daemon moves on, so a SIGKILL at any point
    leaves exactly the rows of windows that were actually emitted.
    Returns the window indices emitted by *this* call.

    This is the child-process entry point of the recovery suite: under
    ``spawn`` it is re-imported by qualified name, so it depends only
    on its arguments (all picklable) and the deterministic builders
    above.
    """
    resume_point = recover(checkpoint_dir) if resume else None
    if resume_point is not None and resume_point.checkpoint is not None:
        state = resume_point.checkpoint.state
    else:
        state = synthetic_state()
    watch = DurableWatch(
        state,
        WINDOW_SECONDS,
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=checkpoint_every,
        resume=resume_point,
        fault_hook=fault_hook,
        n_workers=n_workers,
        keep_labels=True,
    )
    events = synthetic_events(seed, n_ticks)
    emitted: list[int] = []
    # The daemon commits a window's cursor only after we come back for
    # the next one; a kill in that gap re-emits the boundary window on
    # resume, so the ledger append is made idempotent by window index.
    already = {row["window"] for row in ledger_rows(ledger_path)}
    with open(ledger_path, "a") as ledger:
        for window in watch.run(iter(events)):
            if window.index not in already:
                ledger.write(
                    json.dumps(_ledger_row(window), sort_keys=True) + "\n"
                )
                ledger.flush()
                os.fsync(ledger.fileno())
            emitted.append(window.index)
    return emitted
