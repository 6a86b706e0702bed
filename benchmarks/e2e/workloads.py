"""The five end-to-end workloads of the benchmark.

Each workload turns a seed into inputs (:meth:`Workload.prepare`,
untimed), brings the system under test up (:meth:`Workload.setup`,
timed and repeated; :meth:`Workload.after_setup`, untimed, readies
the passes), and runs one closed-loop pass over its inputs
(:meth:`Workload.run_pass`, repeated for the run's duration). A pass
returns what it completed, its per-operation latencies, its output
for the expected-output check, and any cross-check it failed.

The program is driven through its library surface exactly as the
CLI's ``study``, ``classify --workers 2`` and ``watch`` commands
drive it; the README says why each workload exists.
"""

from __future__ import annotations

import pathlib
import pickle
import shutil
import subprocess
import sys
import time
from collections.abc import Iterable, Iterator
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.analysis.table1 import compute_table1
from repro.bgp.messages import RouteObservation
from repro.bgp.rib import GlobalRIB
from repro.core.classifier import SpoofingClassifier
from repro.experiments.config import WorldConfig
from repro.experiments.runner import build_valid_space_maps, build_world
from repro.ixp.flows import FlowTable
from repro.obs.metrics import current_metrics
from repro.stream.durable import DurableWatch, recover
from repro.stream.events import (
    RouteEvent, flow_events, merge_event_streams, update_stream,
)
from repro.stream.online import OnlineClassifier, WindowResult
from repro.stream.state import OnlineValidState

from spans import Recorder

_FLOW_COLUMNS = (
    "src", "dst", "proto", "src_port", "dst_port", "packets", "bytes",
    "member", "dst_member", "time", "truth",
)

#: Worker processes of every parallel path, sized for a 2-core machine.
WORKERS = 2

#: Rows per flow-chunk event fed to the watch daemon.
CHUNK_ROWS = 16_384

#: Iterations of the reference loop, and its time at the reference
#: speed: about the fastest it runs on one core of a 2.1 GHz Xeon host.
REFERENCE_LOOPS = 400_000
REFERENCE_S = 0.025

#: The world both watch workloads run on. Fixed, because between worlds
#: of one preset the cost of a cone re-inference differs by 2× and the
#: daemon's memory by 25%; the seed picks what the daemon is fed.
WATCH_WORLD_SEED = 42


@dataclass
class PassResult:
    """What one pass did."""

    #: Seconds spent producing ``items``.
    busy: float
    #: Work completed: flow rows, or route events on ``watch_churn``.
    items: int
    #: Seconds per operation (study pass, table pass, event, window).
    latencies: list[float]
    #: The pass's output, compared with the committed expected output.
    output: Any
    #: Cross-checks the pass ran, and the ones that failed.
    checks: int = 0
    problems: list[str] = field(default_factory=list)
    #: Per-layer counts of this pass (events, windows, bytes, ...).
    counters: dict[str, float] = field(default_factory=dict)
    #: How much slower than the reference speed the machine ran around
    #: the timed part (:class:`Clock`).
    slowdown: float = 1.0


class Workload:
    """A seeded input, a set-up and a repeatable pass."""

    name = ""
    #: Distinct inputs; a run makes whole cycles over them, so it covers
    #: the same inputs however fast the machine. Each has its own
    #: expected output.
    units = 1
    #: Set-ups timed per run; ``setup_s`` is their median.
    setups = 3

    def __init__(self, seed: int, preset: str, work_dir: pathlib.Path):
        self.seed = seed
        self.preset = preset
        self.work_dir = work_dir

    def config(self, seed: int) -> WorldConfig:
        return getattr(WorldConfig, self.preset)(seed=seed)

    def prepare(self) -> None:
        """Make the inputs from the seed (untimed)."""

    def setup(self) -> float | None:
        """Bring the system under test up (timed, repeated). May return
        its own timing of the part that belongs to the program."""
        raise NotImplementedError

    def after_setup(self) -> None:
        """Ready the passes after the last set-up (untimed)."""

    def run_pass(self, unit: int, recorder: Recorder | None) -> PassResult:
        """One closed-loop pass over input ``unit % units``."""
        raise NotImplementedError

    def verify(self, outputs: list[Any]) -> tuple[int, list[str]]:
        """Cross-checks over every pass of the run (after timing):
        ``(checks, problems)``."""
        return 0, []


def _span(recorder: Recorder | None, name: str):
    return recorder.span(name) if recorder is not None else nullcontext()


def slowdown() -> float:
    """How much slower than the reference speed this core runs now: the
    time of a fixed pure-Python loop over :data:`REFERENCE_S`."""
    began = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOPS):
        total += i * i % 7
    return (time.perf_counter() - began) / REFERENCE_S


class Clock:
    """Times a block, and how much slower than the reference speed the
    machine ran around it: the mean of :func:`slowdown` just before and
    just after. On a shared host other tenants can slow a core by up
    to 1.7× for seconds at a time (a 2-core VM on a 2.1 GHz Xeon);
    dividing a time by the slowdown reports it at the reference speed,
    as it would read on a quiet machine."""

    def __init__(self, recorder: Recorder | None = None) -> None:
        self._recorder = recorder

    def _slowdown(self) -> float:
        with _span(self._recorder, "reference"):
            return slowdown()

    def __enter__(self) -> Clock:
        self._before = self._slowdown()
        self._began = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self.seconds = time.perf_counter() - self._began
        self.slowdown = (self._before + self._slowdown()) / 2


def tile(flows: FlowTable, reps: int) -> FlowTable:
    return FlowTable(**{c: np.tile(getattr(flows, c), reps)
                        for c in _FLOW_COLUMNS})


def input_counters(flows: FlowTable) -> dict[str, float]:
    """Rows, distinct ``(src, member)`` pairs and rows per pair."""
    keys = (flows.src.astype(np.uint64) << np.uint64(32)) | (
        flows.member.astype(np.uint64) & np.uint64(0xFFFFFFFF))
    pairs = int(np.unique(keys).size)
    return {"input.rows": len(flows), "input.unique_pairs": pairs,
            "input.pair_reuse": len(flows) / max(pairs, 1)}


def warm_state(dumps: list[RouteObservation], as2org) -> OnlineValidState:
    """The ``repro watch`` warm start: a RIB from the table dumps, the
    valid-space maps, and the finalized LPM view the first window
    would otherwise build."""
    rib = GlobalRIB()
    rib.add_all(dumps)
    state = OnlineValidState(rib, build_valid_space_maps(rib, as2org))
    rib.lookup_many(np.zeros(1, dtype=np.uint64))
    return state


def ledger_row(window: WindowResult) -> list[int]:
    """One window: index, route/delta tallies, chunks, flows, and the
    per-approach class counters."""
    row = [window.index, window.n_route_events, window.n_deltas_applied,
           window.n_patched, window.n_rebuilds, window.n_chunks,
           window.n_flows]
    for approach in window.result.approaches:
        row.extend(int(v) for v in window.result.flow_counts[approach])
    return row


class _Pulls:
    """An event source that times the gap between successive pulls:
    the time its consumer spent on the previous event."""

    def __init__(self, events: Iterable) -> None:
        self._events = events
        self.gaps: list[float] = []
        self.routes = 0
        self.chunks = 0

    def __iter__(self) -> Iterator:
        pulled = time.perf_counter()
        for event in self._events:
            if isinstance(event, RouteEvent):
                self.routes += 1
            else:
                self.chunks += 1
            yield event
            now = time.perf_counter()  # the consumer asks for the next one
            self.gaps.append(now - pulled)
            pulled = now


# -- study -------------------------------------------------------------


class Study(Workload):
    """A cold study: config → topology → BGP → RIB → cones → traffic →
    classification → Table 1. Unit ``u`` builds world ``seed + 1000·u``,
    so one run covers eight worlds, the same eight on every commit."""

    name = "study"
    units = 8
    setups = 7

    def prepare(self) -> None:
        # Imports and first-call costs land here, not in pass 0.
        world = build_world(WorldConfig.tiny(seed=self.seed))
        compute_table1(world.result).render()

    def setup(self) -> float:
        # What every `repro study` run pays before its first layer: a
        # cold interpreter importing the package. The child times the
        # import itself; starting an interpreter is not the program's.
        src = str(pathlib.Path(sys.modules["repro"].__file__).parents[1])
        child = subprocess.run(
            [sys.executable, "-c",
             f"import sys, time; sys.path.insert(0, {src!r}); "
             "began = time.perf_counter(); "
             "import repro.experiments.runner, repro.analysis.table1; "
             "print(time.perf_counter() - began)"],
            check=True, capture_output=True, text=True,
        )
        return float(child.stdout)

    def run_pass(self, unit: int, recorder: Recorder | None) -> PassResult:
        world_seed = self.seed + 1000 * (unit % self.units)
        with Clock(recorder) as clock, _span(recorder, "pass"):
            world = build_world(self.config(world_seed))
            with _span(recorder, "table1"):
                table = compute_table1(world.result)
                rendered = table.render()
        flows = world.result.flows
        counts = class_counts(world.result)
        problems = []
        if any(sum(c) != len(flows) for c in counts.values()):
            problems.append("class counts do not sum to the flow count")
        if len({tuple(c[1:3]) for c in counts.values()}) != 1:
            problems.append("bogon/unrouted counts differ between approaches")
        if len(rendered.splitlines()) != len(table.columns) + 1:
            problems.append("Table 1 rendered the wrong number of rows")
        output = {
            "world_seed": world_seed,
            "rows": len(flows),
            "table1": {name: [c.members, c.packets, c.bytes]
                       for name, c in table.columns.items()},
            "counts": counts,
        }
        return PassResult(clock.seconds, len(flows), [clock.seconds], output,
                          3, problems, input_counters(flows), clock.slowdown)


# -- classify ----------------------------------------------------------


class ClassifyReuse(Workload):
    """The whole-table ``repro classify --workers 2`` path over the
    seed world's flows tiled 20×: every ``(src, member)`` pair repeats."""

    name = "classify_reuse"
    TILE = 20

    def prepare(self) -> None:
        world = build_world(self.config(self.seed), classify=False,
                            keep_observations=True)
        self.observations = world.extras["observations"]
        self.as2org = world.as2org
        self.table = self.make_table(world.scenario.flows)
        self.input = input_counters(self.table)

    def make_table(self, flows: FlowTable) -> FlowTable:
        return tile(flows, self.TILE)

    def setup(self) -> None:
        rib = GlobalRIB.from_observations(self.observations)
        classifier = SpoofingClassifier(
            rib, build_valid_space_maps(rib, self.as2org))
        # The LPM view and validity matrices are built on first use.
        classifier.classify(self.table)
        self.classifier = classifier

    def run_pass(self, unit: int, recorder: Recorder | None) -> PassResult:
        classifier, table = self.classifier, self.table
        order = ("stream", "serial") if unit % 2 == 0 else ("serial", "stream")
        with _span(recorder, "pass"):
            for kind in order:
                if kind == "stream":
                    with Clock(recorder) as clock:
                        streamed = classifier.classify_stream(
                            table, n_workers=WORKERS, policy="fail_fast")
                else:
                    serial = classifier.classify(table)
        counts = class_counts(serial)
        problems = []
        if {a: c.tolist() for a, c in streamed.flow_counts.items()} != counts:
            problems.append("2-worker stream and in-process counts differ")
        if streamed.n_flows != len(table) or not streamed.complete:
            problems.append("the stream did not classify every row")
        output = {"rows": len(table), "counts": counts}
        return PassResult(clock.seconds, len(table), [clock.seconds], output,
                          2, problems, dict(self.input), clock.slowdown)


class ClassifyFlood(ClassifyReuse):
    """The same table size, but ``src`` is uniform over 2³² and the other
    columns are resampled rows: a random-spoofed flood with about one
    row per ``(src, member)`` pair."""

    name = "classify_flood"

    def make_table(self, flows: FlowTable) -> FlowTable:
        rng = np.random.default_rng(self.seed)
        n = len(flows) * self.TILE
        rows = rng.integers(0, len(flows), n)
        columns = {c: getattr(flows, c)[rows] for c in _FLOW_COLUMNS}
        columns["src"] = rng.integers(0, 2**32, n, dtype=np.uint64)
        return FlowTable(**columns)


# -- watch -------------------------------------------------------------


#: What one update of the feed does to the routing state.
IGNORED, MEMBERS, PATHS, REBUILD = range(4)


def feed_kinds(dumps: list[RouteObservation],
               feed: list[RouteObservation]) -> np.ndarray:
    """What each update does when the feed is applied in order after
    the table dumps: nothing (a duplicate announcement, or a withdrawal
    of a route that is not live), change prefix membership only, change
    the path set (the customer cones are re-inferred), or change the AS
    set (the finalized views are rebuilt). Replayed on a RIB without
    finalized views, which keeps this cheap."""
    rib = GlobalRIB()
    rib.add_all(dumps)
    kinds = np.empty(len(feed), dtype=np.int8)
    for i, update in enumerate(feed):
        delta = rib.apply(update)
        if not delta.applied:
            kinds[i] = IGNORED
        elif delta.rebuild_required:
            kinds[i] = REBUILD
        elif (delta.added_paths or delta.removed_paths
              or delta.added_adjacencies or delta.removed_adjacencies):
            kinds[i] = PATHS
        else:
            kinds[i] = MEMBERS
    return kinds


def choose_slice(kinds: np.ndarray, length: int, seed: int) -> int:
    """Start of a ``length``-update slice of the feed, picked by the
    seed among the slices that change no AS set and whose count of
    path-set changes is closest to the feed's own share. The feed comes
    in bursts: unconditioned, a slice's cost would depend on where the
    seed happened to land more than on the daemon."""
    def slice_sums(mask: np.ndarray) -> np.ndarray:
        total = np.concatenate(([0], np.cumsum(mask)))
        return total[length:] - total[:-length]

    target = round(float(np.mean(kinds == PATHS)) * length)
    off = np.abs(slice_sums(kinds == PATHS) - target)
    off[slice_sums(kinds == REBUILD) > 0] = length + 1
    starts = np.flatnonzero(off == off.min())
    return int(np.random.default_rng(seed).choice(starts))


def live_routes(dumps: list[RouteObservation],
                updates: list[RouteObservation]) -> list[RouteObservation]:
    """The routes live once ``updates`` are applied after the dumps:
    a withdrawal removes the ``(prefix, path)`` route it names, an
    announcement installs it."""
    live = {(o.prefix, o.path): o for o in dumps if not o.withdrawal}
    for update in updates:
        key = (update.prefix, update.path)
        if update.withdrawal:
            live.pop(key, None)
        else:
            live.setdefault(key, update)
    return list(live.values())


def class_counts(result) -> dict[str, list[int]]:
    """Per-approach flow counts of each class."""
    return {a: np.bincount(result.label_vector(a), minlength=4).tolist()
            for a in result.approaches}


class WatchChurn(Workload):
    """The in-memory ``repro watch`` daemon absorbing a slice of world
    42's natural update feed, 900 s windows, with the flows of the
    slice's period interleaved. The seed picks the slice
    (:func:`choose_slice`); the daemon warm-starts from the routes live
    where it begins, as a daemon started there would, and every pass
    starts again from that state."""

    name = "watch_churn"
    UPDATES = 25
    WINDOW = 900

    def prepare(self) -> None:
        world = build_world(self.config(WATCH_WORLD_SEED), classify=False,
                            keep_observations=True)
        observations = world.extras["observations"]
        dumps = [o for o in observations if not o.from_update]
        feed = update_stream(observations)
        kinds = feed_kinds(dumps, feed)
        length = min(self.UPDATES, len(feed))
        self.start = choose_slice(kinds, length, self.seed)
        end = self.start + length
        self.path_changes = max(int(np.sum(kinds[self.start:end] == PATHS)), 1)
        self.route_events = [RouteEvent(o) for o in feed[self.start:end]]
        self.start_routes = live_routes(dumps, feed[:self.start])
        self.end_routes = live_routes(dumps, feed[:end])
        self.as2org = world.as2org
        self.flows = world.scenario.flows
        first, last = feed[self.start].timestamp, feed[end - 1].timestamp
        period = self.flows.select((self.flows.time >= first)
                                   & (self.flows.time <= last))
        self.flow_events = list(flow_events(
            period, chunk_rows=CHUNK_ROWS, window_seconds=self.WINDOW))
        self.input = input_counters(period)

    def setup(self) -> None:
        self.state = warm_state(self.start_routes, self.as2org)

    def after_setup(self) -> None:
        self.snapshot = pickle.dumps(self.state, pickle.HIGHEST_PROTOCOL)

    def run_pass(self, unit: int, recorder: Recorder | None) -> PassResult:
        state = self.last_state = pickle.loads(self.snapshot)
        online = OnlineClassifier(state, self.WINDOW)
        pulls = _Pulls(merge_event_streams(self.route_events,
                                           self.flow_events))
        ledger = []
        with Clock(recorder) as clock, _span(recorder, "pass"):
            for window in online.run(iter(pulls)):
                ledger.append(ledger_row(window))
        # The operation a user waits on is absorbing a path-set change:
        # a re-inference of the customer cones, by far the longest thing
        # the daemon does on this input. The daemon reads one event
        # ahead, so the gap after an event times the one before it; the
        # k longest gaps, k being the slice's count of path-set changes,
        # are theirs whatever the read-ahead.
        path_changes = sorted(pulls.gaps)[-self.path_changes:]
        counters = dict(self.input)
        counters.update({
            "events.route": pulls.routes,
            "events.flow_chunks": pulls.chunks,
            "watch.windows": len(ledger),
            "delta.applied_frac": state.n_applied / max(pulls.routes, 1),
            "rib.patched": state.n_patched,
            "rib.rebuilds": state.n_rebuilds,
        })
        return PassResult(clock.seconds, pulls.routes, path_changes,
                          {"start": self.start, "ledger": ledger}, 0, [],
                          counters, clock.slowdown)

    def verify(self, outputs: list[Any]) -> tuple[int, list[str]]:
        """Every pass yields the same ledger, and the state the last pass
        patched its way to classifies the world's flows exactly as one
        built from scratch over the same live routes."""
        problems = [f"pass {i}: ledger differs from pass 0"
                    for i, output in enumerate(outputs) if output != outputs[0]]
        fresh = warm_state(self.end_routes, self.as2org)
        if (class_counts(self.last_state.classifier.classify(self.flows))
                != class_counts(fresh.classifier.classify(self.flows))):
            problems.append("the patched state classifies differently from "
                            "one built from scratch")
        return len(outputs) + 1, problems


class WatchReplay(Workload):
    """The durable ``repro watch --workers 2`` daemon over a quiet routing
    period: one week of flows, starting on the day the seed picks, tiled
    8×, 4-hour windows, WAL and a checkpoint every 20 windows. The run is
    cut after window 36 of 42, then recovered and resumed to the end of
    the stream."""

    name = "watch_replay"
    DAYS = 7
    TILE = 8
    WINDOW = 4 * 3600
    CUT = 36
    CHECKPOINT_EVERY = 20

    def prepare(self) -> None:
        world = build_world(self.config(WATCH_WORLD_SEED), classify=False,
                            keep_observations=True)
        self.dumps = [o for o in world.extras["observations"]
                      if not o.from_update]
        self.as2org = world.as2org
        flows = world.scenario.flows
        start = self.seed % 22 * 86_400  # the measurement spans 28 days
        week = (flows.time >= start) & (flows.time < start + self.DAYS * 86_400)
        table = tile(flows.select(week), self.TILE)
        self.events = list(flow_events(
            table, chunk_rows=CHUNK_ROWS, window_seconds=self.WINDOW))
        self.input = input_counters(table)

    def setup(self) -> None:
        self.state = warm_state(self.dumps, self.as2org)

    def _watch(self, state: OnlineValidState, directory: pathlib.Path,
               resume=None) -> DurableWatch:
        return DurableWatch(
            state, self.WINDOW, checkpoint_dir=directory,
            checkpoint_every=self.CHECKPOINT_EVERY, n_workers=WORKERS,
            policy="fail_fast", resume=resume)

    def run_pass(self, unit: int, recorder: Recorder | None) -> PassResult:
        directory = self.work_dir / f"watch-{unit}"
        shutil.rmtree(directory, ignore_errors=True)
        recovered = current_metrics().counter("watch.windows_recovered")
        try:
            with _span(recorder, "pass"):
                ledger, gaps, rows = [], [], 0
                pulls = _Pulls(self.events)
                windows = self._watch(self.state, directory).run(iter(pulls))
                with Clock(recorder) as clock:
                    last = time.perf_counter()
                    for window in windows:
                        now = time.perf_counter()
                        gaps.append(now - last)
                        last = now
                        ledger.append(ledger_row(window))
                        rows += window.n_flows
                        if len(ledger) == self.CUT:
                            break
                    windows.close()  # commits the cut window
                recovered_before = recovered.value
                with _span(recorder, "resume"):
                    resumed_at = time.perf_counter()
                    point = recover(directory)
                    watch = self._watch(point.checkpoint.state, directory,
                                        resume=point)
                    ledger.extend(ledger_row(w)
                                  for w in watch.run(iter(self.events)))
                    resume_s = time.perf_counter() - resumed_at
            wal_bytes = sum(p.stat().st_size
                            for p in (directory / "wal").iterdir())
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        counters = dict(self.input)
        counters.update({
            "events.flow_chunks": pulls.chunks,
            "watch.windows": len(ledger),
            "ingest.gap_s": sum(pulls.gaps),
            "wal.bytes": wal_bytes,
            "resume.s": resume_s,
            "resume.recomputed_windows": recovered.value - recovered_before,
        })
        return PassResult(clock.seconds, rows, gaps, {"ledger": ledger}, 0,
                          [], counters, clock.slowdown)

    def verify(self, outputs: list[Any]) -> tuple[int, list[str]]:
        """Before-cut plus resumed windows must equal one uninterrupted
        in-process run over the same stream."""
        online = OnlineClassifier(self.state, self.WINDOW)
        reference = [ledger_row(w) for w in online.run(iter(self.events))]
        problems = [f"pass {i}: cut-and-resume ledger differs from the "
                    "uninterrupted run"
                    for i, output in enumerate(outputs)
                    if output["ledger"] != reference]
        return len(outputs), problems


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (Study, ClassifyReuse, ClassifyFlood, WatchChurn, WatchReplay)
}
