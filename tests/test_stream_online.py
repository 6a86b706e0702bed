"""The online pipeline: events, windowing, and version-aware pools.

Satellite contracts under test:

* randomized window parity — classifying an interleaved route/flow
  stream online (state patched in place, per-window ``classify_stream``
  calls, optionally through worker pools under fork *and* spawn) is
  bit-equal to classifying every chunk against a from-scratch rebuild
  of RIB + valid-space maps over the same route history;
* version-aware pools — a matrix patched *between chunks of one
  stream* must be visible to every later chunk, even when a worker is
  killed and its chunk resubmitted to a rebuilt pool;
* one pool per watch run — a run starts its pool at the first flow
  chunk and rebuilds it only when the state version has moved before a
  chunk, and every way out of the run generator reaps the workers;
* stream hygiene — timestamp-regression guard, window-aligned flow
  chunking, deterministic merge tie-breaking, per-window manifests.
"""

from __future__ import annotations

import gc
import json
import multiprocessing

import numpy as np
import pytest

import repro.core.classifier as classifier_mod
from repro.bgp.messages import RouteObservation
from repro.bgp.rib import GlobalRIB
from repro.cones.full_cone import FullConeValidSpace
from repro.cones.naive import NaiveValidSpace
from repro.core import FailurePolicy
from repro.ixp.flows import PROTO_TCP, FlowTable, TruthLabel
from repro.net.addr import addr_to_int
from repro.net.prefix import Prefix
from repro.obs.metrics import current_metrics
from repro.obs.trace import current_tracer, enable_tracing
from repro.stream import (
    FlowEvent,
    OnlineClassifier,
    OnlineValidState,
    RouteEvent,
    flow_events,
    merge_event_streams,
    route_events,
    update_stream,
)
from repro.testing import FaultPlan, FaultSpec

FAST_RETRY = FailurePolicy(
    mode="retry", max_retries=2, chunk_timeout=20.0, backoff_base=0.01
)

WINDOW = 100

ASNS = (1, 10, 20, 100, 200)
PREFIXES = ("60.0.0.0/16", "20.0.0.0/16", "30.0.0.0/16")
SRC_POOL = ("60.0.5.5", "20.0.0.9", "30.0.1.1", "9.9.9.9", "10.1.2.3")


def obs(prefix, *path, ts=0, withdrawal=False):
    return RouteObservation(
        prefix=Prefix.parse(prefix),
        path=tuple(path),
        source="rrc00",
        timestamp=ts,
        from_update=True,
        withdrawal=withdrawal,
    )


def base_routes():
    """Two routes keeping every ASN in the pool alive."""
    return [
        obs("60.0.0.0/16", 20, 1, 10, 100),
        obs("20.0.0.0/16", 10, 1, 20, 200),
    ]


def flow_table(rows, ts):
    """rows: list of (src_text, member); ``ts`` a scalar or per-row array."""
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
        time=np.broadcast_to(np.asarray(ts, dtype=np.int64), (n,)).copy(),
        truth=np.full(n, int(TruthLabel.LEGIT), dtype=np.uint8),
    )


def build_state(routes):
    rib = GlobalRIB()
    for route in routes:
        rib.apply(route)
    approaches = {
        "naive": NaiveValidSpace(rib),
        "full": FullConeValidSpace(rib),
    }
    return OnlineValidState(rib, approaches)


def reference_labels(route_history, flows):
    """From-scratch classification of one chunk: fresh RIB and maps."""
    state = build_state(route_history)
    result = state.classifier.classify(flows)
    return {
        name: result.label_vector(name) for name in ("naive", "full")
    }


def random_stream(rng, n_ticks=60):
    """An interleaved event stream plus its from-scratch reference.

    Returns ``(events, chunks)`` where each chunks entry is
    ``(window_index, flows, route_history_snapshot)``.
    """
    live = []
    route_log = []
    events = []
    chunks = []
    ts = 0
    for _ in range(n_ticks):
        ts += int(rng.integers(1, 12))
        roll = rng.random()
        if roll < 0.35:
            if live and rng.random() < 0.5:
                prefix, path = live.pop(int(rng.integers(len(live))))
                event = obs(prefix, *path, ts=ts, withdrawal=True)
            else:
                prefix = PREFIXES[rng.integers(len(PREFIXES))]
                length = int(rng.integers(2, 4))
                picked = rng.choice(len(ASNS), size=length, replace=False)
                path = tuple(ASNS[i] for i in picked)
                live.append((prefix, path))
                event = obs(prefix, *path, ts=ts)
            route_log.append(event)
            events.append(RouteEvent(event))
        elif roll < 0.80:
            n_rows = int(rng.integers(3, 9))
            rows = [
                (
                    SRC_POOL[rng.integers(len(SRC_POOL))],
                    ASNS[rng.integers(len(ASNS))],
                )
                for _ in range(n_rows)
            ]
            flows = flow_table(rows, ts)
            events.append(FlowEvent(flows, ts))
            chunks.append((ts // WINDOW, flows, list(route_log)))
    return events, chunks


def assert_window_parity(windows, chunks):
    """Per-window online labels == concatenated from-scratch labels."""
    online = {w.index: w for w in windows}
    expected = {}
    for window_index, flows, history in chunks:
        per_window = expected.setdefault(
            window_index, {"naive": [], "full": [], "n_flows": 0}
        )
        per_window["n_flows"] += len(flows)
        reference = reference_labels(base_routes() + history, flows)
        for name in ("naive", "full"):
            per_window[name].append(reference[name])
    for window_index, per_window in expected.items():
        window = online[window_index]
        assert window.n_flows == per_window["n_flows"]
        for name in ("naive", "full"):
            np.testing.assert_array_equal(
                window.result.label_vector(name),
                np.concatenate(per_window[name]),
                err_msg=f"window {window_index}, approach {name}",
            )


class TestFlowEvents:
    def test_window_aligned_chunks(self, rng):
        times = np.sort(rng.integers(0, 5 * WINDOW, size=300))
        rows = [
            (SRC_POOL[i % len(SRC_POOL)], ASNS[i % len(ASNS)])
            for i in range(300)
        ]
        table = flow_table(rows, times)
        events = list(
            flow_events(table, chunk_rows=48, window_seconds=WINDOW)
        )
        total = 0
        last_ts = None
        for event in events:
            assert len(event.flows) <= 48
            event_times = event.flows.time
            assert event.timestamp == int(event_times[0])
            assert (
                event_times // WINDOW == event_times[0] // WINDOW
            ).all(), "chunk straddles a window boundary"
            if last_ts is not None:
                assert event.timestamp >= last_ts
            last_ts = event.timestamp
            total += len(event.flows)
        assert total == 300

    def test_rejects_bad_parameters(self):
        table = flow_table([("60.0.5.5", 100)], 0)
        with pytest.raises(ValueError):
            list(flow_events(table, chunk_rows=0, window_seconds=WINDOW))
        with pytest.raises(ValueError):
            list(flow_events(table, chunk_rows=10, window_seconds=0))


class TestMergeStreams:
    def test_tie_breaks_in_stream_order(self):
        route = RouteEvent(obs("60.0.0.0/16", 20, 1, ts=50))
        flow = FlowEvent(flow_table([("60.0.5.5", 100)], 50), 50)
        merged = list(merge_event_streams(route_events([route.observation]), [flow]))
        assert isinstance(merged[0], RouteEvent)
        assert isinstance(merged[1], FlowEvent)

    def test_update_stream_filters_and_sorts_stably(self):
        dump = RouteObservation(
            Prefix.parse("60.0.0.0/16"), (20, 1), "rrc00", timestamp=5
        )
        first = obs("60.0.0.0/16", 20, 1, ts=9)
        second = obs("60.0.0.0/16", 20, 1, ts=9, withdrawal=True)
        early = obs("20.0.0.0/16", 10, 1, ts=2)
        assert update_stream([dump, first, second, early]) == [
            early, first, second,
        ]


class TestOnlineWindows:
    def test_randomized_window_parity_serial(self, rng):
        events, chunks = random_stream(rng)
        state = build_state(base_routes())
        online = OnlineClassifier(state, WINDOW, keep_labels=True)
        windows = list(online.run(events))
        assert sum(w.n_route_events for w in windows) == sum(
            1 for e in events if isinstance(e, RouteEvent)
        )
        assert_window_parity(windows, chunks)

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_randomized_window_parity_parallel(self, method, monkeypatch):
        monkeypatch.setenv("MP_START_METHOD", method)
        rng = np.random.default_rng(987)
        events, chunks = random_stream(rng, n_ticks=25)
        state = build_state(base_routes())
        online = OnlineClassifier(
            state, WINDOW, n_workers=2, policy=FAST_RETRY, keep_labels=True
        )
        windows = list(online.run(events))
        assert_window_parity(windows, chunks)

    def test_regressing_timestamp_raises(self):
        state = build_state(base_routes())
        online = OnlineClassifier(state, WINDOW, keep_labels=True)
        events = [
            FlowEvent(flow_table([("60.0.5.5", 100)], 150), 150),
            FlowEvent(flow_table([("60.0.5.5", 100)], 50), 50),
        ]
        with pytest.raises(ValueError, match="regressed"):
            list(online.run(events))

    def test_policy_defaults_to_retry_with_workers(self):
        state = build_state(base_routes())
        online = OnlineClassifier(state, WINDOW, n_workers=2)
        assert online.policy is not None
        assert online.policy.mode == "retry"
        serial = OnlineClassifier(state, WINDOW)
        assert serial.policy is None
        with pytest.raises(ValueError):
            OnlineClassifier(state, 0)

    def test_window_manifests_written(self, tmp_path, rng):
        events, chunks = random_stream(rng, n_ticks=30)
        state = build_state(base_routes())
        online = OnlineClassifier(
            state, WINDOW, keep_labels=True, manifest_dir=tmp_path
        )
        windows = list(online.run(events))
        files = sorted(tmp_path.glob("window_*.json"))
        assert len(files) == len(windows)
        for window, path in zip(windows, files):
            assert path.name == f"window_{window.index:06d}.json"
            data = json.loads(path.read_text())
            summary = data["window_summary"]
            assert summary["flows"] == window.n_flows
            assert summary["route_events"] == window.n_route_events
            assert summary["deltas_applied"] == window.n_deltas_applied
            assert summary["finalized_patched"] == window.n_patched
            assert data["command"] == "watch.window"


class TestVersionAwarePools:
    """Satellite: stale worker state on mid-stream matrix patches."""

    #: Adds member 200 to 60.0.0.0/16's paths without changing the
    #: observed AS set (200 already originates 20.0.0.0/16), so the
    #: finalized view is patched, not rebuilt.
    DELTA = ("60.0.0.0/16", (200, 1, 10, 100))

    def _rows(self):
        return [("60.0.5.5", 200)] * 6  # valid only after the delta

    def test_delta_flips_reference_labels(self):
        # The scenario has teeth: pre- and post-delta classifications
        # of the same rows genuinely differ.
        pre = reference_labels(base_routes(), flow_table(self._rows(), 0))
        post = reference_labels(
            base_routes() + [obs(self.DELTA[0], *self.DELTA[1])],
            flow_table(self._rows(), 0),
        )
        for name in ("naive", "full"):
            assert not (pre[name] == post[name]).all()

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_patch_between_chunks_visible_to_pool(
        self, method, monkeypatch
    ):
        monkeypatch.setenv("MP_START_METHOD", method)
        state = build_state(base_routes())
        flows_a = flow_table(self._rows(), 10)
        flows_b = flow_table(self._rows(), 20)

        def chunk_stream():
            yield flows_a
            delta = state.apply_route(obs(self.DELTA[0], *self.DELTA[1]))
            assert delta.finalize == "patched"
            yield flows_b

        stream = state.classifier.classify_stream(
            chunk_stream(), n_workers=2, keep_labels=True, policy=FAST_RETRY
        )
        pre = reference_labels(base_routes(), flows_a)
        post = reference_labels(
            base_routes() + [obs(self.DELTA[0], *self.DELTA[1])], flows_b
        )
        for name in ("naive", "full"):
            labels = stream.label_vector(name)
            np.testing.assert_array_equal(labels[:6], pre[name])
            np.testing.assert_array_equal(labels[6:], post[name])

    def test_patch_plus_worker_death_still_current(self):
        # Kill the worker handling the post-delta chunk: the rebuilt
        # pool must re-arm with the *patched* state, and the
        # resubmitted chunk must not see pre-delta matrices.
        state = build_state(base_routes())
        flows_a = flow_table(self._rows(), 10)
        flows_b = flow_table(self._rows(), 20)

        def chunk_stream():
            yield flows_a
            state.apply_route(obs(self.DELTA[0], *self.DELTA[1]))
            yield flows_b

        plan = FaultPlan((FaultSpec("die", 1),))
        policy = FailurePolicy(
            mode="retry", max_retries=1, chunk_timeout=1.5,
            backoff_base=0.01,
        )
        stream = state.classifier.classify_stream(
            chunk_stream(), n_workers=2, keep_labels=True, policy=policy,
            fault_injector=plan,
        )
        assert stream.complete
        post = reference_labels(
            base_routes() + [obs(self.DELTA[0], *self.DELTA[1])], flows_b
        )
        for name in ("naive", "full"):
            np.testing.assert_array_equal(
                stream.label_vector(name)[6:], post[name]
            )

    def test_state_version_counts_applied_only(self):
        state = build_state(base_routes())
        version = state.classifier.state_version
        state.apply_route(obs("99.0.0.0/16", 1, 2, withdrawal=True))
        assert state.classifier.state_version == version  # ignored
        state.apply_route(obs(self.DELTA[0], *self.DELTA[1]))
        assert state.classifier.state_version == version + 1


def quiet_windows(n_windows=4, chunks_per_window=2):
    """Flow-only events: ``n_windows`` windows, no route event."""
    events = []
    for window in range(n_windows):
        for k in range(chunks_per_window):
            ts = window * WINDOW + 10 * (k + 1)
            events.append(
                FlowEvent(
                    flow_table([("60.0.5.5", 200), ("20.0.0.9", 100)], ts),
                    ts,
                )
            )
    return events


def churning_windows(n_windows=4):
    """Each window moves the state version, then sends two chunks.

    Windows alternate between announcing and withdrawing a path that
    adds member 200 to 60.0.0.0/16, so every route event changes the
    path set (and the labels of the window's rows).
    """
    prefix, path = TestVersionAwarePools.DELTA
    events = []
    for window in range(n_windows):
        start = window * WINDOW
        events.append(
            RouteEvent(
                obs(prefix, *path, ts=start + 1, withdrawal=window % 2 == 1)
            )
        )
        for k in range(2):
            ts = start + 10 * (k + 1)
            events.append(
                FlowEvent(flow_table([("60.0.5.5", 200)] * 3, ts), ts)
            )
    return events


class TestOnePoolPerRun:
    """A watch run keeps one supervised pool across its windows."""

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_quiet_run_starts_one_pool(self, method, monkeypatch, clean_obs):
        monkeypatch.setenv("MP_START_METHOD", method)
        enable_tracing()
        state = build_state(base_routes())
        online = OnlineClassifier(
            state, WINDOW, n_workers=2, policy=FAST_RETRY, keep_labels=True
        )
        windows = list(online.run(quiet_windows()))
        assert len(windows) == 4
        assert current_metrics().counter("stream.pool_starts").value == 1
        starts = [
            r for r in current_tracer().drain()
            if r.name == "classify.pool_start"
        ]
        assert [r.attrs["reason"] for r in starts] == ["arm"]
        assert multiprocessing.active_children() == []
        serial = OnlineClassifier(build_state(base_routes()), WINDOW,
                                  keep_labels=True)
        for pooled, inline in zip(windows, serial.run(quiet_windows())):
            for name in ("naive", "full"):
                np.testing.assert_array_equal(
                    pooled.result.label_vector(name),
                    inline.result.label_vector(name),
                )

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_rearm_only_when_version_moves_before_a_chunk(
        self, method, monkeypatch, clean_obs
    ):
        # Each window's route event moves the version before its first
        # chunk. The first move comes before the pool exists, so the run
        # starts one pool for its first chunk plus one per later move.
        monkeypatch.setenv("MP_START_METHOD", method)
        n_windows = 4
        state = build_state(base_routes())
        version = state.classifier.state_version
        online = OnlineClassifier(
            state, WINDOW, n_workers=2, policy=FAST_RETRY, keep_labels=True
        )
        windows = list(online.run(churning_windows(n_windows)))
        assert [w.n_deltas_applied for w in windows] == [1] * n_windows
        assert state.classifier.state_version == version + n_windows
        moves_after_first_chunk = n_windows - 1
        assert (
            current_metrics().counter("stream.pool_starts").value
            == 1 + moves_after_first_chunk
        )
        assert multiprocessing.active_children() == []
        # Every window saw its own delta: labels alternate with it.
        serial = OnlineClassifier(
            build_state(base_routes()), WINDOW, keep_labels=True
        )
        for pooled, inline in zip(
            windows, serial.run(churning_windows(n_windows))
        ):
            for name in ("naive", "full"):
                np.testing.assert_array_equal(
                    pooled.result.label_vector(name),
                    inline.result.label_vector(name),
                )
        assert not np.array_equal(
            windows[0].result.label_vector("full"),
            windows[1].result.label_vector("full"),
        )

    def test_pool_lives_across_windows_until_close(self):
        state = build_state(base_routes())
        online = OnlineClassifier(state, WINDOW, n_workers=2)
        windows = online.run(quiet_windows())
        first = next(windows)
        assert first.n_flows == 4
        workers = multiprocessing.active_children()
        assert len(workers) == 2
        next(windows)
        assert multiprocessing.active_children() == workers
        windows.close()
        assert multiprocessing.active_children() == []

    def test_consumer_exception_between_windows_reaps_pool(self):
        state = build_state(base_routes())
        online = OnlineClassifier(state, WINDOW, n_workers=2)

        def consume():
            for _window in online.run(quiet_windows()):
                raise RuntimeError("consumer failed")

        with pytest.raises(RuntimeError, match="consumer failed") as info:
            consume()
        # The traceback keeps the consumer's frame alive; the run's
        # pool must be gone all the same.
        assert info.traceback
        assert multiprocessing.active_children() == []

    def test_abandoned_generator_reaped_on_collection(self):
        state = build_state(base_routes())
        online = OnlineClassifier(state, WINDOW, n_workers=2)
        windows = online.run(quiet_windows())
        next(windows)
        assert multiprocessing.active_children()
        del windows
        gc.collect()
        assert multiprocessing.active_children() == []

    def test_parent_stream_globals_untouched_between_windows(self):
        before = {
            name: getattr(classifier_mod, name)
            for name in classifier_mod._STREAM_GLOBALS
        }
        state = build_state(base_routes())
        online = OnlineClassifier(state, WINDOW, n_workers=2)
        seen = 0
        for _window in online.run(churning_windows()):
            seen += 1
            for name, value in before.items():
                assert getattr(classifier_mod, name) is value, name
        assert seen == 4
