"""Resilience layer: taxonomy, supervision, fault injection, quarantine.

The supervised streaming path must survive deterministic worker
crashes, hangs, hard deaths, and corrupted chunk payloads according to
its :class:`FailurePolicy` — and a recovered run must be bit-equal to
a fault-free one. Lenient ingest must load every good record of a
corrupted file and report every bad line number exactly.
"""

import multiprocessing
import os
import signal
import subprocess
import sys

import numpy as np
import pytest

import repro.core.classifier as classifier_mod
from repro.bgp.messages import RouteObservation
from repro.bgp.rib import GlobalRIB
from repro.cones.full_cone import FullConeValidSpace
from repro.cones.naive import NaiveValidSpace
from repro.core import FailurePolicy, SpoofingClassifier, TrafficClass
from repro.errors import (
    ClassificationError,
    DurabilityError,
    IngestError,
    Quarantine,
    ReproError,
    WorkerError,
)
from repro.experiments.runner import World, classify_world_stream
from repro.io import load_flows_csv, load_route_dump, save_flows_csv
from repro.ixp.flows import PROTO_TCP, FlowTable, TruthLabel
from repro.net.addr import addr_to_int
from repro.net.errors import AddressError, PrefixError
from repro.net.prefix import Prefix
from repro.stream import DurableWatch
from repro.testing import (
    DurabilityFaultPlan,
    DurabilityFaultSpec,
    FaultPlan,
    FaultSpec,
    InjectedCorruption,
    InjectedCrash,
    corrupt_file,
)
from repro.testing.recovery import (
    WINDOW_SECONDS,
    synthetic_events,
    synthetic_state,
)

#: Fast backoff/timeout knobs so fault tests stay sub-second-ish.
FAST_RETRY = FailurePolicy(
    mode="retry", max_retries=2, chunk_timeout=20.0, backoff_base=0.01
)


def obs(prefix, *path):
    return RouteObservation(Prefix.parse(prefix), tuple(path), "rrc00")


@pytest.fixture()
def toy():
    rib = GlobalRIB()
    rib.add(obs("60.0.0.0/16", 20, 1, 10, 100))
    rib.add(obs("20.0.0.0/16", 10, 1, 20, 200))
    classifier = SpoofingClassifier(
        rib, {"naive": NaiveValidSpace(rib), "full": FullConeValidSpace(rib)}
    )
    return rib, classifier


def flow_table(rows):
    """rows: list of (src_text, member)."""
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
        time=np.arange(n, dtype=np.int64),
        truth=np.full(n, int(TruthLabel.LEGIT), dtype=np.uint8),
    )


@pytest.fixture()
def eight_rows():
    return flow_table(
        [
            ("60.0.5.5", 100),
            ("20.0.0.9", 200),
            ("60.0.5.5", 200),  # invalid under full
            ("9.9.9.9", 100),  # unrouted
            ("10.1.2.3", 100),  # bogon
            ("60.0.7.7", 10),
            ("20.0.1.1", 9999),  # unknown member → invalid
            ("60.0.9.9", 100),
        ]
    )


class TestTaxonomy:
    def test_hierarchy(self):
        assert issubclass(IngestError, ReproError)
        assert issubclass(IngestError, ValueError)
        assert issubclass(WorkerError, ClassificationError)
        assert issubclass(ClassificationError, ReproError)

    def test_net_errors_rebased(self):
        assert issubclass(AddressError, ReproError)
        assert issubclass(AddressError, ValueError)
        assert issubclass(PrefixError, ReproError)
        with pytest.raises(ReproError):
            addr_to_int("300.1.2.3")

    def test_structured_context(self):
        err = WorkerError("boom", chunk_index=7, attempts=3)
        assert err.chunk_index == 7
        assert err.attempts == 3
        assert "chunk_index=7" in str(err)
        ingest = IngestError("bad row", path="x.csv", line_number=12)
        assert ingest.line_number == 12
        assert ingest.path == "x.csv"

    def test_none_context_dropped(self):
        err = ClassificationError("x", chunk_index=None)
        assert "chunk_index" not in err.context


class TestFailurePolicy:
    def test_coerce(self):
        assert FailurePolicy.coerce(None) is None
        policy = FailurePolicy.coerce("degrade")
        assert policy.mode == "degrade"
        assert FailurePolicy.coerce(policy) is policy
        with pytest.raises(TypeError):
            FailurePolicy.coerce(42)

    def test_validation(self):
        with pytest.raises(ValueError):
            FailurePolicy(mode="explode")
        with pytest.raises(ValueError):
            FailurePolicy(max_retries=-1)
        with pytest.raises(ValueError):
            FailurePolicy(chunk_timeout=0)

    def test_backoff_grows(self):
        policy = FailurePolicy(backoff_base=0.1, backoff_factor=2.0)
        assert policy.backoff(1) == pytest.approx(0.1)
        assert policy.backoff(2) == pytest.approx(0.2)
        assert policy.backoff(3) == pytest.approx(0.4)


class TestFaultPlan:
    def test_positional_matching(self):
        plan = FaultPlan((FaultSpec("crash", 1, attempt=1),))
        plan(0, 1, True)  # other chunk: no fault
        plan(1, 2, True)  # other attempt: no fault
        plan(1, 1, False)  # worker-scoped: inline is clean
        with pytest.raises(InjectedCrash):
            plan(1, 1, True)

    def test_attempt_zero_matches_all(self):
        plan = FaultPlan((FaultSpec("corrupt", 2, attempt=0, scope="any"),))
        for attempt in (1, 2, 5):
            with pytest.raises(InjectedCorruption):
                plan(2, attempt, False)

    def test_from_rates_deterministic(self):
        a = FaultPlan.from_rates(7, 50, crash_rate=0.2, corrupt_rate=0.1)
        b = FaultPlan.from_rates(7, 50, crash_rate=0.2, corrupt_rate=0.1)
        assert a == b
        c = FaultPlan.from_rates(8, 50, crash_rate=0.2, corrupt_rate=0.1)
        assert a != c
        assert any(f.kind == "crash" for f in a.faults)

    def test_rejects_bad_spec(self):
        with pytest.raises(ValueError):
            FaultSpec("meltdown", 0)
        with pytest.raises(ValueError):
            FaultSpec("crash", 0, scope="everywhere")

    def test_fault_log_written(self, tmp_path):
        log = tmp_path / "faults.log"
        plan = FaultPlan((FaultSpec("crash", 3),), log_path=str(log))
        with pytest.raises(InjectedCrash):
            plan(3, 1, True)
        text = log.read_text()
        assert "chunk=3" in text and "kind=crash" in text


class TestSerialPolicies:
    def test_degrade_drops_bad_chunk(self, toy, eight_rows):
        _rib, classifier = toy
        plan = FaultPlan((FaultSpec("corrupt", 1, attempt=0, scope="any"),))
        stream = classifier.classify_stream(
            eight_rows, chunk_rows=2, policy="degrade", fault_injector=plan
        )
        assert stream.n_flows == 6
        assert stream.failures.rows_dropped == 2
        assert stream.failures.chunks_dropped == 1
        assert not stream.complete
        assert stream.counters()["rows_dropped"] == 2
        assert "PARTIAL" in repr(stream)

    def test_fail_fast_raises_structured(self, toy, eight_rows):
        _rib, classifier = toy
        plan = FaultPlan((FaultSpec("corrupt", 2, attempt=0, scope="any"),))
        with pytest.raises(ClassificationError) as excinfo:
            classifier.classify_stream(
                eight_rows, chunk_rows=2, policy="fail_fast",
                fault_injector=plan,
            )
        assert excinfo.value.chunk_index == 2

    def test_no_policy_means_fail_fast(self, toy, eight_rows):
        _rib, classifier = toy
        plan = FaultPlan((FaultSpec("corrupt", 0, attempt=0, scope="any"),))
        with pytest.raises(ClassificationError) as excinfo:
            classifier.classify_stream(
                eight_rows, chunk_rows=2, fault_injector=plan
            )
        assert excinfo.value.chunk_index == 0
        assert isinstance(excinfo.value.__cause__, InjectedCorruption)


class TestSupervisedParallel:
    def test_crash_with_retry_bit_equal(self, toy, eight_rows):
        _rib, classifier = toy
        clean = classifier.classify_stream(
            eight_rows, chunk_rows=2, keep_labels=True
        )
        plan = FaultPlan((FaultSpec("crash", 1),))
        stream = classifier.classify_stream(
            eight_rows, chunk_rows=2, n_workers=2, keep_labels=True,
            policy=FAST_RETRY, fault_injector=plan,
        )
        assert stream.n_flows == len(eight_rows)
        assert stream.failures, "failures record must be non-empty"
        assert stream.failures.chunks_retried == 1
        assert stream.complete
        for name in classifier.approach_names:
            assert (
                stream.label_vector(name) == clean.label_vector(name)
            ).all(), name
            for cls in TrafficClass:
                assert stream.class_counts(name)[cls] == clean.class_counts(
                    name
                )[cls]

    def test_fail_fast_raises_worker_error_naming_chunk(
        self, toy, eight_rows
    ):
        _rib, classifier = toy
        plan = FaultPlan((FaultSpec("crash", 2),))
        with pytest.raises(WorkerError) as excinfo:
            classifier.classify_stream(
                eight_rows, chunk_rows=2, n_workers=2,
                policy=FailurePolicy("fail_fast", chunk_timeout=20.0),
                fault_injector=plan,
            )
        assert excinfo.value.chunk_index == 2
        assert "chunk 2" in str(excinfo.value)

    def test_hung_worker_reclaimed_within_timeout(self, toy, eight_rows):
        _rib, classifier = toy
        clean = classifier.classify_stream(
            eight_rows, chunk_rows=2, keep_labels=True
        )
        plan = FaultPlan((FaultSpec("hang", 1, hang_seconds=120.0),))
        policy = FailurePolicy(
            mode="retry", max_retries=1, chunk_timeout=1.0, backoff_base=0.01
        )
        stream = classifier.classify_stream(
            eight_rows, chunk_rows=2, n_workers=2, keep_labels=True,
            policy=policy, fault_injector=plan,
        )
        # Had the hang blocked pool.imap, this test would never return;
        # the 120 s sleep vs the 1 s deadline is the proof of reclaim.
        assert stream.failures.chunks_retried == 1
        assert stream.complete
        for name in classifier.approach_names:
            assert (
                stream.label_vector(name) == clean.label_vector(name)
            ).all(), name

    def test_dead_worker_reclaimed(self, toy, eight_rows):
        _rib, classifier = toy
        clean = classifier.classify_stream(
            eight_rows, chunk_rows=2, keep_labels=True
        )
        plan = FaultPlan((FaultSpec("die", 1),))
        policy = FailurePolicy(
            mode="retry", max_retries=1, chunk_timeout=1.5, backoff_base=0.01
        )
        stream = classifier.classify_stream(
            eight_rows, chunk_rows=2, n_workers=2, keep_labels=True,
            policy=policy, fault_injector=plan,
        )
        assert stream.failures
        assert stream.complete
        for name in classifier.approach_names:
            assert (
                stream.label_vector(name) == clean.label_vector(name)
            ).all(), name

    def test_retry_exhaustion_falls_back_in_process(self, toy, eight_rows):
        _rib, classifier = toy
        clean = classifier.classify_stream(
            eight_rows, chunk_rows=2, keep_labels=True
        )
        # Crash on every worker attempt; only the inline fallback works.
        plan = FaultPlan((FaultSpec("crash", 1, attempt=0, scope="worker"),))
        stream = classifier.classify_stream(
            eight_rows, chunk_rows=2, n_workers=2, keep_labels=True,
            policy=FAST_RETRY, fault_injector=plan,
        )
        assert stream.failures.chunks_degraded == 1
        assert stream.complete
        for name in classifier.approach_names:
            assert (
                stream.label_vector(name) == clean.label_vector(name)
            ).all(), name

    def test_corrupt_chunk_degrades_to_dropped_rows(self, toy, eight_rows):
        _rib, classifier = toy
        plan = FaultPlan((FaultSpec("corrupt", 0, attempt=0, scope="any"),))
        stream = classifier.classify_stream(
            eight_rows, chunk_rows=2, n_workers=2, keep_labels=True,
            policy=FailurePolicy("degrade", chunk_timeout=20.0),
            fault_injector=plan,
        )
        assert stream.n_flows == 6
        assert stream.failures.rows_dropped == 2
        assert not stream.complete
        assert "PARTIAL" in repr(stream)
        # The surviving labels still line up with the clean tail.
        clean = classifier.classify_stream(
            eight_rows.select(slice(2, None)), chunk_rows=2, keep_labels=True
        )
        for name in classifier.approach_names:
            assert (
                stream.label_vector(name) == clean.label_vector(name)
            ).all(), name

    def test_corrupt_chunk_under_retry_raises(self, toy, eight_rows):
        _rib, classifier = toy
        plan = FaultPlan((FaultSpec("corrupt", 1, attempt=0, scope="any"),))
        with pytest.raises(WorkerError) as excinfo:
            classifier.classify_stream(
                eight_rows, chunk_rows=2, n_workers=2,
                policy=FAST_RETRY, fault_injector=plan,
            )
        assert excinfo.value.chunk_index == 1

    def test_seeded_crash_storm_recovers(self, toy):
        _rib, classifier = toy
        table = flow_table([("60.0.5.5", 100), ("20.0.0.9", 200)] * 16)
        clean = classifier.classify_stream(
            table, chunk_rows=2, keep_labels=True
        )
        plan = FaultPlan.from_rates(11, 16, crash_rate=0.3)
        assert any(f.kind == "crash" for f in plan.faults)
        stream = classifier.classify_stream(
            table, chunk_rows=2, n_workers=2, keep_labels=True,
            policy=FAST_RETRY, fault_injector=plan,
        )
        assert stream.failures.chunks_retried == sum(
            1 for f in plan.faults if f.kind == "crash"
        )
        assert stream.complete
        for name in classifier.approach_names:
            assert (
                stream.label_vector(name) == clean.label_vector(name)
            ).all(), name

    def test_globals_restored_after_runs(self, toy, eight_rows):
        _rib, classifier = toy
        before = (
            classifier_mod._STREAM_CLASSIFIER,
            classifier_mod._STREAM_TABLE,
            classifier_mod._STREAM_INJECTOR,
        )
        classifier.classify_stream(eight_rows, chunk_rows=2, n_workers=2)
        classifier.classify_stream(
            eight_rows, chunk_rows=2, n_workers=2, policy=FAST_RETRY
        )
        after = (
            classifier_mod._STREAM_CLASSIFIER,
            classifier_mod._STREAM_TABLE,
            classifier_mod._STREAM_INJECTOR,
        )
        assert after == before

    def test_supervised_chunk_iterable(self, toy, eight_rows):
        _rib, classifier = toy
        clean = classifier.classify_stream(
            eight_rows, chunk_rows=2, keep_labels=True
        )
        plan = FaultPlan((FaultSpec("crash", 2),))
        stream = classifier.classify_stream(
            eight_rows.iter_chunks(2), n_workers=2, keep_labels=True,
            policy=FAST_RETRY, fault_injector=plan,
        )
        assert stream.failures.chunks_retried == 1
        for name in classifier.approach_names:
            assert (
                stream.label_vector(name) == clean.label_vector(name)
            ).all(), name


#: The child side of ``test_no_process_outlives_the_interpreter``: a
#: whole table (row ranges) and a chunk iterable (pickled chunks), a
#: ``retry`` run whose hung worker forces a pool rebuild, an in-memory
#: watch cut by ``islice`` and ``close()``, a watch whose route events
#: re-arm its pool, and a durable watch that is cut, recovered and
#: resumed.
_OUTLIVE_CHILD = """
import itertools
import multiprocessing.resource_tracker as resource_tracker
import tempfile

from repro.core import FailurePolicy
from repro.experiments import WorldConfig, build_world
from repro.obs.metrics import current_metrics
from repro.stream import (
    DurableWatch, OnlineClassifier, OnlineValidState, flow_events, recover,
)
from repro.testing import FaultPlan, FaultSpec
from repro.testing.recovery import (
    WINDOW_SECONDS, synthetic_events, synthetic_state,
)

world = build_world(WorldConfig.tiny())
classifier, flows = world.classifier, world.scenario.flows
assert classifier.classify_stream(
    flows, n_workers=2, chunk_rows=4096
).n_flows == len(flows)
assert classifier.classify_stream(
    flows.iter_chunks(4096), n_workers=2
).n_flows == len(flows)
hung = classifier.classify_stream(
    flows, n_workers=2, chunk_rows=4096,
    policy=FailurePolicy(
        mode="retry", max_retries=1, chunk_timeout=1.0, backoff_base=0.01
    ),
    fault_injector=FaultPlan((FaultSpec("hang", 1),)),
)
assert hung.failures.chunks_retried == 1 and hung.complete

day = 86_400
events = list(flow_events(flows, chunk_rows=2048, window_seconds=day))
online = OnlineClassifier(
    OnlineValidState(world.rib, world.approaches), day, n_workers=2
)
windows = online.run(iter(events))
assert len(list(itertools.islice(windows, 3))) == 3
windows.close()

starts = current_metrics().counter("stream.pool_starts")
before = starts.value
churn = OnlineClassifier(synthetic_state(), WINDOW_SECONDS, n_workers=2)
assert sum(w.n_deltas_applied for w in churn.run(synthetic_events(23, 80)))
assert starts.value - before > 1  # the run re-armed its pool

with tempfile.TemporaryDirectory() as directory:
    def watch(state, resume=None):
        return DurableWatch(
            state, day, checkpoint_dir=directory, checkpoint_every=2,
            n_workers=2, policy="fail_fast", resume=resume,
        )

    windows = watch(OnlineValidState(world.rib, world.approaches)).run(
        iter(events)
    )
    for count, _window in enumerate(windows, 1):
        if count == 5:
            break
    windows.close()
    point = recover(directory)
    assert point.checkpoint is not None
    assert list(watch(point.checkpoint.state, point).run(iter(events)))

# A private attribute, read on purpose: the tracker's pid is set when
# the tracker process starts and the public API offers no other way to
# ask whether it has.
assert resource_tracker._resource_tracker._pid is None
"""


#: The child side of ``test_parent_sigterm_handler_does_not_hang_teardown``:
#: watch runs that re-arm their fork pools while the parent has a
#: SIGTERM handler that only flags a drain, as ``repro watch`` installs.
#: Whether one terminate hangs depends on where its workers are blocked,
#: so the child tears pools down many times: without the fix each of
#: five tries hung.
_SIGTERM_CHILD = """
import signal

from repro.stream import OnlineClassifier
from repro.testing.recovery import (
    WINDOW_SECONDS, synthetic_events, synthetic_state,
)

signal.signal(signal.SIGTERM, lambda _signum, _frame: None)
for _ in range(10):
    online = OnlineClassifier(synthetic_state(), WINDOW_SECONDS, n_workers=2)
    assert sum(w.n_deltas_applied for w in online.run(synthetic_events(23, 40)))
"""


def _run_session_child(code: str, timeout: float) -> tuple[int, int, str]:
    """Run ``code`` under fork in a child interpreter leading its own
    session; kill the whole session if it outlives ``timeout``.

    Returns the child's pid (its session id), exit status and output.
    """
    src = os.path.dirname(os.path.dirname(classifier_mod.__file__))
    env = dict(os.environ, MP_START_METHOD="fork")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.dirname(src), env.get("PYTHONPATH")) if p
    )
    child = subprocess.Popen(
        [sys.executable, "-c", code],
        env=env,
        start_new_session=True,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        output, _ = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        output, _ = child.communicate()
        pytest.fail(f"child did not finish within {timeout}s:\n{output}")
    return child.pid, child.returncode, output


def _session_processes(session: int) -> list[str]:
    """``/proc/<pid>/stat`` lines of live processes in ``session``.

    Zombies are skipped: they have already exited and only wait for
    their new parent to reap them.
    """
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue  # exited while we looked
        fields = stat[stat.rindex(")") + 2:].split()
        if fields[0] != "Z" and int(fields[3]) == session:
            found.append(stat.strip())
    return found


class TestNoWorkerOutlivesStream:
    """Every pool process is reaped before ``classify_stream`` returns."""

    def test_clean_run(self, toy, eight_rows):
        _rib, classifier = toy
        stream = classifier.classify_stream(
            eight_rows, chunk_rows=2, n_workers=2
        )
        assert stream.n_flows == len(eight_rows)
        assert multiprocessing.active_children() == []

    def test_fail_fast_worker_error(self, toy, eight_rows):
        _rib, classifier = toy
        plan = FaultPlan((FaultSpec("crash", 1),))
        with pytest.raises(WorkerError):
            classifier.classify_stream(
                eight_rows, chunk_rows=2, n_workers=2, policy="fail_fast",
                fault_injector=plan,
            )
        assert multiprocessing.active_children() == []

    def test_dead_worker_reclaimed_under_retry(self, toy, eight_rows):
        _rib, classifier = toy
        plan = FaultPlan((FaultSpec("die", 1),))
        policy = FailurePolicy(
            mode="retry", max_retries=1, chunk_timeout=1.5, backoff_base=0.01
        )
        stream = classifier.classify_stream(
            eight_rows, chunk_rows=2, n_workers=2, policy=policy,
            fault_injector=plan,
        )
        assert stream.failures and stream.complete
        assert multiprocessing.active_children() == []

    def test_durable_watch_closed_mid_run(self, tmp_path):
        watch = DurableWatch(
            synthetic_state(), WINDOW_SECONDS, checkpoint_dir=tmp_path,
            n_workers=2, policy=FAST_RETRY,
        )
        windows = watch.run(iter(synthetic_events(23, 80)))
        next(windows)
        next(windows)
        assert multiprocessing.active_children()
        windows.close()
        assert multiprocessing.active_children() == []

    def test_durable_watch_consumer_exception(self, tmp_path):
        watch = DurableWatch(
            synthetic_state(), WINDOW_SECONDS, checkpoint_dir=tmp_path,
            n_workers=2, policy=FAST_RETRY,
        )

        def consume():
            for count, _window in enumerate(
                watch.run(iter(synthetic_events(23, 80))), 1
            ):
                if count == 2:
                    raise RuntimeError("consumer failed")

        with pytest.raises(RuntimeError, match="consumer failed"):
            consume()
        assert multiprocessing.active_children() == []

    def test_durable_watch_error_inside_run(self, tmp_path):
        # The DurabilityError's traceback holds the daemon's frame, and
        # with it the window generator: only the explicit close in the
        # daemon's finally reaps the pool while the error is alive.
        plan = DurabilityFaultPlan(
            (DurabilityFaultSpec("disk_full", "checkpoint_begin", 0),)
        )
        watch = DurableWatch(
            synthetic_state(), WINDOW_SECONDS, checkpoint_dir=tmp_path,
            n_workers=2, policy=FailurePolicy(mode="fail_fast"),
            fault_hook=plan,
        )
        with pytest.raises(DurabilityError) as info:
            list(watch.run(iter(synthetic_events(23, 60))))
        assert info.value.__traceback__ is not None
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods()
        or not os.path.isdir("/proc/self"),
        reason="needs the fork start method and /proc",
    )
    def test_no_process_outlives_the_interpreter(self):
        """Run every parallel path in a child interpreter that leads its
        own session, then look for anything left in that session.

        ``active_children()`` only sees pool workers the parent still
        knows about; a helper such as CPython's resource tracker is
        started outside that bookkeeping and can outlive the
        interpreter. Fork is forced: under spawn CPython starts the
        tracker for every pool semaphore, and it then outlives the
        interpreter in some runs, so only fork can assert it never
        starts.
        """
        session, code, output = _run_session_child(_OUTLIVE_CHILD, timeout=300)
        assert code == 0, output
        assert _session_processes(session) == []

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods()
        or not os.path.isdir("/proc/self"),
        reason="needs the fork start method and /proc",
    )
    def test_parent_sigterm_handler_does_not_hang_teardown(self):
        """Fork workers inherit the parent's signal handlers, and
        ``Pool.terminate()`` stops them with SIGTERM: a handler that
        does not exit would leave ``terminate()`` waiting forever."""
        _session, code, output = _run_session_child(_SIGTERM_CHILD, timeout=120)
        assert code == 0, output


class TestWorldIntegration:
    def test_world_optional_fields(self, bgp_only_world):
        assert bgp_only_world.scenario is None
        assert bgp_only_world.result is None
        fields = {
            f.name: f for f in World.__dataclass_fields__.values()
        }
        assert fields["scenario"].default is None
        assert fields["result"].default is None

    def test_classify_world_stream_policy(self, tiny_world):
        stream = classify_world_stream(
            tiny_world, n_workers=2, chunk_rows=2000, policy="retry"
        )
        assert stream.n_flows == len(tiny_world.scenario.flows)
        assert stream.complete
        assert not stream.failures

    def test_classify_world_stream_requires_traffic(self, bgp_only_world):
        with pytest.raises(ValueError):
            classify_world_stream(bgp_only_world)


class TestIngestFaults:
    def test_corrupt_file_deterministic(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("\n".join(f"line-{i:03d}-payload" for i in range(30)) + "\n")
        hit_a = corrupt_file(path, rate=0.2, seed=5)
        path.write_text("\n".join(f"line-{i:03d}-payload" for i in range(30)) + "\n")
        hit_b = corrupt_file(path, rate=0.2, seed=5)
        assert hit_a == hit_b
        assert hit_a, "seeded corruption should hit at least one line"

    def test_corrupted_csv_quarantine_roundtrip(self, toy, tmp_path):
        _rib, classifier = toy
        table = flow_table(
            [("60.0.5.5", 100), ("20.0.0.9", 200)] * 10
        )
        path = tmp_path / "flows.csv"
        save_flows_csv(table, path)
        corrupted = corrupt_file(
            path, positions=(3, 8), rate=0.15, seed=3, mode="truncate"
        )
        quarantine = Quarantine(source=str(path))
        flows = load_flows_csv(
            path, on_error="quarantine", quarantine=quarantine
        )
        assert quarantine.line_numbers == corrupted
        assert len(flows) == 20 - len(corrupted)
        # The surviving rows classify cleanly.
        result = classifier.classify(flows)
        assert result.label_vector("full").size == len(flows)


class TestCLIClassify:
    def test_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["classify", "flows.csv"])
        assert args.policy is None
        assert args.on_error == "raise"
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["classify", "flows.csv", "--policy", "explode"]
            )

    @pytest.mark.parametrize("command", (["classify", "flows.csv"], ["watch"]))
    @pytest.mark.parametrize("value", ("0", "-3"))
    def test_chunk_rows_must_be_positive(self, command, value, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([*command, "--chunk-rows", value])
        assert excinfo.value.code == 2
        assert "--chunk-rows" in capsys.readouterr().err

    def test_classify_quarantined_csv(self, tiny_world, tmp_path, capsys):
        from repro.cli import main

        flows = tiny_world.scenario.flows.select(np.arange(50))
        path = tmp_path / "flows.csv"
        save_flows_csv(flows, path)
        corrupted = corrupt_file(path, positions=(4, 9), mode="truncate")
        code = main(
            [
                "classify", str(path), "--preset", "tiny",
                "--on-error", "quarantine", "--policy", "degrade",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert f"classified {50 - len(corrupted)} flows" in captured.out
        assert "quarantined 2 record(s)" in captured.err
        assert "line 4" in captured.err and "line 9" in captured.err

    def _undecodable_csv(self, tiny_world, tmp_path):
        path = tmp_path / "flows.csv"
        save_flows_csv(tiny_world.scenario.flows.select(np.arange(20)), path)
        lines = path.read_bytes().split(b"\n")
        lines[3] = lines[3][:2] + b"\xff" + lines[3][2:]
        path.write_bytes(b"\n".join(lines))
        return path

    def test_classify_quarantines_undecodable_row(
        self, tiny_world, tmp_path, capsys
    ):
        from repro.cli import main

        path = self._undecodable_csv(tiny_world, tmp_path)
        code = main(
            ["classify", str(path), "--preset", "tiny",
             "--on-error", "quarantine"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "classified 19 flows" in captured.out
        assert "quarantined 1 record(s)" in captured.err
        assert "line 4" in captured.err

    def test_classify_strict_undecodable_fails_with_manifest(
        self, tiny_world, tmp_path, capsys
    ):
        from repro.cli import main
        from repro.obs import RunManifest

        path = self._undecodable_csv(tiny_world, tmp_path)
        manifest = tmp_path / "m.json"
        code = main(
            ["classify", str(path), "--preset", "tiny",
             "--manifest-out", str(manifest)]
        )
        assert code == 2
        assert "cannot load" in capsys.readouterr().err
        outcome = RunManifest.load(manifest).to_dict()["outcome"]
        assert outcome == {"exit_code": 2, "complete": False}

    def test_classify_strict_csv_fails(self, tiny_world, tmp_path, capsys):
        from repro.cli import main

        flows = tiny_world.scenario.flows.select(np.arange(10))
        path = tmp_path / "flows.csv"
        save_flows_csv(flows, path)
        corrupt_file(path, positions=(5,), mode="truncate")
        assert main(["classify", str(path), "--preset", "tiny"]) == 2
        assert "cannot load" in capsys.readouterr().err


@pytest.mark.skipif(
    os.environ.get("MP_START_METHOD", "") not in ("", "fork", "spawn"),
    reason="unknown start method override",
)
class TestStartMethodOverride:
    def test_env_override_respected(self, toy, eight_rows, monkeypatch):
        _rib, classifier = toy
        method = os.environ.get("MP_START_METHOD") or "fork"
        monkeypatch.setenv("MP_START_METHOD", method)
        stream = classifier.classify_stream(
            eight_rows, chunk_rows=2, n_workers=2, policy=FAST_RETRY
        )
        assert stream.n_flows == len(eight_rows)
        assert stream.complete
