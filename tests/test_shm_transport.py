"""Zero-copy shared-memory transport: parity, faults, leak audit.

The shm ring must be invisible in the results — byte-identical labels
and counters versus the pickle transport — while surviving corrupted
slot headers, dead workers holding ring slots, and injected unlink
leaks without ever abandoning a ``/dev/shm`` segment. The suite runs
under whichever multiprocessing start method ``MP_START_METHOD``
selects; CI's resilience matrix exercises both ``fork`` and ``spawn``.
"""

import os

import numpy as np
import pytest

from repro.bgp.messages import RouteObservation
from repro.bgp.rib import GlobalRIB
from repro.cones.full_cone import FullConeValidSpace
from repro.cones.naive import NaiveValidSpace
from repro.core import FailurePolicy, SpoofingClassifier, TrafficClass
from repro.core.shmring import (
    FlowRing,
    WorkerRing,
    corrupt_staged_header,
    stage_read,
)
from repro.errors import TransportError
from repro.ixp.flows import PROTO_TCP, FlowTable, TruthLabel
from repro.net.addr import addr_to_int
from repro.net.prefix import Prefix
from repro.obs import current_metrics
from repro.testing import FaultPlan, FaultSpec
from repro.util import (
    cleanup_leaked,
    create_segment,
    inject_unlink_leak,
    leaked_segments,
    release_segment,
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


#: (src, member) choices spanning every class under the toy RIB.
CHOICES = (
    ("60.0.5.5", 100),
    ("20.0.0.9", 200),
    ("60.0.5.5", 200),  # invalid under full
    ("9.9.9.9", 100),  # unrouted
    ("10.1.2.3", 100),  # bogon
    ("60.0.7.7", 10),
    ("20.0.1.1", 9999),  # unknown member → invalid
)


def random_table(n, seed=7):
    rng = np.random.default_rng(seed)
    pick = rng.integers(0, len(CHOICES), n)
    return FlowTable(
        src=np.array(
            [addr_to_int(CHOICES[i][0]) for i in pick], dtype=np.uint64
        ),
        dst=np.full(n, addr_to_int("20.0.0.1"), dtype=np.uint64),
        proto=np.full(n, PROTO_TCP),
        src_port=np.full(n, 1000),
        dst_port=np.full(n, 80),
        packets=np.full(n, 2),
        bytes=np.full(n, 120),
        member=np.array([CHOICES[i][1] for i in pick], dtype=np.int64),
        dst_member=np.full(n, 20, dtype=np.int64),
        time=np.arange(n, dtype=np.int64),
        truth=np.full(n, int(TruthLabel.LEGIT), dtype=np.uint8),
    )


def _shm_segments():
    """POSIX shared-memory segment names currently in /dev/shm.

    Only ``psm_*`` entries count: pool-internal ``sem.mp-*``
    semaphores come and go with the multiprocessing context's own
    lifecycle (the resource tracker reclaims them lazily under
    spawn) and are not this transport's to audit.
    """
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-Linux
        return set()
    return {
        name for name in os.listdir("/dev/shm") if name.startswith("psm_")
    }


@pytest.fixture()
def dev_shm_clean():
    """Assert the run leaves no shared-memory segment behind."""
    before = _shm_segments()
    yield
    after = _shm_segments()
    assert after == before, f"leaked segments: {sorted(after - before)}"


def assert_parity(classifier, reference, result):
    for name in classifier.approach_names:
        assert (
            result.label_vector(name) == reference.label_vector(name)
        ).all(), name
        for cls in TrafficClass:
            assert (
                result.class_counts(name)[cls]
                == reference.class_counts(name)[cls]
            )


class TestFlowRing:
    def test_write_read_roundtrip_bit_equal(self, dev_shm_clean):
        table = random_table(100)
        ring = FlowRing.create(slots=2, capacity=128)
        try:
            worker = WorkerRing.attach(ring.spec)
            slot = ring.acquire(timeout=1.0)
            generation = ring.write(slot, table, chunk_index=0)
            chunk = worker.read(slot, generation, len(table), 0)
            for name in (
                "src", "dst", "proto", "src_port", "dst_port",
                "packets", "bytes", "member", "dst_member", "time",
                "truth",
            ):
                assert (
                    getattr(chunk, name) == getattr(table, name)
                ).all(), name
            ring.release(slot)
            del chunk  # zero-copy views must drop before the unmap
            worker.detach()
        finally:
            ring.destroy()

    def test_detach_closes_mapping_but_parent_survives(self, dev_shm_clean):
        # detach() must drop every zero-copy view and close only the
        # worker-side mapping: the parent keeps writing, and a fresh
        # attachment over the same spec reads the new data.
        table = random_table(16)
        ring = FlowRing.create(slots=1, capacity=32)
        try:
            worker = WorkerRing.attach(ring.spec)
            slot = ring.acquire(timeout=1.0)
            generation = ring.write(slot, table, chunk_index=0)
            chunk = worker.read(slot, generation, len(table), 0)
            assert (chunk.src == table.src).all()
            del chunk
            worker.detach()

            ring.release(slot)
            other = random_table(16, seed=11)
            slot = ring.acquire(timeout=1.0)
            generation = ring.write(slot, other, chunk_index=1)
            rejoined = WorkerRing.attach(ring.spec)
            chunk = rejoined.read(slot, generation, len(other), 1)
            assert (chunk.src == other.src).all()
            del chunk
            rejoined.detach()
        finally:
            ring.destroy()

    def test_generation_mismatch_raises_transport_error(self, dev_shm_clean):
        table = random_table(10)
        ring = FlowRing.create(slots=1, capacity=16)
        try:
            worker = WorkerRing.attach(ring.spec)
            slot = ring.acquire(timeout=1.0)
            generation = ring.write(slot, table, chunk_index=0)
            with pytest.raises(TransportError):
                worker.read(slot, generation + 1, len(table), 0)
            worker.detach()
        finally:
            ring.destroy()

    def test_oversize_chunk_raises_transport_error(self, dev_shm_clean):
        ring = FlowRing.create(slots=1, capacity=8)
        try:
            slot = ring.acquire(timeout=1.0)
            with pytest.raises(TransportError):
                ring.write(slot, random_table(9), chunk_index=0)
        finally:
            ring.destroy()

    def test_acquire_timeout_is_loud(self, dev_shm_clean):
        ring = FlowRing.create(slots=1, capacity=8)
        try:
            ring.acquire(timeout=1.0)
            with pytest.raises(TransportError):
                ring.acquire(timeout=0.05)
        finally:
            ring.destroy()

    def test_header_corruption_detected_and_repairable(self, dev_shm_clean):
        # The slot_corrupt fault's exact mechanics, in-process: a
        # corrupted header fails the integrity check, the parent's
        # refresh_header() restores it, and the retry reads clean.
        table = random_table(20)
        ring = FlowRing.create(slots=1, capacity=32)
        try:
            worker = WorkerRing.attach(ring.spec)
            slot = ring.acquire(timeout=1.0)
            generation = ring.write(slot, table, chunk_index=3)
            stage_read(worker, slot)
            assert corrupt_staged_header()
            with pytest.raises(TransportError):
                worker.read(slot, generation, len(table), 3)
            ring.refresh_header(slot)
            chunk = worker.read(slot, ring.generation(slot), len(table), 3)
            assert (chunk.src == table.src).all()
            del chunk
            worker.detach()
        finally:
            ring.destroy()


class TestShmParity:
    def test_default_policy_bit_equal_to_pickle(self, toy, dev_shm_clean):
        _rib, classifier = toy
        table = random_table(600)
        pickled = classifier.classify_stream(
            table, n_workers=2, chunk_rows=128, keep_labels=True
        )
        shm = classifier.classify_stream(
            table, n_workers=2, chunk_rows=128, keep_labels=True,
            transport="shm",
        )
        assert_parity(classifier, pickled, shm)
        assert shm.n_flows == 600

    def test_supervised_bit_equal_to_pickle(self, toy, dev_shm_clean):
        _rib, classifier = toy
        table = random_table(600)
        pickled = classifier.classify_stream(
            table, chunk_rows=128, keep_labels=True
        )
        shm = classifier.classify_stream(
            table, n_workers=2, chunk_rows=128, keep_labels=True,
            transport="shm", policy=FAST_RETRY,
        )
        assert_parity(classifier, pickled, shm)
        assert shm.complete

    def test_oversize_chunk_falls_back_to_pickle(self, toy, dev_shm_clean):
        # Pre-chunked input larger than the ring capacity must take
        # the pickle fallback lane, not fail — and still agree with a
        # pure-pickle run over the same chunks.
        _rib, classifier = toy
        table = random_table(400)
        rows = np.arange(400)
        chunks = [
            table.select(rows[:100]),
            table.select(rows[100:350]),
            table.select(rows[350:]),
        ]
        current_metrics().clear()
        shm = classifier.classify_stream(
            iter(chunks), n_workers=2, chunk_rows=128, transport="shm"
        )
        assert (
            current_metrics().counter("shm.fallback_chunks").value >= 1
        )
        pickled = classifier.classify_stream(iter(chunks), n_workers=2)
        for name in classifier.approach_names:
            assert shm.class_counts(name) == pickled.class_counts(name)
        assert shm.n_flows == 400

    def test_transport_validated(self, toy):
        _rib, classifier = toy
        with pytest.raises(ValueError):
            classifier.classify_stream(random_table(8), transport="carrier")


class TestShmFaults:
    def test_slot_corruption_repaired_by_retry(self, toy, dev_shm_clean):
        _rib, classifier = toy
        table = random_table(600)
        clean = classifier.classify_stream(
            table, chunk_rows=128, keep_labels=True
        )
        plan = FaultPlan((FaultSpec("slot_corrupt", 1, attempt=1),))
        stream = classifier.classify_stream(
            table, n_workers=2, chunk_rows=128, keep_labels=True,
            transport="shm", policy=FAST_RETRY, fault_injector=plan,
        )
        assert stream.failures.chunks_retried >= 1
        assert stream.complete
        assert_parity(classifier, clean, stream)

    def test_slot_corruption_noop_under_pickle(self, toy, dev_shm_clean):
        # The fault targets the staged ring read; with no ring armed
        # it must be inert, so pickle runs see no failure at all.
        _rib, classifier = toy
        table = random_table(300)
        plan = FaultPlan((FaultSpec("slot_corrupt", 1, attempt=0),))
        stream = classifier.classify_stream(
            table, n_workers=2, chunk_rows=128, policy=FAST_RETRY,
            fault_injector=plan,
        )
        assert stream.complete
        assert stream.failures.chunks_retried == 0

    def test_dead_worker_releases_ring_slots(self, toy, dev_shm_clean):
        # A worker killed mid-gather is reclaimed by the supervisor;
        # its ring slots must return to the pool (else the bounded
        # ring would deadlock) and the segment must not leak.
        _rib, classifier = toy
        table = random_table(600)
        clean = classifier.classify_stream(
            table, chunk_rows=128, keep_labels=True
        )
        plan = FaultPlan((FaultSpec("die", 1),))
        policy = FailurePolicy(
            mode="retry", max_retries=1, chunk_timeout=1.5,
            backoff_base=0.01,
        )
        stream = classifier.classify_stream(
            table, n_workers=2, chunk_rows=128, keep_labels=True,
            transport="shm", policy=policy, fault_injector=plan,
        )
        assert stream.failures
        assert stream.complete
        assert_parity(classifier, clean, stream)

    def test_oversize_fallback_survives_worker_death_under_spawn(
        self, toy, dev_shm_clean, monkeypatch
    ):
        # The pickle-fallback lane and the supervisor's dead-worker
        # reclaim must compose: chunk 1 exceeds the ring capacity and
        # rides pickle, the worker dies mid-way through that very
        # chunk, and the retry still lands bit-equal results — under
        # the spawn start method, where nothing is inherited.
        monkeypatch.setenv("MP_START_METHOD", "spawn")
        _rib, classifier = toy
        table = random_table(400)
        rows = np.arange(400)
        chunks = [
            table.select(rows[:100]),
            table.select(rows[100:350]),  # 250 rows > capacity 128
            table.select(rows[350:]),
        ]
        clean = classifier.classify_stream(iter(chunks), n_workers=2)
        current_metrics().clear()
        plan = FaultPlan((FaultSpec("die", 1),))
        policy = FailurePolicy(
            mode="retry", max_retries=1, chunk_timeout=2.0,
            backoff_base=0.01,
        )
        stream = classifier.classify_stream(
            iter(chunks), n_workers=2, chunk_rows=128, transport="shm",
            policy=policy, fault_injector=plan,
        )
        assert (
            current_metrics().counter("shm.fallback_chunks").value >= 1
        )
        assert stream.failures
        assert stream.complete
        for name in classifier.approach_names:
            assert stream.class_counts(name) == clean.class_counts(name)
        assert stream.n_flows == 400

    def test_degrade_drops_chunk_and_releases_slot(self, toy, dev_shm_clean):
        _rib, classifier = toy
        table = random_table(512)
        plan = FaultPlan((FaultSpec("corrupt", 1, attempt=0, scope="any"),))
        stream = classifier.classify_stream(
            table, n_workers=2, chunk_rows=128, transport="shm",
            policy="degrade", fault_injector=plan,
        )
        assert not stream.complete
        assert stream.failures.chunks_dropped == 1
        assert stream.n_flows == 512 - 128


class TestLeakAudit:
    def test_injected_leak_caught_and_reclaimed(self, dev_shm_clean):
        current_metrics().clear()
        inject_unlink_leak(1)
        segment = create_segment(4096, purpose="leak-audit-test")
        name = segment.name
        release_segment(segment, unlink=True)
        assert name in leaked_segments()
        assert current_metrics().counter("shm.segments_leaked").value == 1
        reclaimed = cleanup_leaked()
        assert name in reclaimed
        assert leaked_segments() == []

    def test_cleanup_idempotent(self, dev_shm_clean):
        assert cleanup_leaked() == []


class TestSketchTriageStream:
    def test_triage_bounds_match_exact_engine(self, toy, dev_shm_clean):
        _rib, classifier = toy
        table = random_table(600)
        exact = classifier.classify(table)
        exact_counts = {
            cls.name.lower(): int(
                (exact.label_vector("naive") == int(cls)).sum()
            )
            for cls in TrafficClass
        }
        serial = classifier.classify_stream(
            table, chunk_rows=128, triage="sketch"
        )
        parallel = classifier.classify_stream(
            table, n_workers=2, chunk_rows=128, triage="sketch",
            transport="shm",
        )
        for stream in (serial, parallel):
            triage = stream.triage
            assert triage is not None
            counts = triage.class_counts()
            # Bogon/unrouted run exactly; the signature makes invalid
            # a lower bound and valid an upper bound.
            assert counts["bogon"] == exact_counts["bogon"]
            assert counts["unrouted"] == exact_counts["unrouted"]
            assert counts["invalid"] <= exact_counts["invalid"]
            assert counts["valid"] >= exact_counts["valid"]
            assert triage.n_flows == 600
            assert "sketch triage" in triage.render()
        # Serial and parallel fold the same digests: identical totals.
        assert (
            serial.triage.class_counts() == parallel.triage.class_counts()
        )

    def test_triage_rejects_keep_labels(self, toy):
        _rib, classifier = toy
        with pytest.raises(ValueError):
            classifier.classify_stream(
                random_table(8), triage="sketch", keep_labels=True
            )

    def test_triage_name_validated(self, toy):
        _rib, classifier = toy
        with pytest.raises(ValueError):
            classifier.classify_stream(random_table(8), triage="hyperloglog")
