"""Matrix-kernel equivalence, streaming, and stage-span tests.

The vectorised validity-matrix engine must be label-identical to the
seed per-member loop kept in :mod:`tests.reference_classifier`, and
the chunked/parallel streaming path must aggregate to exactly what a
single-shot ``classify`` produces. The suite runs under whichever
multiprocessing start method ``MP_START_METHOD`` selects; CI's
resilience matrix exercises both ``fork`` and ``spawn``.
"""

import pickle

import numpy as np
import pytest

import repro.core.classifier as classifier_mod
from repro.bgp.messages import RouteObservation
from repro.bgp.rib import GlobalRIB
from repro.cones.full_cone import FullConeValidSpace
from repro.cones.naive import NaiveValidSpace
from repro.core import (
    SpoofingClassifier,
    StreamClassificationResult,
    TrafficClass,
    summarize_chunk,
)
from repro.ixp.flows import _COLUMNS, PROTO_TCP, FlowTable, TruthLabel
from repro.net.addr import addr_to_int
from repro.net.prefix import Prefix
from repro.obs import Tracer, render_spans, set_tracer, span_totals
from repro.stream import FlowEvent, WalWriter, replay_wal
from tests import reference_classifier as reference


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


@pytest.fixture()
def tracing():
    """A private, enabled ambient tracer for one test."""
    tracer = Tracer(enabled=True)
    previous = set_tracer(tracer)
    yield tracer
    set_tracer(previous)


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


class TestEngineEquivalence:
    def test_loop_and_matrix_identical_on_seeded_world(self, tiny_world):
        classifier = tiny_world.classifier
        flows = tiny_world.scenario.flows
        matrix = classifier.classify(flows)
        loop = reference.classify_labels(classifier, flows)
        assert set(loop) == set(classifier.approach_names)
        for name in classifier.approach_names:
            assert (matrix.label_vector(name) == loop[name]).all(), name

    def test_empty_flow_table(self, toy):
        _rib, classifier = toy
        result = classifier.classify(FlowTable.empty())
        loop = reference.classify_labels(classifier, FlowTable.empty())
        for name in classifier.approach_names:
            assert result.label_vector(name).size == 0
            assert loop[name].size == 0
        assert result.counters()["n_flows"] == 0

    def test_member_absent_from_bgp_all_routed_invalid(self, toy):
        # AS 9999 was never observed in BGP: every routed flow it
        # injects is Invalid (zero validity row), under the matrix
        # gather and the reference loop alike.
        _rib, classifier = toy
        table = flow_table(
            [("60.0.5.5", 9999), ("20.0.0.9", 9999), ("9.9.9.9", 9999)]
        )
        result = classifier.classify(table)
        loop = reference.classify_labels(classifier, table)
        for name in classifier.approach_names:
            for labels in (result.label_vector(name), loop[name]):
                assert labels[0] == int(TrafficClass.INVALID)
                assert labels[1] == int(TrafficClass.INVALID)
                assert labels[2] == int(TrafficClass.UNROUTED)

    def test_packed_matrix_matches_row_bits(self, toy):
        rib, classifier = toy
        members = [100, 200, 9999, 10]
        for approach in classifier._approaches.values():
            matrix = approach.packed_matrix(members)
            assert matrix.shape == (len(members), approach.row_bytes)
            for i, asn in enumerate(members):
                bits = np.unpackbits(matrix[i], bitorder="little")[
                    : approach._n_columns()
                ].astype(bool)
                assert (bits == approach.row_bits(asn)).all()

    def test_packed_matrix_memoised(self, toy):
        _rib, classifier = toy
        approach = classifier._approaches["full"]
        first = approach.packed_matrix(np.array([100, 200]))
        again = approach.packed_matrix(np.array([100, 200]))
        assert first is again
        other = approach.packed_matrix(np.array([200, 100]))
        assert other is not first
        approach.invalidate_cache()
        rebuilt = approach.packed_matrix(np.array([200, 100]))
        assert rebuilt is not other
        assert (rebuilt == other).all()


class TestStream:
    def test_stream_equals_single_shot(self, toy):
        _rib, classifier = toy
        table = flow_table(
            [
                ("60.0.5.5", 100),
                ("20.0.0.9", 200),
                ("60.0.5.5", 200),  # invalid under full
                ("9.9.9.9", 100),  # unrouted
                ("10.1.2.3", 100),  # bogon
                ("60.0.7.7", 10),
                ("20.0.1.1", 9999),  # unknown member → invalid
            ]
        )
        single = classifier.classify(table)
        stream = classifier.classify_stream(
            table, chunk_rows=2, keep_labels=True
        )
        assert stream.n_chunks == 4
        assert stream.n_flows == len(table)
        for name in classifier.approach_names:
            labels = single.label_vector(name)
            assert (stream.label_vector(name) == labels).all()
            for cls in TrafficClass:
                assert stream.class_counts(name)[cls] == int(
                    (labels == int(cls)).sum()
                )
                assert stream.members(name, cls) == set(
                    np.unique(table.member[labels == int(cls)]).tolist()
                )

    def test_stream_accepts_chunk_iterable(self, toy):
        _rib, classifier = toy
        table = flow_table([("60.0.5.5", 100), ("20.0.0.9", 200)])
        stream = classifier.classify_stream(table.iter_chunks(1))
        assert stream.n_chunks == 2
        assert stream.n_flows == 2

    @pytest.mark.parametrize("policy", (None, "fail_fast"))
    @pytest.mark.parametrize("n_workers", (None, 2))
    def test_nonpositive_chunk_rows_rejected(self, toy, policy, n_workers):
        # Unchecked, a negative step schedules no row range on the
        # fork whole-table path and reports an empty, "complete" run.
        _rib, classifier = toy
        table = flow_table([("60.0.5.5", 100)] * 8)
        for chunk_rows in (0, -3):
            with pytest.raises(ValueError, match="chunk_rows"):
                classifier.classify_stream(
                    table, n_workers=n_workers, chunk_rows=chunk_rows,
                    policy=policy,
                )

    def test_stream_empty(self, toy):
        _rib, classifier = toy
        stream = classifier.classify_stream(FlowTable.empty())
        assert stream.n_flows == 0
        assert stream.n_chunks == 0
        for name in classifier.approach_names:
            assert stream.flow_counts[name].sum() == 0

    def test_labels_not_kept_raises(self, toy):
        _rib, classifier = toy
        stream = classifier.classify_stream(
            flow_table([("60.0.5.5", 100)]), keep_labels=False
        )
        with pytest.raises(ValueError):
            stream.label_vector("full")

    def test_contribution_matches_result(self, toy):
        _rib, classifier = toy
        table = flow_table(
            [("60.0.5.5", 100), ("60.0.5.5", 200), ("10.1.2.3", 100)]
        )
        result = classifier.classify(table)
        stream = classifier.classify_stream(table, chunk_rows=2)
        for cls in (TrafficClass.BOGON, TrafficClass.INVALID):
            a = result.contribution("full", cls)
            b = stream.contribution("full", cls)
            assert a.members == b.members
            assert a.packets == b.packets
            assert a.bytes == b.bytes
            assert a.packet_share == pytest.approx(b.packet_share)

    def test_parallel_stream_equals_single_shot(self, tiny_world):
        classifier = tiny_world.classifier
        flows = tiny_world.scenario.flows
        single = classifier.classify(flows)
        parallel = classifier.classify_stream(
            flows, chunk_rows=2000, n_workers=2
        )
        assert parallel.n_flows == len(flows)
        for name in classifier.approach_names:
            labels = single.label_vector(name)
            counts = np.bincount(labels, minlength=4)
            assert (parallel.flow_counts[name] == counts).all()
            for cls in TrafficClass:
                assert parallel.members(name, cls) == set(
                    np.unique(flows.member[labels == int(cls)]).tolist()
                )


class TestStats:
    def test_classify_records_stage_stats(self, toy, tracing):
        _rib, classifier = toy
        table = flow_table([("60.0.5.5", 100), ("60.0.5.5", 200)])
        result = classifier.classify(table)
        spans = tracing.drain()
        totals = span_totals(spans)
        assert list(totals) == [
            "classify.bogon",
            "classify.lpm",
            "classify.invalid[naive]",
            "classify.invalid[full]",
            "classify",
        ]
        assert all(t.calls == 1 and t.rows == 2 for t in totals.values())
        counters = result.counters()
        assert counters["n_flows"] == 2
        assert counters["invalid_counts"]["full"] == 1
        assert "rows/sec" in render_spans(spans)

    def test_stream_merges_stats(self, toy, tracing):
        _rib, classifier = toy
        table = flow_table(
            [("60.0.5.5", 100), ("60.0.5.5", 200), ("9.9.9.9", 100)]
        )
        stream = classifier.classify_stream(table, chunk_rows=1)
        assert stream.n_flows == 3
        assert stream.n_chunks == 3
        lpm = span_totals(stream.spans)["classify.lpm"]
        assert lpm.calls == 3 and lpm.rows == 3
        assert stream.flow_counts["full"][int(TrafficClass.INVALID)] == 1
        assert stream.counters()["invalid_counts"]["full"] == 1

    def test_summary_merge_order_independent_counts(self, toy):
        _rib, classifier = toy
        chunks = list(
            flow_table(
                [("60.0.5.5", 100), ("60.0.5.5", 200), ("10.1.2.3", 100)]
            ).iter_chunks(1)
        )
        summaries = [summarize_chunk(classifier.classify(c)) for c in chunks]
        forward = StreamClassificationResult(classifier.approach_names)
        backward = StreamClassificationResult(classifier.approach_names)
        for s in summaries:
            forward.absorb(s)
        for s in reversed(summaries):
            backward.absorb(s)
        for name in classifier.approach_names:
            assert (forward.flow_counts[name] == backward.flow_counts[name]).all()
            assert (forward.byte_counts[name] == backward.byte_counts[name]).all()


class TestFlowChunking:
    def test_iter_chunks_roundtrip(self, toy):
        table = flow_table([("60.0.5.5", 100)] * 7)
        chunks = list(table.iter_chunks(3))
        assert [len(c) for c in chunks] == [3, 3, 1]
        rebuilt = FlowTable.concat(chunks)
        assert (rebuilt.src == table.src).all()
        assert (rebuilt.time == table.time).all()

    def test_iter_chunks_rejects_nonpositive(self, toy):
        table = flow_table([("60.0.5.5", 100)])
        with pytest.raises(ValueError):
            list(table.iter_chunks(0))


#: (src, member) choices spanning every class under the toy RIB.
TRIAGE_CHOICES = (
    ("60.0.5.5", 100),
    ("20.0.0.9", 200),
    ("60.0.5.5", 200),  # invalid under full
    ("9.9.9.9", 100),  # unrouted
    ("10.1.2.3", 100),  # bogon
    ("60.0.7.7", 10),
    ("20.0.1.1", 9999),  # unknown member → invalid
)


def triage_table(n, seed=7):
    rng = np.random.default_rng(seed)
    return flow_table(
        [TRIAGE_CHOICES[i] for i in rng.integers(0, len(TRIAGE_CHOICES), n)]
    )


class TestSketchTriageStream:
    """``triage="sketch"`` against the exact engine, over both payload
    paths: a whole table (row ranges under fork) and a chunk iterable
    (pickled chunks)."""

    @pytest.mark.parametrize("source", ["table", "chunks"])
    def test_triage_bounds_match_exact_engine(self, toy, source):
        _rib, classifier = toy
        table = triage_table(600)
        exact = classifier.classify(table)
        exact_counts = {
            cls.name.lower(): int(
                (exact.label_vector("naive") == int(cls)).sum()
            )
            for cls in TrafficClass
        }

        def flows():
            return table if source == "table" else table.iter_chunks(128)

        serial = classifier.classify_stream(
            flows(), chunk_rows=128, triage="sketch"
        )
        parallel = classifier.classify_stream(
            flows(), n_workers=2, chunk_rows=128, triage="sketch"
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
            assert stream.n_chunks == 5
            assert "sketch triage" in triage.render()
        # Serial and parallel fold the same digests: identical totals.
        assert (
            serial.triage.class_counts() == parallel.triage.class_counts()
        )

    def test_triage_rejects_keep_labels(self, toy):
        _rib, classifier = toy
        with pytest.raises(ValueError):
            classifier.classify_stream(
                triage_table(8), triage="sketch", keep_labels=True
            )

    def test_triage_name_validated(self, toy):
        _rib, classifier = toy
        with pytest.raises(ValueError):
            classifier.classify_stream(triage_table(8), triage="hyperloglog")


def assert_canonical(table):
    """Every column holds its type's builtin dtype instance itself."""
    for name, dtype in _COLUMNS:
        assert getattr(table, name).dtype is np.dtype(dtype), name


def assert_same_summary(got, want):
    assert got.n_flows == want.n_flows
    assert got.class_members == want.class_members
    for field in ("flow_counts", "packet_counts", "byte_counts", "labels"):
        got_arrays, want_arrays = getattr(got, field), getattr(want, field)
        assert got_arrays.keys() == want_arrays.keys()
        for name, array in want_arrays.items():
            assert got_arrays[name].dtype == array.dtype
            np.testing.assert_array_equal(got_arrays[name], array)


class TestCanonicalDtypes:
    """Flow chunks that crossed a pickle keep the builtin dtypes.

    An unpickled array's dtype equals the builtin one without being
    it, which puts ``np.add.at`` — the summaries' count-weighted
    bincounts — on a slow path.
    """

    @pytest.fixture()
    def chunk(self, tiny_world):
        return tiny_world.scenario.flows.select(slice(0, 3100))

    def test_constructed_and_unpickled(self, chunk):
        assert_canonical(chunk)
        # The numpy behaviour the table corrects for.
        column = pickle.loads(pickle.dumps(chunk.packets))
        assert column.dtype == np.int64 and column.dtype is not np.dtype(
            np.int64
        )
        assert_canonical(FlowTable(**{name: pickle.loads(pickle.dumps(
            getattr(chunk, name))) for name, _ in _COLUMNS}))
        for protocol in (2, pickle.HIGHEST_PROTOCOL):
            copy = pickle.loads(pickle.dumps(chunk, protocol=protocol))
            assert_canonical(copy)
            for name, _ in _COLUMNS:
                np.testing.assert_array_equal(
                    getattr(copy, name), getattr(chunk, name)
                )

    def test_inside_stream_worker(self, tiny_world, chunk, monkeypatch):
        classifier = tiny_world.classifier
        monkeypatch.setattr(classifier_mod, "_STREAM_CLASSIFIER", classifier)
        seen = []
        summarize = classifier_mod._summarize

        def spy(owner, table, keep_labels):
            seen.append(table)
            return summarize(owner, table, keep_labels)

        monkeypatch.setattr(classifier_mod, "_summarize", spy)
        payload = pickle.loads(pickle.dumps((chunk, True, 0, 1)))
        got = classifier_mod._stream_worker(payload)
        (table,) = seen
        assert table is payload[0]
        assert_canonical(table)
        assert_same_summary(
            got, summarize_chunk(classifier.classify(chunk), keep_labels=True)
        )

    def test_after_wal_replay(self, tiny_world, chunk, tmp_path):
        with WalWriter(tmp_path) as wal:
            wal.append(FlowEvent(chunk, int(chunk.time[0])))
        ((_seq, event),) = list(replay_wal(tmp_path))
        assert_canonical(event.flows)
        classifier = tiny_world.classifier
        assert_same_summary(
            summarize_chunk(classifier.classify(event.flows), keep_labels=True),
            summarize_chunk(classifier.classify(chunk), keep_labels=True),
        )
