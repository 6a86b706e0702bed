"""Pipeline throughput: classification, LPM, bulk set membership.

Not a paper artefact — harness hygiene: the detector must keep up with
flow export rates, so its hot paths are benchmarked explicitly. The
PERF columns compare these classification paths on the default world:

* ``loop``    — the seed per-member Python loop, kept as the reference
  classifier in ``tests/reference_classifier.py``,
* ``matrix``  — the packed validity-matrix kernel (one gather for all
  members and approaches; must be ≥5× the loop),
* ``stream``  — ``classify_stream`` over bounded chunks with a
  4-process pool on a ≥4M-row scenario (must beat single-shot
  wall-clock while producing identical per-approach class counts),
* ``sketch``  — the constant-memory sketch triage over the same
  4-process stream (must be ≥3× the parallel exact baseline measured
  in the same run).
"""

import time

import numpy as np

from repro.core import SpoofingClassifier
from repro.datasets.bogons import bogon_prefix_set
from repro.ixp.flows import FlowTable
from repro.obs import current_tracer, enable_tracing, span_totals
from tests import reference_classifier as reference

#: Row floor for the streaming comparison (acceptance: ≥ 4M rows).
STREAM_SCENARIO_ROWS = 4_000_000


def _tile_flows(flows: FlowTable, min_rows: int) -> FlowTable:
    """Tile a flow table until it holds at least ``min_rows`` rows."""
    reps = -(-min_rows // len(flows))
    return FlowTable(
        src=np.tile(flows.src, reps),
        dst=np.tile(flows.dst, reps),
        proto=np.tile(flows.proto, reps),
        src_port=np.tile(flows.src_port, reps),
        dst_port=np.tile(flows.dst_port, reps),
        packets=np.tile(flows.packets, reps),
        bytes=np.tile(flows.bytes, reps),
        member=np.tile(flows.member, reps),
        dst_member=np.tile(flows.dst_member, reps),
        time=np.tile(flows.time, reps),
        truth=np.tile(flows.truth, reps),
    )


def bench_classifier_single_approach(benchmark, world):
    """Classify the full trace with only the primary approach."""
    classifier = SpoofingClassifier(
        world.rib, {"full+orgs": world.approaches["full+orgs"]}
    )
    flows = world.scenario.flows
    result = benchmark.pedantic(
        classifier.classify, args=(flows,), rounds=3, iterations=1
    )
    benchmark.extra_info["flows_per_call"] = len(flows)
    assert result.label_vector("full+orgs").size == len(flows)


def bench_classifier_all_approaches_matrix(benchmark, world):
    """All six approaches through the validity-matrix kernel."""
    classifier = world.classifier
    flows = world.scenario.flows
    classifier.classify(flows)  # warm matrices + finalized RIB
    result = benchmark.pedantic(
        classifier.classify, args=(flows,), rounds=3, iterations=1
    )
    benchmark.extra_info["flows_per_call"] = len(flows)
    benchmark.extra_info["approaches"] = len(classifier.approach_names)
    assert result.approaches == classifier.approach_names


def bench_matrix_vs_loop_speedup(benchmark, world, save_artefact):
    """The matrix kernel must be ≥5× the seed per-member loop.

    Both sides run the whole Figure 3 sequence; the loop side is the
    reference classifier of ``tests/reference_classifier.py``.
    """
    classifier = world.classifier
    flows = world.scenario.flows
    classifier.classify(flows)  # warm

    loop_s = min(
        _timed(reference.classify_labels, classifier, flows)
        for _ in range(2)
    )
    matrix_s = min(_timed(classifier.classify, flows) for _ in range(3))
    loop_labels = reference.classify_labels(classifier, flows)
    matrix_result = benchmark.pedantic(
        classifier.classify, args=(flows,), rounds=3, iterations=1
    )
    for name in classifier.approach_names:
        assert (
            matrix_result.label_vector(name) == loop_labels[name]
        ).all(), name

    speedup = loop_s / matrix_s
    benchmark.extra_info["loop_seconds"] = round(loop_s, 4)
    benchmark.extra_info["matrix_seconds"] = round(matrix_s, 4)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    save_artefact(
        "perf_matrix_vs_loop",
        "\n".join(
            [
                "classifier invalid-stage engines "
                f"({len(flows)} flows, {len(classifier.approach_names)} approaches)",
                f"  loop   {loop_s:8.4f}s  {len(flows) / loop_s:12.0f} rows/s",
                f"  matrix {matrix_s:8.4f}s  {len(flows) / matrix_s:12.0f} rows/s",
                f"  speedup {speedup:.2f}x (acceptance: >= 5x)",
            ]
        ),
    )
    assert speedup >= 5.0, f"matrix kernel only {speedup:.2f}x over loop"


def bench_stream_parallel_vs_single(benchmark, world, save_artefact):
    """4-worker ``classify_stream`` vs single-shot on ≥4M rows.

    The streamed path must win wall-clock and agree exactly on the
    per-approach class counters.
    """
    classifier = world.classifier
    big = _tile_flows(world.scenario.flows, STREAM_SCENARIO_ROWS)
    classifier.classify(world.scenario.flows)  # warm

    single_t0 = time.perf_counter()
    single = classifier.classify(big)
    single_s = time.perf_counter() - single_t0

    stream_t0 = time.perf_counter()
    stream = classifier.classify_stream(big, n_workers=4)
    stream_s = time.perf_counter() - stream_t0
    benchmark.pedantic(
        classifier.classify_stream,
        args=(big,),
        kwargs={"n_workers": 4},
        rounds=1,
        iterations=1,
    )

    for name in classifier.approach_names:
        counts = np.bincount(single.label_vector(name), minlength=4)
        assert (stream.flow_counts[name] == counts).all(), name

    benchmark.extra_info["rows"] = len(big)
    benchmark.extra_info["single_seconds"] = round(single_s, 2)
    benchmark.extra_info["stream4_seconds"] = round(stream_s, 2)
    benchmark.extra_info["speedup"] = round(single_s / stream_s, 2)
    save_artefact(
        "perf_stream_parallel",
        "\n".join(
            [
                f"streamed classification ({len(big)} rows, "
                f"{stream.n_chunks} chunks, 4 workers)",
                f"  single-shot {single_s:8.2f}s  "
                f"{len(big) / single_s:12.0f} rows/s",
                f"  stream x4   {stream_s:8.2f}s  "
                f"{len(big) / stream_s:12.0f} rows/s",
                f"  speedup {single_s / stream_s:.2f}x "
                "(acceptance: stream must win)",
                "  per-approach class counts identical: yes",
            ]
        ),
    )
    assert stream_s < single_s, (
        f"stream ({stream_s:.2f}s) did not beat single-shot ({single_s:.2f}s)"
    )


def bench_stream_sketch_speedup(benchmark, world, save_artefact):
    """Sketch triage vs the exact parallel stream over the same table.

    The baseline is the exact engine with 4 workers — the configuration
    ``perf_stream_parallel`` measures. The sketch side swaps in the
    constant-memory sketch triage; both sides deliver chunks the same
    way (row ranges of the inherited table under fork, pickled chunks
    otherwise). Acceptance: ≥3× the baseline wall-clock measured in
    the same run, with the triage counters honouring their bounds
    against the exact result (bogon and unrouted equal, invalid a
    lower bound, valid an upper bound).
    """
    classifier = world.classifier
    big = _tile_flows(world.scenario.flows, STREAM_SCENARIO_ROWS)
    classifier.classify(world.scenario.flows)  # warm
    # One throwaway run per path so pool start-up and page-cache
    # effects do not land on either side of the speedup.
    exact = classifier.classify_stream(big, n_workers=4)
    triaged = classifier.classify_stream(big, n_workers=4, triage="sketch")

    base_s = min(
        _timed(classifier.classify_stream, big, n_workers=4)
        for _ in range(2)
    )
    sketch_s = min(
        _timed(classifier.classify_stream, big, n_workers=4, triage="sketch")
        for _ in range(2)
    )
    benchmark.pedantic(
        classifier.classify_stream,
        args=(big,),
        kwargs={"n_workers": 4, "triage": "sketch"},
        rounds=1,
        iterations=1,
    )

    # Triage bound contract against the exact primary-approach counts:
    # classes are indexed valid=0, bogon=1, unrouted=2, invalid=3.
    primary = classifier.approach_names[0]
    exact_counts = exact.flow_counts[primary]
    assert triaged.triage is not None
    totals = triaged.triage.class_totals
    assert totals[1] == exact_counts[1] and totals[2] == exact_counts[2]
    assert totals[3] <= exact_counts[3] and totals[0] >= exact_counts[0]
    assert triaged.n_flows == len(big)

    speedup = base_s / sketch_s
    benchmark.extra_info["rows"] = len(big)
    benchmark.extra_info["baseline_seconds"] = round(base_s, 2)
    benchmark.extra_info["sketch_seconds"] = round(sketch_s, 2)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    save_artefact(
        "perf_sketch_stream",
        "\n".join(
            [
                "sketch triage vs the exact parallel stream "
                f"({len(big)} rows, 4 workers)",
                f"  exact x4   {base_s:8.2f}s  "
                f"{len(big) / base_s:12.0f} rows/s",
                f"  sketch x4  {sketch_s:8.2f}s  "
                f"{len(big) / sketch_s:12.0f} rows/s",
                f"  speedup {speedup:.2f}x "
                "(acceptance: >= 3x the same-run baseline)",
                "  bogon/unrouted exact, invalid lower bound, "
                "valid upper bound: yes",
            ]
        ),
    )
    assert speedup >= 3.0, (
        f"sketch triage only {speedup:.2f}x over the parallel baseline"
    )


def _timed(fn, *args, **kwargs) -> float:
    t0 = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - t0


def bench_trace_overhead(benchmark, world, save_artefact):
    """Observability tax: tracing off (default) vs on, ≥4M rows.

    The spans are per-stage, not per-row, so even *enabled* tracing
    must stay within 2% of the untraced run — which bounds the
    disabled-by-default cost (a single attribute check per stage)
    from above. Acceptance: <2% on the 4M-row single-shot path.
    """
    classifier = world.classifier
    big = _tile_flows(world.scenario.flows, STREAM_SCENARIO_ROWS)
    classifier.classify(world.scenario.flows)  # warm matrices + RIB

    assert not current_tracer().enabled  # default state: off
    off_s = min(_timed(classifier.classify, big) for _ in range(3))
    enable_tracing()
    try:
        on_s = min(_timed(classifier.classify, big) for _ in range(3))
        current_tracer().drain()  # only the measured call's spans below
        benchmark.pedantic(
            classifier.classify, args=(big,), rounds=1, iterations=1
        )
        spans = current_tracer().drain()
    finally:
        enable_tracing(False)

    # The traced run timed every Figure 3 stage once, over every row.
    totals = span_totals(spans)
    stages = ["classify.bogon", "classify.lpm"] + [
        f"classify.invalid[{name}]" for name in classifier.approach_names
    ]
    for name in stages:
        assert totals[name].calls == 1 and totals[name].rows == len(big), name

    overhead = on_s / off_s - 1.0
    benchmark.extra_info["untraced_seconds"] = round(off_s, 3)
    benchmark.extra_info["traced_seconds"] = round(on_s, 3)
    benchmark.extra_info["overhead_pct"] = round(overhead * 100, 2)
    save_artefact(
        "perf_trace_overhead",
        "\n".join(
            [
                f"tracing overhead ({len(big)} rows, single-shot, "
                f"{len(classifier.approach_names)} approaches)",
                f"  tracing off {off_s:8.3f}s  "
                f"{len(big) / off_s:12.0f} rows/s",
                f"  tracing on  {on_s:8.3f}s  "
                f"{len(big) / on_s:12.0f} rows/s",
                f"  overhead {overhead * 100:+.2f}% "
                "(acceptance: < 2%; bounds the disabled-default cost)",
            ]
        ),
    )
    assert overhead < 0.02, (
        f"tracing costs {overhead * 100:.2f}% (>= 2%) on the 4M-row path"
    )


def bench_lpm_lookup_throughput(benchmark, world):
    """Vectorised longest-prefix-match over 1M random addresses."""
    rng = np.random.default_rng(3)
    addrs = rng.integers(0, 2**32, size=1_000_000, dtype=np.uint64)
    world.rib.lookup_many(addrs[:10])  # warm the finalized view

    pids, origins = benchmark(world.rib.lookup_many, addrs)
    benchmark.extra_info["addresses"] = addrs.size
    assert pids.size == addrs.size


def bench_bogon_membership_throughput(benchmark):
    rng = np.random.default_rng(4)
    addrs = rng.integers(0, 2**32, size=1_000_000, dtype=np.uint64)
    bogons = bogon_prefix_set()

    mask = benchmark(bogons.contains_many, addrs)
    # ~13.8% of uniform random addresses are bogons.
    assert 0.12 < mask.mean() < 0.16
