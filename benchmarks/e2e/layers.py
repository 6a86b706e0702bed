"""Which program functions the traced run times, and the per-layer
metrics folded from their spans.

Every target is patched where its caller looks the name up: the
imports of ``repro.experiments.runner`` for the study layers, the
classes for methods. The
README's layer table says which end-to-end metric each layer metric
should move.
"""

from __future__ import annotations

import statistics
from collections.abc import Callable

from spans import Span, Target, settle

_RUNNER = "repro.experiments.runner"

TARGETS = (
    Target(_RUNNER, "generate_topology", "topology"),
    Target(_RUNNER, "build_policies", "topology"),
    Target(_RUNNER, "CollectorSystem", "topology"),
    Target(_RUNNER, "select_members", "topology"),
    # About 80,000 items per small world, consumed by the RIB build.
    Target(_RUNNER, "simulate_bgp", "bgp.propagate", eager=True),
    Target("repro.bgp.rib:GlobalRIB", "add_all", "bgp.rib_build",
           attrs=lambda args, result: {"accepted": result}),
    Target(_RUNNER, "build_as2org", "as2org"),
    Target(_RUNNER, "NaiveValidSpace", "cones.naive"),
    Target(_RUNNER, "CustomerConeValidSpace", "cones.cc"),
    Target(_RUNNER, "FullConeValidSpace", "cones.full"),
    Target(_RUNNER, "apply_org_merge", "cones.orgs"),
    Target("repro.cones.customer_cone", "infer_relationships",
           "cones.cc.infer"),
    Target("repro.cones.base:ValidSpaceMap", "packed_matrix", "cones.matrix",
           attrs=lambda args, result: {"map": id(args[0]),
                                       "bytes": result.nbytes}),
    Target(_RUNNER, "generate_traffic", "traffic"),
    Target("repro.core.classifier:SpoofingClassifier", "classify",
           "classify.single"),
    Target("repro.net.prefixset:PrefixSet", "contains_many", "classify.bogon",
           within=("classify.single",)),
    Target("repro.bgp.rib:GlobalRIB", "lookup_many", "classify.lpm",
           within=("classify.single",)),
    Target("repro.core.classifier:SpoofingClassifier", "classify_stream",
           "classify.stream"),
    Target("repro.core.results:StreamClassificationResult", "absorb",
           "merge"),
    Target("repro.stream.state:OnlineValidState", "apply_route",
           "delta.apply"),
    Target("repro.bgp.rib:GlobalRIB", "apply", "rib.apply"),
    Target("repro.cones.naive:NaiveValidSpace", "apply_delta",
           "cones.naive.delta"),
    Target("repro.cones.customer_cone:CustomerConeValidSpace", "apply_delta",
           "cones.cc.delta",
           attrs=lambda args, result: {
               "moved": -1 if result is None else len(result)}),
    Target("repro.cones.full_cone:FullConeValidSpace", "apply_delta",
           "cones.full.delta"),
    Target("repro.cones.orgs:OrgMergedValidSpace", "propagate_delta",
           "cones.orgs.delta"),
    Target("repro.cones.base:ValidSpaceMap", "refresh_matrix_rows",
           "cones.matrix_patch"),
    Target("repro.stream.durable.wal:WalWriter", "append", "wal.append"),
    Target("repro.stream.durable.wal:WalWriter", "sync", "wal.sync"),
    Target("os", "fsync", "fsync",
           within=("wal.append", "wal.sync", "checkpoint.save")),
    Target("repro.stream.durable.checkpoint:CheckpointStore", "save",
           "checkpoint.save",
           attrs=lambda args, result: {"bytes": result.stat().st_size}),
    Target("repro.stream.durable.checkpoint:CheckpointStore", "load_latest",
           "checkpoint.load"),
    Target("repro.stream.durable.daemon", "replay_wal", "wal.replay"),
)


class LayerView:
    """Spans of one traced set-up and the traced passes. A layer's
    value is per traced pass; a layer that runs only during set-up
    reports its value per set-up."""

    def __init__(self, spans: list[Span], pass_runs: list[str],
                 counters: dict[str, float]) -> None:
        settle(spans)
        self.n_passes = max(len(pass_runs), 1)
        runs = set(pass_runs)
        self.setup = [s for s in spans if s.run == "setup"]
        self.passes = [s for s in spans if s.run in runs]
        self.counters = counters

    def fold(self, name: str, value: Callable[[Span], float]) -> float:
        passes = [value(s) for s in self.passes if s.name == name]
        if passes:
            return sum(passes) / self.n_passes
        return sum(value(s) for s in self.setup if s.name == name)

    def self_s(self, name: str) -> float:
        return self.fold(name, lambda s: s.self_time)

    def busy_s(self, name: str) -> float:
        return self.fold(name, lambda s: s.busy)

    def count(self, name: str) -> float:
        return self.fold(name, lambda s: s.count)

    def attr(self, name: str, key: str) -> float:
        return self.fold(name, lambda s: (s.attrs or {}).get(key, 0))

    def pass_values(self, name: str,
                    value: Callable[[Span], float]) -> list[float]:
        return [value(s) for s in self.passes if s.name == name]

    def counter(self, name: str) -> float:
        return self.counters.get(name, 0.0)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else 0.0


def _matrix_bytes(view: LayerView) -> float:
    """Bytes of the validity matrices the classifier holds: the latest
    matrix of each map, at the largest over runs."""
    latest: dict[tuple[str, int], int] = {}
    for span in view.setup + view.passes:
        if span.name == "cones.matrix" and span.attrs:
            latest[(span.run, span.attrs["map"])] = span.attrs["bytes"]
    per_run: dict[str, int] = {}
    for (run, _), nbytes in latest.items():
        per_run[run] = per_run.get(run, 0) + nbytes
    return float(max(per_run.values(), default=0))


def _wasted_inference(view: LayerView) -> float:
    """Share of cone re-inferences on route deltas that moved no row."""
    inferred = {id(s.parent) for s in view.passes
                if s.name == "cones.cc.infer" and s.parent is not None}
    deltas = [s for s in view.passes
              if s.name == "cones.cc.delta" and id(s) in inferred]
    wasted = sum(1 for s in deltas if s.attrs and s.attrs["moved"] == 0)
    return _ratio(wasted, len(deltas))


def _wal_sync(view: LayerView) -> float:
    fsync = sum(s.self_time for s in view.passes
                if s.name == "fsync" and s.parent is not None
                and s.parent.name in ("wal.append", "wal.sync"))
    return fsync / view.n_passes + view.self_s("wal.sync")


def _percentile_ms(values: list[float], q: int) -> float:
    if len(values) < 2:
        return 1000.0 * sum(values)
    return 1000.0 * statistics.quantiles(values, n=100,
                                         method="inclusive")[q - 1]


def _coverage(view: LayerView) -> float:
    busy = sum(s.busy for s in view.passes if s.name == "pass")
    own = sum(s.self_time for s in view.passes if s.name == "pass")
    return 1.0 - own / busy if busy > 0 else 0.0


#: name → (unit, better, value).
PER_LAYER: dict[str, tuple[str, str, Callable[[LayerView], float]]] = {
    "topology.s": ("s", "lower", lambda v: v.self_s("topology")),
    "bgp.propagate_s": ("s", "lower", lambda v: v.self_s("bgp.propagate")),
    "bgp.observations": ("count", "lower",
                         lambda v: v.count("bgp.propagate")),
    "bgp.rib_build_s": ("s", "lower", lambda v: v.self_s("bgp.rib_build")),
    "bgp.rib_obs_per_s": ("1/s", "higher", lambda v: _ratio(
        v.attr("bgp.rib_build", "accepted"), v.self_s("bgp.rib_build"))),
    "as2org.s": ("s", "lower", lambda v: v.self_s("as2org")),
    "cones.naive_s": ("s", "lower", lambda v: v.self_s("cones.naive")),
    "cones.cc_s": ("s", "lower", lambda v: v.self_s("cones.cc")),
    "cones.full_s": ("s", "lower", lambda v: v.self_s("cones.full")),
    "cones.orgs_s": ("s", "lower", lambda v: v.self_s("cones.orgs")),
    "cones.matrix_s": ("s", "lower", lambda v: v.self_s("cones.matrix")),
    "cones.matrix_bytes": ("B", "lower", _matrix_bytes),
    "traffic.s": ("s", "lower", lambda v: v.self_s("traffic")),
    "table1.s": ("s", "lower", lambda v: v.self_s("table1")),
    "input.rows": ("count", "higher", lambda v: v.counter("input.rows")),
    "input.unique_pairs": ("count", "higher",
                           lambda v: v.counter("input.unique_pairs")),
    "input.pair_reuse": ("ratio", "higher",
                         lambda v: v.counter("input.pair_reuse")),
    "classify.single_s": ("s", "lower",
                          lambda v: v.busy_s("classify.single")),
    "classify.bogon_s": ("s", "lower", lambda v: v.self_s("classify.bogon")),
    "classify.lpm_s": ("s", "lower", lambda v: v.self_s("classify.lpm")),
    "classify.invalid_s": ("s", "lower",
                           lambda v: v.self_s("classify.single")),
    "classify.stream_s": ("s", "lower", lambda v: v.self_s("classify.stream")),
    "classify.stream_ms_p50": ("ms", "lower", lambda v: _percentile_ms(
        v.pass_values("classify.stream", lambda s: s.self_time), 50)),
    "classify.parallel_efficiency": ("ratio", "higher", lambda v: _ratio(
        v.busy_s("classify.single"), 2 * v.busy_s("classify.stream"))),
    "merge.s": ("s", "lower", lambda v: v.self_s("merge")),
    "events.route": ("count", "higher", lambda v: v.counter("events.route")),
    "events.flow_chunks": ("count", "higher",
                           lambda v: v.counter("events.flow_chunks")),
    "watch.windows": ("count", "higher", lambda v: v.counter("watch.windows")),
    "delta.apply_s": ("s", "lower", lambda v: v.self_s("delta.apply")),
    "delta.apply_ms_p98": ("ms", "lower", lambda v: _percentile_ms(
        v.pass_values("delta.apply", lambda s: s.busy), 98)),
    "delta.applied_frac": ("ratio", "higher",
                           lambda v: v.counter("delta.applied_frac")),
    "rib.apply_s": ("s", "lower", lambda v: v.self_s("rib.apply")),
    "rib.patched": ("count", "higher", lambda v: v.counter("rib.patched")),
    "rib.rebuilds": ("count", "lower", lambda v: v.counter("rib.rebuilds")),
    "cones.naive.delta_s": ("s", "lower",
                            lambda v: v.self_s("cones.naive.delta")),
    "cones.cc.delta_s": ("s", "lower", lambda v: v.self_s("cones.cc.delta")),
    "cones.full.delta_s": ("s", "lower",
                           lambda v: v.self_s("cones.full.delta")),
    "cones.orgs.delta_s": ("s", "lower",
                           lambda v: v.self_s("cones.orgs.delta")),
    "cones.matrix_patch_s": ("s", "lower",
                             lambda v: v.self_s("cones.matrix_patch")),
    "cones.cc.infer_s": ("s", "lower", lambda v: v.self_s("cones.cc.infer")),
    "cones.cc.infer_calls": ("count", "lower",
                             lambda v: v.count("cones.cc.infer")),
    "cones.cc.wasted_frac": ("ratio", "lower", _wasted_inference),
    "ingest.blocked_s": ("s", "lower", lambda v: max(
        0.0, v.counter("ingest.gap_s") - v.busy_s("wal.append"))),
    "wal.appends": ("count", "lower", lambda v: v.count("wal.append")),
    "wal.append_s": ("s", "lower", lambda v: v.self_s("wal.append")),
    "wal.sync_s": ("s", "lower", _wal_sync),
    "wal.bytes": ("B", "lower", lambda v: v.counter("wal.bytes")),
    "checkpoint.saves": ("count", "lower", lambda v: v.count("checkpoint.save")),
    "checkpoint.save_s": ("s", "lower", lambda v: v.busy_s("checkpoint.save")),
    "checkpoint.bytes": ("B", "lower",
                         lambda v: v.attr("checkpoint.save", "bytes")),
    "checkpoint.load_s": ("s", "lower", lambda v: v.busy_s("checkpoint.load")),
    "wal.replay_s": ("s", "lower", lambda v: v.self_s("wal.replay")),
    "resume.recomputed_windows": ("count", "lower",
                                  lambda v: v.counter("resume.recomputed_windows")),
    "resume.s": ("s", "lower", lambda v: v.counter("resume.s")),
    "trace.coverage": ("ratio", "higher", _coverage),
    # From the runner, over every pass of the traced run.
    "op.samples": ("count", "higher", lambda v: v.counter("op.samples")),
    "op.p90_ms": ("ms", "lower", lambda v: v.counter("op.p90_ms")),
    "trace.overhead_pct": ("%", "lower",
                           lambda v: v.counter("trace.overhead_pct")),
    "machine.slowdown": ("ratio", "lower",
                         lambda v: v.counter("machine.slowdown")),
}


def mean_counters(counters: list[dict[str, float]]) -> dict[str, float]:
    """Per-pass counters averaged over passes."""
    keys = {key for c in counters for key in c}
    return {key: statistics.fmean(c.get(key, 0.0) for c in counters)
            for key in keys}
