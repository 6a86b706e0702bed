"""Tests for the observability layer (repro.obs) and its wiring.

Covers the tracer (nesting, capture, disabled fast path), the metrics
registry (counters/gauges/histograms, JSONL export), the run manifest
(round trip, digests, rendering, malformed input), the classify stage
spans — one per stage, and a streamed run's merged spans matching a
single-shot run's names and rows (serial, parallel under fork *and*
spawn) — the span-total accumulation semantics, the per-chunk latency
histogram, and the CLI flags (``--stats``, ``--trace``,
``--metrics-out``, ``--manifest-out``, ``repro trace show``).
"""

from __future__ import annotations

import json
import math

import pytest

from repro.cli import main
from repro.core.classifier import MP_START_METHOD_ENV
from repro.experiments import WorldConfig, build_world
from repro.experiments.runner import build_valid_space_maps
from repro.io import save_flows_csv, save_flows_npz
from repro.obs import (
    MetricsRegistry,
    RunManifest,
    SpanRecord,
    SpanTotal,
    Tracer,
    current_git_sha,
    current_metrics,
    current_tracer,
    enable_tracing,
    file_digest,
    manifest_path_for,
    set_tracer,
    span_totals,
    trace,
    tracing_enabled,
)


@pytest.fixture(scope="module")
def world():
    return build_world(WorldConfig.tiny())


# -- tracer ----------------------------------------------------------------


class TestTracer:
    def test_disabled_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("outer", rows=10):
            tracer.record("inner", 0.5, rows=5)
        assert tracer.records == []

    def test_nesting_parent(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer"):
            with tracer.span("inner", rows=3):
                pass
        inner, outer = tracer.records
        assert inner.name == "inner" and inner.parent == "outer"
        assert outer.name == "outer" and outer.parent is None
        assert inner.rows == 3

    def test_record_uses_current_parent(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer"):
            tracer.record("leaf", 0.25, rows=7)
        leaf = tracer.records[0]
        assert leaf.parent == "outer"
        assert leaf.seconds == 0.25

    def test_capture_removes_and_returns(self):
        tracer = Tracer(enabled=True)
        with tracer.span("before"):
            pass
        with tracer.capture() as captured:
            with tracer.span("inside"):
                pass
        assert [r.name for r in captured] == ["inside"]
        assert [r.name for r in tracer.records] == ["before"]

    def test_drain_clears(self):
        tracer = Tracer(enabled=True)
        tracer.record("a", 0.1)
        assert [r.name for r in tracer.drain()] == ["a"]
        assert tracer.records == []

    def test_span_totals_aggregates(self):
        records = [
            SpanRecord("x", 0.5, rows=10),
            SpanRecord("x", 0.25, rows=20),
            SpanRecord("y", 1.0, rows=0),
        ]
        totals = span_totals(records)
        assert totals["x"].calls == 2
        assert totals["x"].seconds == 0.75
        assert totals["x"].rows == 30
        assert totals["x"].rows_per_sec == 30 / 0.75
        assert totals["y"].rows_per_sec == 0.0

    def test_span_totals_accepts_dicts(self):
        record = SpanRecord("z", 0.5, rows=4, parent="p", attrs={"k": 1})
        totals = span_totals([record.to_dict()])
        assert totals["z"].seconds == 0.5 and totals["z"].rows == 4

    def test_record_roundtrip_dict(self):
        record = SpanRecord("n", 1.5, rows=2, start=10.0, parent="p",
                            attrs={"engine": "matrix"})
        assert SpanRecord.from_dict(record.to_dict()) == record

    def test_ambient_trace_helper(self, clean_obs):
        enable_tracing()
        with trace("ambient", rows=1):
            pass
        names = [r.name for r in current_tracer().drain()]
        assert names == ["ambient"]


# -- metrics ---------------------------------------------------------------


class TestMetrics:
    def test_counter(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").inc(4)
        assert registry.counter("c").value == 5
        with pytest.raises(ValueError):
            registry.counter("c").inc(-1)

    def test_gauge_tracks_max(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g")
        gauge.set(5.0)
        gauge.set(2.0)
        assert gauge.value == 2.0 and gauge.max == 5.0

    def test_histogram_percentiles(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h")
        for v in range(1, 101):
            hist.observe(float(v))
        assert hist.count == 100
        assert math.isclose(hist.mean, 50.5)
        assert abs(hist.percentile(50) - 50.5) < 1.0
        assert hist.percentile(99) > 95.0

    def test_histogram_reservoir_bounded(self):
        hist = MetricsRegistry().histogram("h")
        hist._max_samples = 64
        for v in range(10_000):
            hist.observe(float(v))
        assert hist.count == 10_000
        assert len(hist.samples) <= 64

    def test_kind_collision_raises(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(TypeError):
            registry.gauge("m")

    def test_export_jsonl(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.gauge("g").set(1.5)
        registry.histogram("h").observe(0.5)
        out = tmp_path / "metrics.jsonl"
        assert registry.export_jsonl(out) == 3
        records = [json.loads(line) for line in out.read_text().splitlines()]
        by_name = {r["name"]: r for r in records}
        assert by_name["c"] == {"name": "c", "kind": "counter", "value": 3}
        assert by_name["g"]["max"] == 1.5
        assert by_name["h"]["count"] == 1


# -- manifest --------------------------------------------------------------


class TestManifest:
    def test_roundtrip_identical_dict(self, tmp_path):
        manifest = RunManifest.create(
            "test", argv=["--x"], seed=7, preset="tiny",
            config={"n": 1, "nested": {"f": 0.5}},
        )
        data_file = tmp_path / "input.bin"
        data_file.write_bytes(b"hello spoofing")
        manifest.add_input("flows", data_file)
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        manifest.finish(
            spans=[SpanRecord("classify.bogon", 0.5, rows=10)],
            metrics=registry,
            exit_code=0,
            complete=True,
            extra={"n_flows": 10, "invalid_counts": {"full": 3}},
        )
        path = manifest.write(tmp_path / "run.manifest.json")
        loaded = RunManifest.load(path)
        assert loaded.to_dict() == manifest.to_dict()

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"schema": "other/1"}')
        with pytest.raises(ValueError):
            RunManifest.load(path)

    def test_file_digest(self, tmp_path):
        f = tmp_path / "f"
        f.write_bytes(b"abc")
        record = file_digest(f)
        assert record["bytes"] == 3
        assert record["sha256"] == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )

    def test_manifest_path_for(self):
        assert str(manifest_path_for("out/table1.txt")).endswith(
            "table1.manifest.json"
        )

    def test_git_sha_independent_of_process_cwd(self, tmp_path, monkeypatch):
        """A run started outside the work tree still names the revision
        of the code it ran: the lookup runs in the package's directory,
        not the process's cwd."""
        import pathlib
        import subprocess

        import repro.obs.manifest as manifest_mod

        package_dir = pathlib.Path(manifest_mod.__file__).parent
        try:
            probe = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=package_dir,
                capture_output=True,
                text=True,
                timeout=10,
            )
        except (OSError, subprocess.SubprocessError):
            pytest.skip("git is not available")
        if probe.returncode != 0:
            pytest.skip("the package is not inside a git work tree")
        monkeypatch.chdir(tmp_path)
        assert current_git_sha() == probe.stdout.strip()

    def test_render_mentions_key_fields(self, tmp_path):
        manifest = RunManifest.create("study", seed=1, preset="tiny")
        manifest.finish(exit_code=0, complete=True)
        text = manifest.render()
        assert "study" in text
        assert "exit=0" in text


# -- classify stage spans (the one timing ledger) --------------------------


def _stage_rows(spans) -> dict[str, int]:
    """Span name → total rows, in first-seen order."""
    return {name: total.rows for name, total in span_totals(spans).items()}


@pytest.fixture(scope="module")
def single_shot_rows(world):
    """Span names and rows of a traced single-shot classify."""
    previous = set_tracer(Tracer(enabled=True))
    try:
        world.classifier.classify(world.scenario.flows)
        return _stage_rows(current_tracer().drain())
    finally:
        set_tracer(previous)


class TestSpanStatsAgreement:
    """Streamed runs' merged spans match a single-shot run's."""

    def test_single_shot(self, world, clean_obs):
        enable_tracing()
        world.classifier.classify(world.scenario.flows)
        spans = current_tracer().drain()
        n = len(world.scenario.flows)
        assert [r.name for r in spans] == (
            ["classify.bogon", "classify.lpm"]
            + [
                f"classify.invalid[{name}]"
                for name in world.classifier.approach_names
            ]
            + ["classify"]
        )
        assert all(r.rows == n for r in spans)
        # The enclosing classify span parents the stages.
        by_name = {r.name: r for r in spans}
        assert by_name["classify.bogon"].parent == "classify"

    def test_streamed_serial(self, world, clean_obs, single_shot_rows):
        enable_tracing()
        stream = world.classifier.classify_stream(
            world.scenario.flows, chunk_rows=3000
        )
        assert stream.n_chunks > 1
        assert _stage_rows(stream.spans) == single_shot_rows

    def test_streamed_parallel(self, world, clean_obs, single_shot_rows,
                               monkeypatch):
        monkeypatch.setenv(MP_START_METHOD_ENV, "fork")
        enable_tracing()
        stream = world.classifier.classify_stream(
            world.scenario.flows, n_workers=2, chunk_rows=3000
        )
        assert stream.n_chunks > 1
        assert _stage_rows(stream.spans) == single_shot_rows

    def test_streamed_parallel_spawn(self, world, clean_obs,
                                     single_shot_rows, monkeypatch):
        monkeypatch.setenv(MP_START_METHOD_ENV, "spawn")
        enable_tracing()
        stream = world.classifier.classify_stream(
            world.scenario.flows, n_workers=2, chunk_rows=6000
        )
        assert stream.n_chunks > 1
        assert _stage_rows(stream.spans) == single_shot_rows

    def test_disabled_by_default_no_spans(self, world, clean_obs):
        assert not tracing_enabled()
        stream = world.classifier.classify_stream(
            world.scenario.flows, chunk_rows=5000
        )
        assert stream.spans == []
        assert current_tracer().records == []


# -- merging chunk spans into stage totals ---------------------------------


class TestStatsMerge:
    def test_rows_per_sec_accumulates_not_averages(self):
        totals = span_totals(
            [
                SpanRecord("classify.lpm", 1.0, rows=100),
                SpanRecord("classify.lpm", 1.0, rows=300),
            ]
        )
        stage = totals["classify.lpm"]
        # 400 rows over 2 seconds — the accumulated ratio, not the
        # mean of the per-chunk ratios (which would be 200).
        assert stage.rows == 400 and stage.seconds == 2.0
        assert stage.rows_per_sec == 200.0
        assert stage.calls == 2

    def test_zero_second_stage(self):
        total = SpanTotal("x")
        assert total.rows_per_sec == 0.0
        total.rows = 10
        assert total.rows_per_sec == float("inf")

    def test_streamed_equals_single_shot_accumulation(
        self, world, clean_obs, single_shot_rows
    ):
        """One span per stage per chunk, summing to the single shot."""
        enable_tracing()
        flows = world.scenario.flows
        stream = world.classifier.classify_stream(flows, chunk_rows=4000)
        totals = span_totals(stream.spans)
        assert stream.n_flows == len(flows)
        assert list(totals) == list(single_shot_rows)
        for name, total in totals.items():
            assert total.calls == stream.n_chunks, name
            assert total.rows == single_shot_rows[name], name


# -- per-chunk latency -----------------------------------------------------


@pytest.mark.parametrize("n_workers", [None, 2])
def test_chunk_seconds_one_positive_observation_per_chunk(
    world, clean_obs, n_workers
):
    stream = world.classifier.classify_stream(
        world.scenario.flows, n_workers=n_workers, chunk_rows=5000
    )
    assert stream.n_chunks > 1
    latency = current_metrics().histogram("stream.chunk_seconds")
    assert latency.count == stream.n_chunks
    assert len(latency.samples) == stream.n_chunks
    assert all(seconds > 0 for seconds in latency.samples)


# -- CLI wiring ------------------------------------------------------------


class TestCliObservability:
    @pytest.fixture()
    def flows_csv(self, world, tmp_path):
        path = tmp_path / "flows.csv"
        save_flows_csv(world.scenario.flows, path)
        return path

    def test_classify_trace_writes_manifest_and_metrics(
        self, world, flows_csv, tmp_path, capsys, clean_obs
    ):
        metrics_out = tmp_path / "metrics.jsonl"
        code = main(
            [
                "classify",
                str(flows_csv),
                "--preset",
                "tiny",
                "--trace",
                "--metrics-out",
                str(metrics_out),
            ]
        )
        assert code == 0
        manifest_path = manifest_path_for(flows_csv)
        assert manifest_path.exists()
        assert metrics_out.exists()
        manifest = RunManifest.load(manifest_path)
        data = manifest.to_dict()
        assert data["command"] == "classify"
        assert data["outcome"] == {"exit_code": 0, "complete": True}
        assert data["inputs"]["flows"]["sha256"]
        # The run counters come from the result, stage timings from
        # the merged chunk spans.
        assert data["n_flows"] == len(world.scenario.flows)
        assert data["rows_dropped"] == 0
        totals = span_totals(data["spans"])
        assert set(data["invalid_counts"]) == {
            name[len("classify.invalid["):-1]
            for name in totals
            if name.startswith("classify.invalid[")
        }
        for name in ("classify.bogon", "classify.lpm"):
            assert totals[name].rows == data["n_flows"], name
        # Metrics JSONL carries per-class row counters and peak RSS.
        names = {
            json.loads(line)["name"]
            for line in metrics_out.read_text().splitlines()
        }
        assert "stream.rows" in names
        assert "peak_rss_bytes" in names
        assert any(name.startswith("rows.") for name in names)

    def test_classify_manifest_out_explicit(
        self, flows_csv, tmp_path, capsys, clean_obs
    ):
        out = tmp_path / "custom.manifest.json"
        code = main(
            [
                "classify",
                str(flows_csv),
                "--preset",
                "tiny",
                "--manifest-out",
                str(out),
            ]
        )
        assert code == 0
        data = RunManifest.load(out).to_dict()
        assert data["seed"] == 42 and data["preset"] == "tiny"
        # Without --trace the manifest still carries the stage spans.
        names = {span["name"] for span in data["spans"]}
        assert {"classify.bogon", "classify.lpm"} <= names
        assert "stages" not in data

    def test_trace_show_renders(self, flows_csv, tmp_path, capsys, clean_obs):
        assert (
            main(
                [
                    "classify",
                    str(flows_csv),
                    "--preset",
                    "tiny",
                    "--trace",
                ]
            )
            == 0
        )
        capsys.readouterr()
        manifest_path = manifest_path_for(flows_csv)
        assert main(["trace", "show", str(manifest_path)]) == 0
        out = capsys.readouterr().out
        assert "run manifest: classify" in out
        assert "classify.lpm" in out
        assert "peak_rss_bytes" in out

    def test_trace_show_missing_file(self, tmp_path, capsys, clean_obs):
        assert main(["trace", "show", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize(
        "payload",
        [
            [{"schema": "repro.run_manifest/1"}],
            {"schema": "repro.run_manifest/1", "spans": [{"seconds": 1.0}]},
            {"schema": "repro.run_manifest/1", "spans": 3},
        ],
        ids=["json-list", "span-without-name", "spans-not-a-list"],
    )
    def test_trace_show_malformed_exits_2(self, tmp_path, capsys, clean_obs,
                                          payload):
        path = tmp_path / "bad.manifest.json"
        path.write_text(json.dumps(payload))
        assert main(["trace", "show", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("cannot read manifest: ")
        assert "Traceback" not in captured.err

    def test_cones_stats_prints_spans(self, capsys, clean_obs):
        assert main(["cones", "--preset", "tiny", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "world.cones" in out
        assert "rows/sec" in out
        assert not tracing_enabled()

    def test_table1_stats_prints_stage_spans(self, capsys, clean_obs):
        assert main(["table1", "--preset", "tiny", "--stats"]) == 0
        out = capsys.readouterr().out
        for name in ("classify.bogon", "classify.lpm",
                     "classify.invalid[full]"):
            assert name in out

    def test_npz_input_digested(self, world, tmp_path, capsys, clean_obs):
        path = tmp_path / "flows.npz"
        save_flows_npz(world.scenario.flows, path)
        out = tmp_path / "m.json"
        code = main(
            [
                "classify",
                str(path),
                "--preset",
                "tiny",
                "--trace",
                "--manifest-out",
                str(out),
            ]
        )
        assert code == 0
        data = RunManifest.load(out).to_dict()
        assert data["inputs"]["flows"]["path"] == str(path)
        # The npz load span is on the ledger too.
        assert any(
            span["name"] == "io.load_flows_npz" for span in data["spans"]
        )

    def test_study_trace_manifest(self, tmp_path, capsys, clean_obs,
                                  monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["study", "--preset", "tiny", "--trace"])
        assert code == 0
        data = RunManifest.load(tmp_path / "repro_study.manifest.json")
        records = data.to_dict()["spans"]
        spans = {span["name"] for span in records}
        assert {span["parent"] for span in records
                if span["name"].startswith("world.cones.")
                or span["name"] == "world.rib.finalize"} == {"world.cones"}
        assert {span["parent"] for span in records
                if span["name"].startswith("world.bgp.")} == {"world.bgp"}
        # World-assembly phases are traced end to end.
        assert {"world.topology", "world.bgp", "world.bgp.propagate",
                "world.bgp.rib", "world.cones", "world.rib.finalize",
                "world.cones.naive", "world.cones.cc", "world.cones.full",
                "world.cones.orgs", "world.traffic", "world.traffic.regular",
                "world.traffic.stray", "world.traffic.leaks",
                "world.traffic.attacks"} <= spans

    def test_warm_start_traces_each_cone_build(self, world, clean_obs):
        """The watch daemon's warm start builds the maps outside any
        world span; each approach still gets its own span."""
        enable_tracing()
        build_valid_space_maps(world.rib, world.as2org)
        records = current_tracer().drain()
        assert [r.name for r in records] == [
            "world.rib.finalize",
            "world.cones.naive", "world.cones.cc", "world.cones.full",
            "world.cones.orgs",
        ]
        assert {r.parent for r in records} == {None}

    def test_quarantine_metric_counted(self, world, tmp_path, capsys,
                                       clean_obs):
        path = tmp_path / "dirty.csv"
        save_flows_csv(world.scenario.flows, path)
        lines = path.read_text().splitlines()
        lines[3] = "not,a,valid,row"
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "m.json"
        code = main(
            [
                "classify",
                str(path),
                "--preset",
                "tiny",
                "--on-error",
                "quarantine",
                "--manifest-out",
                str(out),
            ]
        )
        assert code == 0
        data = RunManifest.load(out).to_dict()
        assert data["metrics"]["ingest.quarantined_rows"]["value"] == 1


# -- manifest round trip under spawn (satellite) ---------------------------


def test_manifest_roundtrip_under_spawn(world, tmp_path, clean_obs,
                                        monkeypatch):
    """write → load → identical dict, with spans from spawn workers."""
    monkeypatch.setenv(MP_START_METHOD_ENV, "spawn")
    enable_tracing()
    stream = world.classifier.classify_stream(
        world.scenario.flows, n_workers=2, chunk_rows=6000
    )
    manifest = RunManifest.create("spawn-roundtrip", seed=world.config.seed)
    manifest.finish(
        spans=stream.spans,
        metrics=current_metrics(),
        complete=stream.complete,
        extra=stream.counters(),
    )
    path = manifest.write(tmp_path / "spawn.manifest.json")
    loaded = RunManifest.load(path)
    assert loaded.to_dict() == manifest.to_dict()
    assert _stage_rows(loaded.to_dict()["spans"]) == _stage_rows(stream.spans)
    assert loaded.to_dict()["n_flows"] == len(world.scenario.flows)


def test_worker_tracer_stays_clean(world, clean_obs):
    """Chunk spans ship in summaries, not the supervisor's tracer."""
    enable_tracing()
    world.classifier.classify_stream(
        world.scenario.flows, n_workers=2, chunk_rows=5000
    )
    names = [r.name for r in current_tracer().drain()]
    # Only the supervisor-side spans remain ambient: the one pool start
    # and the stream.
    assert names == ["classify.pool_start", "classify.stream"]
