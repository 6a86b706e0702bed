"""Smoke tests of the end-to-end benchmark, on the tiny preset.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import compare

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(*args: str) -> tuple[int, list[dict]]:
    """Run the benchmark CLI; return its exit status and JSON lines."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--preset", "tiny",
         "--seconds", "0.5", *args],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    lines = [json.loads(line) for line in proc.stdout.splitlines()
             if line.startswith("{")]
    return proc.returncode, lines


def test_untraced_runs_print_the_end_to_end_metrics():
    status, results = run("--workload", "all", "--seed", "3")
    assert status == 0
    assert len(results) == len(WORKLOADS)
    names = [m["name"] for m in BENCH["end_to_end"]]
    for result in results:
        assert result["correct"] and result["failed"] == 0
        assert list(result["metrics"]) == names
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_runs_print_the_layers_and_nested_spans(tmp_path):
    names = [m["name"] for m in BENCH["per_layer"]]
    for workload in WORKLOADS:
        spans_file = tmp_path / f"{workload}.json"
        status, (result,) = run("--workload", workload, "--trace", "1",
                                "--spans", str(spans_file))
        assert status == 0 and result["correct"], workload
        assert list(result["metrics"]) == names
        spans = json.loads(spans_file.read_text())
        assert spans, workload
        for span in spans:
            if span["parent"] is None:
                continue
            parent = spans[span["parent"]]
            assert parent["thread"] == span["thread"]
            assert parent["run"] == span["run"]
            assert parent["start"] <= span["start"] + 1e-6
            assert span["end"] <= parent["end"] + 1e-6
            assert span["self"] >= -1e-6


def test_a_perturbed_expected_file_fails(tmp_path):
    args = ("--workload", "classify_reuse", "--seed", "5",
            "--expected", str(tmp_path))
    assert run(*args, "--record")[0] == 0
    (expected_file,) = tmp_path.iterdir()
    assert run(*args)[0] == 0
    expected = json.loads(expected_file.read_text())
    expected["0"]["counts"]["full+orgs"][3] += 1
    expected_file.write_text(json.dumps(expected))
    status, (result,) = run(*args)
    assert status == 1
    assert not result["correct"] and result["failed"] >= 1


def _runs(workload: str, items_per_s: list[float]) -> list[dict]:
    metrics = {m["name"]: 1.0 for m in BENCH["end_to_end"]}
    return [{"workload": workload, "seed": seed, "trace": 0,
             "metrics": {name: {"value": items if name == "items_per_s"
                                else value}
                         for name, value in metrics.items()}}
            for seed, items in enumerate(items_per_s)]


def test_compare_flags_a_synthetic_regression(tmp_path, capsys):
    parent = tmp_path / "parent.json"
    change = tmp_path / "change.json"
    parent.write_text(json.dumps(_runs("study", [100, 101, 99, 100, 102])))
    change.write_text(json.dumps(_runs("study", [70, 71, 69, 70, 72])))
    assert compare.main([str(parent), str(change)]) == 1
    assert "regression" in capsys.readouterr().out
    assert compare.main([str(parent), str(parent)]) == 0
    assert "regression" not in capsys.readouterr().out


def test_compare_claims_a_win_only_after_ten_pairs():
    def verdict(pairs: int) -> str:
        parent = [100.0 + i % 3 for i in range(pairs)]
        change = [120.0 + i % 3 for i in range(pairs)]
        return compare.verdict(parent, change, "higher", 0.1)["verdict"]

    assert verdict(3) == "too_few_pairs"
    assert verdict(9) == "too_few_pairs"
    assert verdict(10) == "win"
