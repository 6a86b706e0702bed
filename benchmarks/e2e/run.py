#!/usr/bin/env python3
"""End-to-end benchmark of the spoofed-traffic detection pipeline.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload NAME|all [--seed S]
        [--seconds T] [--trace 0|1] [--out FILE] [--spans FILE]

A run builds the workload's inputs from the seed, times the set-up of
the system under test several times, runs closed-loop passes for
``--seconds``, checks every output, and prints its metrics, one per
line with its unit, followed by a JSON summary as the last line of
standard output. Times are reported at a reference machine speed
(``workloads.Clock``). ``--trace 1`` times the program's layers with
call-through wrappers and prints the per-layer metrics instead of the
end-to-end ones. Outputs are checked against the committed expected
files where one exists for the seed, and against a second path of the
program (serial against parallel, cut-and-resumed against
uninterrupted) always. The exit status is 0 only when every check
passed. ``--workload all`` runs each workload in a fresh process.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]

WORKLOAD_NAMES = (
    "study", "classify_reuse", "classify_flood", "watch_churn",
    "watch_replay",
)

#: name → (unit, better). Every workload reports every one of them.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "items_per_s": ("1/s", "higher"),
    "op_p50_ms": ("ms", "lower"),
}

#: Fewest traced/untraced pass pairs a traced run makes: single pairs
#: differ by 10% or more on a shared machine.
TRACED_PAIRS = 3


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="how long the passes run (default: 15)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: time the layers, print per-layer metrics")
    parser.add_argument("--preset", default="small",
                        choices=("tiny", "small", "default"),
                        help="world size (default: small)")
    parser.add_argument("--out", type=pathlib.Path,
                        help="append this run's record to a JSON list")
    parser.add_argument("--spans", type=pathlib.Path,
                        help="write the traced run's spans as JSON")
    parser.add_argument("--expected", type=pathlib.Path,
                        default=HERE / "expected",
                        help="directory of expected outputs")
    parser.add_argument("--record", action="store_true",
                        help="write this run's outputs as the expected ones")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all" and args.spans is not None:
        parser.error("--spans needs a single workload")
    return args


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def measure(workload, seconds: float, recorder, targets):
    """Closed-loop passes for ``seconds``, in whole cycles over the
    workload's input units.

    Returns ``(unit, traced, wall, result)`` per pass and the peak RSS
    after the first pass. Untraced runs do one pass per unit. Traced
    runs do an untraced and a traced pass per unit, alternating which
    goes first, so the tracing overhead is measured on identical work.
    The first cycle always runs; another starts only while at least
    half of one still fits in the time, or while a traced run has made
    fewer than :data:`TRACED_PAIRS` pairs.
    """
    records = []
    first_peak = None
    deadline = time.perf_counter() + seconds
    unit = 0
    while True:
        began = time.perf_counter()
        for _ in range(workload.units):
            modes = (False,) if recorder is None else (
                (False, True) if unit % 2 == 0 else (True, False))
            for traced in modes:
                started = time.perf_counter()
                if traced:
                    with recorder.installed(targets, f"pass-{unit}"):
                        result = workload.run_pass(unit, recorder)
                else:
                    result = workload.run_pass(unit, None)
                records.append(
                    (unit, traced, time.perf_counter() - started, result))
                if first_peak is None:
                    # Later passes only add allocator fragmentation, and
                    # how many run depends on the machine's speed.
                    first_peak = peak_rss_mb()
            unit += 1
        now = time.perf_counter()
        if now + (now - began) / 2 > deadline and (
                recorder is None or unit >= TRACED_PAIRS):
            return records, first_peak


def compare_expected(path: pathlib.Path, records, units: int, record: bool):
    """Check (or, with ``record``, write) every pass's output against the
    expected file, keyed by input unit. Returns ``(checks, problems)``."""
    outputs = [(str(unit % units), json.loads(json.dumps(result.output)))
               for unit, _, _, result in records]
    if record:
        existing = json.loads(path.read_text()) if path.exists() else {}
        existing.update(outputs)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(existing, sort_keys=True) + "\n")
        return 0, []
    expected = json.loads(path.read_text()) if path.exists() else {}
    checked = [(i, output == expected[key])
               for i, (key, output) in enumerate(outputs) if key in expected]
    return len(checked), [f"pass {i}: output differs from {path.name}"
                          for i, same in checked if not same]


def run_one(args: argparse.Namespace) -> int:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: the program's source is missing ({src})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from layers import PER_LAYER, TARGETS, LayerView, mean_counters
    from spans import Recorder, nesting_errors, to_records
    from workloads import WORKLOADS, Clock

    work_dir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, args.preset, work_dir)
    recorder = Recorder() if args.trace else None
    try:
        workload.prepare()
        setup_times = []
        for index in range(workload.setups):
            if recorder is not None and index == workload.setups - 1:
                with recorder.installed(TARGETS, "setup"), \
                        Clock(recorder) as clock:
                    own = workload.setup()
            else:
                with Clock() as clock:
                    own = workload.setup()
            setup_times.append(
                (clock.seconds if own is None else own, clock.slowdown))
        workload.after_setup()
        records, first_peak = measure(workload, args.seconds, recorder,
                                      TARGETS)
        verify_checks, problems = workload.verify(
            [result.output for _, _, _, result in records])
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass

    results = [result for _, _, _, result in records]
    attempted = verify_checks + sum(len(r.latencies) + r.checks
                                    for r in results)
    for result in results:
        problems.extend(result.problems)
    expected_path = (args.expected
                     / f"{args.workload}-{args.preset}-{args.seed}.json")
    checks, mismatches = compare_expected(
        expected_path, records, workload.units, args.record and not problems)
    attempted += checks
    problems.extend(mismatches)

    # Times at the reference speed (see workloads.Clock).
    latencies = [x / r.slowdown for r in results for x in r.latencies]
    if recorder is None:
        values = {
            "setup_s": statistics.median(w / s for w, s in setup_times),
            "peak_rss_mb": first_peak,
            "items_per_s": statistics.median(r.items * r.slowdown / r.busy
                                             for r in results),
            "op_p50_ms": 1000.0 * statistics.median(latencies),
        }
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
    else:
        attempted += 1
        nesting = nesting_errors(recorder.spans)
        if nesting:
            problems.append(f"{len(nesting)} spans do not nest: {nesting[0]}")
        traced = [(u, r) for u, t, _, r in records if t]
        counters = mean_counters([r.counters for _, r in traced])
        walls = {(u, t): wall / r.slowdown for u, t, wall, r in records}
        counters["trace.overhead_pct"] = 100.0 * statistics.median(
            walls[(u, True)] / walls[(u, False)] - 1.0 for u, _ in traced)
        counters["machine.slowdown"] = statistics.median(
            r.slowdown for _, r in traced)
        counters["op.samples"] = len(latencies)
        if len(latencies) >= 100:  # ten samples beyond the 90th percentile
            counters["op.p90_ms"] = 1000.0 * statistics.quantiles(
                latencies, n=10, method="inclusive")[-1]
        view = LayerView(recorder.spans, [f"pass-{u}" for u, _ in traced],
                         counters)
        values = {name: fn(view) for name, (_, _, fn) in PER_LAYER.items()}
        units = {name: unit for name, (unit, _, _) in PER_LAYER.items()}
        for label in sorted(recorder.absent):
            print(f"absent: {label}", file=sys.stderr)
        if args.spans is not None:
            args.spans.write_text(json.dumps(to_records(recorder.spans)))

    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    summary = {
        "correct": not problems,
        "attempted": max(attempted, 1),
        "failed": len(problems),
        "metrics": {name: {"value": float(values[name]), "unit": units[name]}
                    for name in units},
    }
    print(f"{args.workload} seed {args.seed} ({args.preset}): "
          f"{len(records)} passes, setups {setup_times}")
    for name, metric in summary["metrics"].items():
        print(f"  {name:<28} {metric['value']:>16.6g} {metric['unit']}")
    if args.out is not None:
        _append_record(args.out, {
            "workload": args.workload,
            "seed": args.seed,
            "preset": args.preset,
            "seconds": args.seconds,
            "trace": args.trace,
            **summary,
            "passes": len(records),
            # [unit, traced, seconds, slowdown] per pass, so the tracing
            # overhead can be pooled over the pairs of several runs; raw
            # seconds, as [seconds, slowdown] per set-up.
            "walls": [[u, t, wall, r.slowdown] for u, t, wall, r in records],
            "setup_times": setup_times,
            "problems": problems,
            "absent": sorted(recorder.absent) if recorder else [],
            "host": {"python": platform.python_version(),
                     "machine": platform.machine(),
                     "cpus": os.cpu_count()},
            "time": datetime.datetime.now(datetime.timezone.utc)
            .isoformat(timespec="seconds"),
        })
    print(json.dumps(summary))
    return 0 if not problems else 1


def _append_record(path: pathlib.Path, record: dict) -> None:
    runs = json.loads(path.read_text()) if path.exists() else []
    runs.append(record)
    path.write_text(json.dumps(runs, indent=1) + "\n")


def run_all(args: argparse.Namespace) -> int:
    status = 0
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(pathlib.Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--preset", args.preset, "--expected", str(args.expected)]
        if args.out is not None:
            command += ["--out", str(args.out)]
        if args.record:
            command.append("--record")
        status = max(status, subprocess.run(command).returncode)
    return status


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
