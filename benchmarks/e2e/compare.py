#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark runs, one row per workload.

    python3 benchmarks/e2e/compare.py A.json B.json

``A`` (the parent) and ``B`` (the change) are files written by
``run.py --out``: JSON lists of run records. ``FILE:KEY`` selects one
list from a JSON object, e.g. ``results/baseline.json:set1``. Only
untraced runs count. Runs of a workload are paired in the order they
were made, so run parent and change alternately, switching which goes
first. For every end-to-end metric in ``BENCHMARK.json`` the verdict
is, in this order:

* ``unresolved`` — A's quartile distance over its median exceeds the
  metric's bound, and not every B run beats every A run;
* ``regression`` — B's median is worse than A's by more than the bound;
* ``win`` — B wins at least nine tenths of the pairs (ties count for
  neither) and the medians differ by more than A's quartile distance;
* ``too_few_pairs`` — B would win, but fewer than ten pairs were run;
* ``same`` — otherwise.

The exit status is 1 when any metric regresses on any workload.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys

HERE = pathlib.Path(__file__).resolve().parent

#: Pairs a gain needs before it may be claimed.
MIN_PAIRS = 10


def load_runs(spec: str) -> list[dict]:
    """Untraced run records from ``FILE`` or ``FILE:KEY``."""
    path, _, key = spec.partition(":")
    data = json.loads(pathlib.Path(path).read_text())
    if key:
        data = data[key]
    return [run for run in data if run.get("trace", 0) == 0]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(a: list[float], b: list[float], better: str, bound: float) -> dict:
    """Medians, quartiles, pair wins and the verdict for one metric."""
    sign = 1.0 if better == "higher" else -1.0
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    worse = sign * (a_med - b_med) / a_med if a_med else 0.0
    spread = (a_q3 - a_q1) / a_med if a_med else 0.0
    all_better = all(sign * (y - x) > 0 for x in a for y in b)
    if spread > bound and not all_better:
        outcome = "unresolved"
    elif worse > bound:
        outcome = "regression"
    elif wins >= 0.9 * len(pairs) and abs(b_med - a_med) > a_q3 - a_q1:
        outcome = "win" if len(pairs) >= MIN_PAIRS else "too_few_pairs"
    else:
        outcome = "same"
    return {"a": (a_q1, a_med, a_q3), "b": (b_q1, b_med, b_q3),
            "change": (b_med - a_med) / a_med if a_med else 0.0,
            "wins": wins, "pairs": len(pairs),
            "spread": spread, "verdict": outcome}


def compare(a_runs: list[dict], b_runs: list[dict], bench: dict) -> dict:
    """workload → metric → :func:`verdict` result."""
    table: dict[str, dict[str, dict]] = {}
    workloads = [w["name"] for w in bench["workloads"]]
    for workload in workloads:
        a = [r for r in a_runs if r["workload"] == workload]
        b = [r for r in b_runs if r["workload"] == workload]
        if not a or not b:
            continue
        if [r["seed"] for r in a[:len(b)]] != [r["seed"] for r in b[:len(a)]]:
            print(f"warning: {workload}: paired runs have different seeds",
                  file=sys.stderr)
        table[workload] = {
            m["name"]: verdict([r["metrics"][m["name"]]["value"] for r in a],
                               [r["metrics"][m["name"]]["value"] for r in b],
                               m["better"], m["bound"])
            for m in bench["end_to_end"]
        }
    return table


def render(table: dict, bench: dict) -> str:
    names = [m["name"] for m in bench["end_to_end"]]
    lines = [f"{'workload':<16}" + "".join(f"{n:>24}" for n in names)]
    for workload, metrics in table.items():
        cells = [f"{metrics[n]['change']:+.1%} {metrics[n]['verdict']}"
                 for n in names]
        lines.append(f"{workload:<16}" + "".join(f"{c:>24}" for c in cells))
    lines.append("")
    for workload, metrics in table.items():
        lines.append(workload)
        for name in names:
            r = metrics[name]
            lines.append(
                f"  {name:<12} A {r['a'][1]:.6g} [{r['a'][0]:.6g}, "
                f"{r['a'][2]:.6g}]  B {r['b'][1]:.6g} [{r['b'][0]:.6g}, "
                f"{r['b'][2]:.6g}]  wins {r['wins']}/{r['pairs']}  "
                f"A spread {r['spread']:.1%}  {r['verdict']}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a", help="parent runs: FILE or FILE:KEY")
    parser.add_argument("b", help="change runs: FILE or FILE:KEY")
    args = parser.parse_args(argv)
    bench = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    table = compare(load_runs(args.a), load_runs(args.b), bench)
    print(render(table, bench))
    regressed = any(r["verdict"] == "regression"
                    for metrics in table.values() for r in metrics.values())
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
