"""``--all-gates``: every static gate behind one invocation.

``python -m tools.reprolint --all-gates`` runs reprolint (whose RL101
and RL102 are the docstring and doc-link gates), mypy and the
annotation-floor gate in sequence, prints one composite table, and
exits non-zero iff *any* gate failed — one step, one artifact, one
place to read the outcome.

The annotation floor reads :class:`~tools.reprolint.context.LintConfig`
(``strict_type_paths``/``type_floor`` mirror the pyproject mypy strict
surface), so the composite run and the standalone tool cannot drift
apart.

mypy is the one gate that is not stdlib-only; when it is not
installed (the repro container bakes it in, bare environments may
not) the gate reports ``skipped`` and does not fail the run.
"""

from __future__ import annotations

import importlib.util
import pathlib
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any

from tools import type_coverage
from tools.reprolint.context import LintConfig

__all__ = ["GateResult", "run_gates"]


@dataclass
class GateResult:
    """Outcome of one gate in the composite run."""

    name: str
    exit_code: int
    seconds: float
    #: ``ok`` / ``fail`` / ``skipped``.
    status: str

    def to_dict(self) -> dict[str, Any]:
        """JSON-report entry."""
        return {
            "name": self.name,
            "exit_code": self.exit_code,
            "seconds": round(self.seconds, 3),
            "status": self.status,
        }


def _status(exit_code: int) -> str:
    return "ok" if exit_code == 0 else "fail"


def _run_mypy(root: pathlib.Path) -> GateResult:
    began = time.perf_counter()
    if importlib.util.find_spec("mypy") is None:
        return GateResult("mypy", 0, time.perf_counter() - began, "skipped")
    proc = subprocess.run(
        [sys.executable, "-m", "mypy", "src/repro"],
        cwd=root,
        capture_output=True,
        text=True,
    )
    elapsed = time.perf_counter() - began
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
    return GateResult("mypy", proc.returncode, elapsed, _status(proc.returncode))


def run_gates(
    root: pathlib.Path,
    lint_exit: int,
    *,
    config: LintConfig | None = None,
    quiet: bool = False,
) -> tuple[list[dict[str, Any]], int]:
    """Run the companion gates; returns (table rows, composite exit).

    ``lint_exit`` is the already-computed reprolint outcome, included
    in the table so the one printout covers all three gates. The
    composite exit code is 0 iff every gate is ok or skipped, else the
    worst gate's code (capped at 1 for the caller to merge — each
    tool's *distinct* exit codes remain visible in the table).
    """
    config = config or LintConfig()
    results = [
        GateResult("reprolint", lint_exit, 0.0, _status(lint_exit)),
        _run_mypy(root),
    ]

    began = time.perf_counter()
    type_paths = [str(root / path) for path in config.strict_type_paths
                  if (root / path).exists()]
    if type_paths:
        code = type_coverage.main(
            ["--require", str(config.type_floor)] + type_paths
        )
        results.append(
            GateResult(
                "type-coverage", code, time.perf_counter() - began,
                _status(code),
            )
        )
    else:
        # The tool requires at least one path; a tree without the
        # configured packages has nothing to gate.
        results.append(
            GateResult(
                "type-coverage", 0, time.perf_counter() - began, "skipped"
            )
        )

    if not quiet:
        print()
        print("gate           exit  status   seconds")
        for result in results:
            print(
                f"{result.name:<14} {result.exit_code:>4}  "
                f"{result.status:<8} {result.seconds:7.2f}"
            )
    composite = 0 if all(
        r.status in ("ok", "skipped") for r in results
    ) else 1
    return [r.to_dict() for r in results], composite
