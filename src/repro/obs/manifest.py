"""Run manifests: one JSON file tying an output to its exact run.

A :class:`RunManifest` records everything needed to reproduce — or
audit — the run that produced an artefact: the command and arguments,
world seed/preset/config, SHA-256 digests of every input file, the
repository git SHA, interpreter and numpy versions, the run's
counters, the span ledger (the one source of stage timings), a
metrics snapshot, and the outcome (exit code, completeness). The
CLI, the experiment runner and the benchmark harness write one next
to every output they produce, so a
number in ``benchmarks/output/`` is never orphaned from the run that
generated it (the HAW reproducibility study of this paper found
exactly that gap to be the main obstacle to reproduction).

The manifest is a thin wrapper over a plain dict: ``write`` →
``load`` → :meth:`to_dict` round-trips bit-identically (asserted in
``tests/test_obs.py``, including under spawn workers). ``repro trace
show <manifest>`` renders it back as a span/metrics report.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import platform
import subprocess
import sys
import time
from typing import Any, Iterable

#: Manifest schema identifier; bump on breaking field changes.
SCHEMA = "repro.run_manifest/1"


def file_digest(path: str | pathlib.Path) -> dict[str, Any]:
    """SHA-256 digest record of one input file (path, bytes, sha256)."""
    path = pathlib.Path(path)
    digest = hashlib.sha256()
    size = 0
    with open(path, "rb") as handle:
        while chunk := handle.read(1 << 20):
            digest.update(chunk)
            size += len(chunk)
    return {
        "path": str(path),
        "bytes": size,
        "sha256": digest.hexdigest(),
    }


def current_git_sha(
    cwd: str | pathlib.Path | None = None,
) -> str | None:
    """The repository HEAD SHA, or ``None`` outside a work tree.

    ``cwd`` defaults to this package's own directory, so a run started
    from outside the work tree still records the revision of the code
    it ran.
    """
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd if cwd is not None else pathlib.Path(__file__).parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


class RunManifest:
    """A recorded run: environment, inputs, timings, metrics, outcome."""

    def __init__(self, data: dict[str, Any]) -> None:
        self.data = data

    # -- construction ------------------------------------------------------

    @classmethod
    def create(
        cls,
        command: str,
        *,
        argv: list[str] | None = None,
        seed: int | None = None,
        preset: str | None = None,
        config: dict[str, Any] | None = None,
    ) -> "RunManifest":
        """Open a manifest for a run that is starting now.

        Captures the invocation (``command``, ``argv``), the world
        parameters (``seed``, ``preset``, ``config``) and the
        environment (git SHA, python/numpy versions, platform, pid).
        Finish it with :meth:`finish` before :meth:`write`.
        """
        try:
            import numpy

            numpy_version = numpy.__version__
        except ImportError:  # pragma: no cover - numpy is a hard dep
            numpy_version = None
        return cls(
            {
                "schema": SCHEMA,
                "command": command,
                "argv": list(argv) if argv is not None else None,
                "seed": seed,
                "preset": preset,
                "config": config,
                "started": time.strftime(
                    "%Y-%m-%dT%H:%M:%S%z", time.localtime()
                ),
                "started_unix": time.time(),
                "git_sha": current_git_sha(),
                "python": sys.version.split()[0],
                "numpy": numpy_version,
                "platform": platform.platform(),
                "hostname": platform.node(),
                "pid": None,  # filled by finish() so forked children
                # that inherit an open manifest stamp their own pid
                "inputs": {},
                "spans": [],
                "metrics": {},
                "outcome": None,
            }
        )

    def add_input(self, name: str, path: str | pathlib.Path) -> None:
        """Digest one input file into the manifest's ``inputs`` map."""
        self.data["inputs"][name] = file_digest(path)

    def finish(
        self,
        *,
        spans: Iterable[Any] | None = None,
        metrics: Any = None,
        exit_code: int = 0,
        complete: bool = True,
        extra: dict[str, Any] | None = None,
    ) -> "RunManifest":
        """Seal the manifest with the run's results; returns self.

        ``spans`` is an iterable of :class:`repro.obs.trace.SpanRecord`
        (or their dicts), ``metrics`` a
        :class:`repro.obs.metrics.MetricsRegistry`; ``extra`` adds
        top-level fields, such as a classification result's
        ``counters()``.
        """
        import os

        now = time.time()
        self.data["finished"] = time.strftime(
            "%Y-%m-%dT%H:%M:%S%z", time.localtime()
        )
        self.data["duration_seconds"] = now - self.data["started_unix"]
        self.data["pid"] = os.getpid()
        if spans is not None:
            self.data["spans"] = [
                span if isinstance(span, dict) else span.to_dict()
                for span in spans
            ]
        if metrics is not None:
            self.data["metrics"] = metrics.snapshot()
        self.data["outcome"] = {"exit_code": exit_code, "complete": complete}
        if extra:
            self.data.update(extra)
        return self

    # -- round trip --------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """The manifest as a plain (JSON-serialisable) dict."""
        return self.data

    def write(self, path: str | pathlib.Path) -> pathlib.Path:
        """Serialise to ``path`` as indented JSON; returns the path.

        The write is atomic (write-tmp-fsync-rename): a run killed by
        SIGTERM/SIGKILL mid-write never leaves a truncated manifest
        under the final name — readers see the previous complete
        manifest or the new complete one, nothing in between.
        """
        from repro.util.atomicio import atomic_write_text

        path = pathlib.Path(path)
        atomic_write_text(
            path, json.dumps(self.data, indent=2, sort_keys=True) + "\n"
        )
        return path

    @classmethod
    def load(cls, path: str | pathlib.Path) -> "RunManifest":
        """Read a manifest written by :meth:`write`.

        Raises :class:`ValueError` when the file is not a JSON object
        of this schema or a span record does not parse.
        """
        from repro.obs.trace import SpanRecord

        data = json.loads(pathlib.Path(path).read_text())
        if not isinstance(data, dict):
            raise ValueError(
                f"{path}: not a {SCHEMA} manifest "
                f"(top level is a {type(data).__name__}, not an object)"
            )
        if data.get("schema") != SCHEMA:
            raise ValueError(
                f"{path}: not a {SCHEMA} manifest "
                f"(schema={data.get('schema')!r})"
            )
        spans = data.get("spans", [])
        if not isinstance(spans, list):
            raise ValueError(f"{path}: spans is not a list")
        for index, span in enumerate(spans):
            try:
                SpanRecord.from_dict(span)
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise ValueError(
                    f"{path}: span record {index} is malformed ({exc!r})"
                ) from exc
        return cls(data)

    # -- reporting ---------------------------------------------------------

    def render(self) -> str:
        """Human-readable report (the ``repro trace show`` output)."""
        from repro.obs.trace import render_spans

        data = self.data
        outcome = data.get("outcome") or {}
        lines = [
            f"run manifest: {data.get('command')} "
            f"(schema {data.get('schema')})",
            f"  started   {data.get('started')}  "
            f"duration {data.get('duration_seconds', 0.0):.3f}s",
            f"  git       {data.get('git_sha') or 'unknown'}",
            f"  python    {data.get('python')}  numpy {data.get('numpy')}",
            f"  seed      {data.get('seed')}  preset {data.get('preset')}",
            f"  outcome   exit={outcome.get('exit_code')} "
            f"complete={outcome.get('complete')}",
        ]
        if data.get("inputs"):
            lines.append("  inputs:")
            for name, record in data["inputs"].items():
                lines.append(
                    f"    {name}: {record['path']} "
                    f"({record['bytes']} bytes, "
                    f"sha256 {record['sha256'][:12]}…)"
                )
        if data.get("spans"):
            lines.append("  spans:")
            lines.append(render_spans(data["spans"]))
        if data.get("metrics"):
            lines.append("  metrics:")
            for name, record in sorted(data["metrics"].items()):
                kind = record.get("kind")
                if kind == "histogram":
                    lines.append(
                        f"    {name:<28} histogram n={record['count']} "
                        f"mean={record['mean']:.4f} p50={record['p50']:.4f} "
                        f"p99={record['p99']:.4f}"
                    )
                else:
                    lines.append(
                        f"    {name:<28} {kind} value={record['value']}"
                    )
        return "\n".join(lines)


def manifest_path_for(output: str | pathlib.Path) -> pathlib.Path:
    """The conventional manifest path next to an output file.

    ``benchmarks/output/table1.txt`` → ``…/table1.manifest.json``;
    an extensionless output gets ``.manifest.json`` appended.
    """
    output = pathlib.Path(output)
    return output.with_suffix(".manifest.json")
