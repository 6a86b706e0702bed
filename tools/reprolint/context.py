"""Lint configuration and the contexts checkers run against.

:class:`LintConfig` encodes the repo's real invariants as data — which
file is allowed to build pools, which directories are numpy hot paths,
what the worker-global registry constant is called — so every checker
reads policy from one place and the tests can rewrite it per fixture.
"""

from __future__ import annotations

import ast
import pathlib
from dataclasses import dataclass, field

from tools.reprolint.findings import FileSummary


def _default_pool_allowlist() -> frozenset[str]:
    return frozenset({"src/repro/core/classifier.py"})


def _default_hot_paths() -> tuple[str, ...]:
    return ("src/repro/core", "src/repro/net", "src/repro/cones")


def _default_doc_packages() -> tuple[str, ...]:
    return (
        "src/repro/core",
        "src/repro/io",
        "src/repro/cones",
        "src/repro/obs",
    )


def _default_reference_roots() -> tuple[str, ...]:
    return ("src", "tests", "benchmarks", "examples", "docs")


@dataclass(frozen=True)
class LintConfig:
    """Project policy the rules consult (defaults encode this repo).

    Paths are repo-root-relative POSIX strings; the runner normalises
    every scanned file the same way before rules see it.
    """

    #: Files allowed to construct process pools (RL001) — the one
    #: supervised path in ``core/classifier.py``.
    pool_allowlist: frozenset[str] = field(
        default_factory=_default_pool_allowlist
    )
    #: Directories whose numpy code is hot-path (RL004).
    hot_path_dirs: tuple[str, ...] = field(default_factory=_default_hot_paths)
    #: Library source prefix — RL001/RL003/RL005/RL006 only police
    #: files under it (tests and tools may do what they like).
    src_prefix: str = "src/"
    #: Name of the module-level tuple registering every mutable global
    #: a pool worker reads (RL203).
    worker_registry: str = "_STREAM_GLOBALS"
    #: The spawn re-arm helper a tracing pool initializer must call
    #: (RL003).
    rearm_helper: str = "enable_tracing"
    #: Tracer entry points whose presence in a worker makes RL003 apply.
    tracer_calls: frozenset[str] = frozenset(
        {"current_tracer", "trace", "tracing_enabled"}
    )
    #: Wall-clock timers banned on the classification hot path (RL006);
    #: tracer spans are the one timing ledger.
    wallclock_dirs: tuple[str, ...] = ("src/repro/core",)
    #: Package directories the docstring gate (RL101) covers, and the
    #: coverage threshold it enforces.
    docstring_packages: tuple[str, ...] = field(
        default_factory=_default_doc_packages
    )
    docstring_threshold: float = 90.0
    #: Roots whose ``*.py`` (and ``*.md`` backtick tokens) count as
    #: references when deciding a public symbol is dead (RL008).
    reference_roots: tuple[str, ...] = field(
        default_factory=_default_reference_roots
    )
    #: Paths (directories or files) whose file writes must be
    #: crash-safe: every truncating write goes through the atomic
    #: write-tmp-fsync-rename helpers or implements the same dance
    #: inline (RL009), and every rename is preceded by an fsync on
    #: every path (RL302).
    durable_dirs: tuple[str, ...] = (
        "src/repro/stream/durable",
        "src/repro/util/atomicio.py",
    )
    #: Call names RL009 accepts as the blessed atomic-write helpers.
    atomic_write_helpers: frozenset[str] = frozenset(
        {"atomic_write_bytes", "atomic_write_text"}
    )
    #: Roots the whole-program index (RL2xx/RL3xx) parses. Module
    #: names strip the root: ``src/repro/x.py`` → ``repro.x``.
    program_roots: tuple[str, ...] = ("src",)
    #: Call names whose arguments cross a pickle boundary (RL203), in
    #: addition to pool ``initargs=`` / submit arguments.
    pickle_sinks: frozenset[str] = frozenset(
        {"pickle.dumps", "pickle.dump"}
    )
    #: Directories whose numpy code the dtype/shape abstract
    #: interpretation (RL304/RL305) covers — the hot paths.
    dtype_scope_dirs: tuple[str, ...] = (
        "src/repro/core",
        "src/repro/net",
        "src/repro/cones",
    )
    #: Packages ``--all-gates`` runs the annotation-floor gate over,
    #: and the floor itself (mirrors the mypy strict surface).
    strict_type_paths: tuple[str, ...] = (
        "src/repro/net",
        "src/repro/core",
        "src/repro/obs",
        "src/repro/errors.py",
    )
    type_floor: float = 100.0

    def in_src(self, rel: str) -> bool:
        """Whether ``rel`` is library source (policy rules apply)."""
        return rel.startswith(self.src_prefix)

    def in_hot_path(self, rel: str) -> bool:
        """Whether ``rel`` lives in a numpy hot-path directory."""
        return any(rel.startswith(d + "/") or rel == d for d in self.hot_path_dirs)

    def in_wallclock_scope(self, rel: str) -> bool:
        """Whether RL006 polices this file unconditionally."""
        return any(
            rel.startswith(d + "/") or rel == d for d in self.wallclock_dirs
        )

    def in_durable_scope(self, rel: str) -> bool:
        """Whether RL009 and RL302 police this file's writes."""
        return any(
            rel.startswith(d + "/") or rel == d for d in self.durable_dirs
        )

    def in_dtype_scope(self, rel: str) -> bool:
        """Whether RL304/RL305 interpret this file's numpy code."""
        return any(
            rel.startswith(d + "/") or rel == d
            for d in self.dtype_scope_dirs
        )

    def in_program_scope(self, rel: str) -> bool:
        """Whether the whole-program index covers this file."""
        return any(
            rel.startswith(d + "/") or rel == d
            for d in self.program_roots
        )


@dataclass
class FileContext:
    """Everything a per-file checker may look at for one module."""

    path: pathlib.Path
    rel: str
    tree: ast.Module
    lines: list[str]
    config: LintConfig


@dataclass
class ProjectContext:
    """Whole-tree view handed to project checkers after the file pass."""

    config: LintConfig
    root: pathlib.Path
    summaries: list[FileSummary]
    #: Markdown files among the scanned inputs (RL102).
    markdown: list[pathlib.Path]
    #: Extra identifier references harvested outside the scanned set
    #: (benchmarks/examples/docs) so RL008 does not flag symbols used
    #: only there.
    extra_references: set[str] = field(default_factory=set)
    #: Lazily built whole-program index (see :meth:`program_index`).
    _program_index: object | None = field(default=None, repr=False)

    def program_index(self):
        """The whole-program index, built on first use and shared by
        every RL2xx checker in the run.

        Parses the program roots directly from disk rather than the
        scanned set: the concurrency rules need the *whole* program to
        resolve cross-module call chains even when the invocation only
        scanned a subset of files.
        """
        if self._program_index is None:
            from tools.reprolint.program import build_index

            self._program_index = build_index(self.root, self.config)
        return self._program_index

    def scanned_program_files(self) -> bool:
        """Whether this invocation scanned any program-root file (the
        RL2xx rules only gate what the run actually covered)."""
        return any(
            self.config.in_program_scope(summary.path)
            for summary in self.summaries
        )
