"""The reprolint driver: collect files, analyze, report, gate.

``python -m tools.reprolint src tests docs`` is the one static gate:
per-file rules run over every ``*.py`` (in parallel worker processes
when the file count warrants it), project rules run once over the
merged cross-file summaries, inline disables and the committed
baseline are applied, and the exit code is CI-ready:

* 0 — no active findings;
* 1 — at least one active finding (the report lists them);
* 2 — usage or internal error (bad paths, unreadable baseline).

Output is human one-liners by default; ``--format json`` (or
``--json-out report.json`` alongside the human output) emits the full
machine-readable ledger including suppressed findings, per-rule
statistics, and stale baseline entries.
"""

from __future__ import annotations

import argparse
import ast
import concurrent.futures
import json
import os
import pathlib
import re
import subprocess
import sys
import time
from typing import Any

from tools.reprolint import checks  # noqa: F401  (import = registration)
from tools.reprolint.baseline import (
    Baseline,
    prune_baseline,
    write_baseline,
)
from tools.reprolint.cache import (
    DEFAULT_CACHE_NAME,
    ResultCache,
    file_sha256,
    program_digest,
)
from tools.reprolint.context import FileContext, LintConfig, ProjectContext
from tools.reprolint.findings import (
    FileSummary,
    Finding,
    apply_inline,
    inline_disables,
)
from tools.reprolint.registry import all_rules, file_checkers, project_checkers

#: Directories never scanned, wherever they appear.
SKIP_DIRS = {
    ".git",
    "__pycache__",
    ".pytest_cache",
    ".benchmarks",
    "node_modules",
}

#: Rule id used for unparsable files (not suppressible inline — a file
#: that does not parse cannot carry a trustworthy pragma).
PARSE_ERROR_RULE = "RL000"

#: Identifier-looking tokens inside markdown backticks (reference
#: corpus for RL008).
_MD_IDENTIFIER = re.compile(r"`[^`\n]*`")
_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _skip(path: pathlib.Path) -> bool:
    return any(part in SKIP_DIRS or part.endswith(".egg-info")
               for part in path.parts)


def collect_files(
    root: pathlib.Path, inputs: list[str]
) -> tuple[list[pathlib.Path], list[pathlib.Path]]:
    """Python and markdown files under the given inputs, deduplicated."""
    python: dict[pathlib.Path, None] = {}
    markdown: dict[pathlib.Path, None] = {}
    for item in inputs:
        path = (root / item) if not pathlib.Path(item).is_absolute() else (
            pathlib.Path(item)
        )
        if path.is_dir():
            for found in sorted(path.rglob("*.py")):
                if not _skip(found):
                    python.setdefault(found, None)
            for found in sorted(path.rglob("*.md")):
                if not _skip(found):
                    markdown.setdefault(found, None)
        elif path.suffix == ".py" and path.exists():
            python.setdefault(path, None)
        elif path.suffix == ".md" and path.exists():
            markdown.setdefault(path, None)
        elif not path.exists():
            raise FileNotFoundError(str(path))
    return list(python), list(markdown)


def _rel(path: pathlib.Path, root: pathlib.Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def module_summary(tree: ast.Module, rel: str) -> FileSummary:
    """Cross-file facts: public defs, referenced identifiers, __all__."""
    summary = FileSummary(path=rel)
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            if not node.name.startswith("_"):
                summary.public_defs.append((node.name, node.lineno))
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == "__all__":
                    if isinstance(node.value, (ast.List, ast.Tuple)):
                        summary.dunder_all.extend(
                            element.value
                            for element in node.value.elts
                            if isinstance(element, ast.Constant)
                            and isinstance(element.value, str)
                        )
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            summary.references.add(node.id)
        elif isinstance(node, ast.Attribute):
            summary.references.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                summary.references.add(alias.name.split(".")[-1])
                if alias.asname:
                    summary.references.add(alias.asname)
    return summary


def analyze_file(
    args: tuple[str, str, LintConfig, frozenset[str] | None],
) -> tuple[list[Finding], FileSummary | None, str, list[str]]:
    """Worker: parse one file, run the per-file rules, apply inline
    disables. Returns ``(findings, summary, rel, lines)``."""
    path_text, rel, config, selected = args
    path = pathlib.Path(path_text)
    try:
        text = path.read_text()
    except OSError as exc:
        finding = Finding(rel, 1, 1, PARSE_ERROR_RULE, f"unreadable: {exc}")
        return [finding], None, rel, []
    lines = text.splitlines()
    try:
        tree = ast.parse(text, filename=path_text)
    except SyntaxError as exc:
        finding = Finding(
            rel,
            exc.lineno or 1,
            (exc.offset or 0) + 1,
            PARSE_ERROR_RULE,
            f"syntax error: {exc.msg}",
        )
        return [finding], None, rel, lines
    ctx = FileContext(
        path=path, rel=rel, tree=tree, lines=lines, config=config
    )
    findings: list[Finding] = []
    for checker in file_checkers(set(selected) if selected else None):
        findings.extend(checker.check_file(ctx))
    findings = apply_inline(findings, inline_disables(lines))
    return findings, module_summary(tree, rel), rel, lines


def harvest_references(
    root: pathlib.Path,
    config: LintConfig,
    already: set[str],
) -> set[str]:
    """Identifiers referenced by the RL008 reference corpus.

    Parses ``*.py`` under the configured reference roots that the main
    scan did not already cover, and pulls identifier-looking tokens
    out of markdown backticks, so a symbol used only by a benchmark,
    an example, or the docs is not declared dead.
    """
    references: set[str] = set()
    for rel_root in config.reference_roots:
        base = root / rel_root
        if not base.exists():
            continue
        for path in sorted(base.rglob("*.py")):
            if _skip(path) or _rel(path, root) in already:
                continue
            try:
                tree = ast.parse(path.read_text(), filename=str(path))
            except (OSError, SyntaxError):
                continue
            references |= module_summary(tree, _rel(path, root)).references
        for path in sorted(base.rglob("*.md")):
            if _skip(path):
                continue
            try:
                text = path.read_text()
            except OSError:
                continue
            for span in _MD_IDENTIFIER.finditer(text):
                references.update(
                    _IDENTIFIER.findall(span.group(0))
                )
    return references


def _default_jobs(n_files: int) -> int:
    if n_files < 16:
        return 1
    return max(1, min(8, (os.cpu_count() or 2) - 1))


def git_changed_files(root: pathlib.Path) -> set[str]:
    """Repo-relative paths changed vs HEAD, plus untracked files."""
    out: set[str] = set()
    for args in (
        ["git", "diff", "--name-only", "HEAD"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    ):
        proc = subprocess.run(
            args, cwd=root, capture_output=True, text=True
        )
        if proc.returncode != 0:
            raise ValueError(
                f"--changed-only needs git: {proc.stderr.strip() or args}"
            )
        out.update(
            line.strip() for line in proc.stdout.splitlines() if line.strip()
        )
    return out


def _under_inputs(rel: str, inputs: list[str]) -> bool:
    for item in inputs:
        clean = item.rstrip("/")
        if rel == clean or rel.startswith(clean + "/"):
            return True
    return False


def _changed_only_inputs(
    root: pathlib.Path,
    inputs: list[str],
    config: LintConfig,
    project_ctx_index: list[Any],
) -> list[str]:
    """Replace the scan set with git-changed files under ``inputs``,
    expanded by the reverse import cone of changed program modules
    (a dependent's summaries feed the project rules, so touching a
    leaf re-audits exactly the files that could be affected)."""
    changed = git_changed_files(root)
    scoped = [
        rel
        for rel in sorted(changed)
        if rel.endswith((".py", ".md"))
        and _under_inputs(rel, inputs)
        and (root / rel).exists()
    ]
    program_rels = [
        rel
        for rel in scoped
        if rel.endswith(".py") and config.in_program_scope(rel)
    ]
    if program_rels:
        from tools.reprolint.program import build_index

        index = build_index(root, config)
        project_ctx_index.append(index)
        modules = {
            index.module_for_rel(rel)
            for rel in program_rels
        }
        cone = index.reverse_import_cone({m for m in modules if m})
        for module in sorted(cone):
            rel = index.modules[module].rel
            if _under_inputs(rel, inputs) and rel not in scoped:
                scoped.append(rel)
    return scoped


def run(
    root: pathlib.Path,
    inputs: list[str],
    *,
    config: LintConfig | None = None,
    baseline_path: pathlib.Path | None = None,
    use_baseline: bool = True,
    select: frozenset[str] | None = None,
    jobs: int | None = None,
    cache_path: pathlib.Path | None = None,
    changed_only: bool = False,
) -> tuple[list[Finding], dict[str, Any]]:
    """Run the full analysis; returns (findings, report metadata).

    ``findings`` contains every firing, suppressed ones included —
    callers gate on ``Finding.active``. The metadata dict carries the
    counts, timing, cache statistics, and stale-baseline entries the
    reports render.

    ``cache_path`` enables the incremental result cache (see
    :mod:`tools.reprolint.cache`); ``changed_only`` narrows the scan
    to git-changed files plus their reverse import cone and implies
    the cache at its default location.
    """
    t_start = time.perf_counter()
    config = config or LintConfig()
    prebuilt_index: list[Any] = []
    if changed_only:
        inputs = _changed_only_inputs(
            root, inputs, config, prebuilt_index
        )
        if cache_path is None:
            cache_path = root / DEFAULT_CACHE_NAME
    python, markdown = collect_files(root, inputs)
    cache = (
        ResultCache.load(cache_path, config, select)
        if cache_path is not None
        else None
    )

    findings: list[Finding] = []
    summaries: list[FileSummary] = []
    lines_of: dict[str, list[str]] = {}
    cached_rels: set[str] = set()
    work = []
    for path in python:
        rel = _rel(path, root)
        if cache is not None:
            hit = cache.lookup(rel, file_sha256(path))
            if hit is not None:
                cached_findings, cached_summary = hit
                findings.extend(cached_findings)
                if cached_summary is not None:
                    summaries.append(cached_summary)
                cached_rels.add(rel)
                continue
        work.append((str(path), rel, config, select))
    jobs = jobs if jobs is not None else _default_jobs(len(work))

    if jobs > 1 and len(work) > 1:
        # reprolint: disable=RL001  (the lint's own fan-out, not library code)
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(analyze_file, work, chunksize=8))
    else:
        results = [analyze_file(item) for item in work]
    for file_findings, summary, rel, lines in results:
        findings.extend(file_findings)
        lines_of[rel] = lines
        if summary is not None:
            summaries.append(summary)
        if cache is not None:
            cache.store(
                rel,
                file_sha256(root / rel),
                file_findings,
                summary,
            )
    t_files = time.perf_counter()

    scanned_rels = cached_rels | set(lines_of)
    extra = harvest_references(root, config, scanned_rels)
    project_ctx = ProjectContext(
        config=config,
        root=root,
        summaries=summaries,
        markdown=markdown,
        extra_references=extra,
        _program_index=prebuilt_index[0] if prebuilt_index else None,
    )
    selected = set(select) if select else None
    plain_checkers = [
        checker
        for checker in project_checkers(selected)
        if not checker.program_rule
    ]
    program_checkers = [
        checker
        for checker in project_checkers(selected)
        if checker.program_rule
    ]
    project_findings: list[Finding] = []
    for checker in plain_checkers:
        project_findings.extend(checker.check_project(project_ctx))

    # The whole-program rules are cached under one digest over every
    # program file: an untouched program serves the previous findings
    # without rebuilding the call-graph index. The cache is consulted
    # only when this scan would have run the rules at all (they gate
    # on program files being in the scanned set).
    program_findings: list[Finding] = []
    if program_checkers and project_ctx.scanned_program_files():
        prog_digest = ""
        if cache is not None:
            from tools.reprolint.program import program_files

            prog_digest = program_digest(
                [
                    (rel, file_sha256(path))
                    for rel, path in program_files(root, config)
                ]
            )
            cached_program = cache.program_lookup(prog_digest)
        else:
            cached_program = None
        if cached_program is not None:
            project_findings.extend(cached_program)
        else:
            for checker in program_checkers:
                program_findings.extend(checker.check_project(project_ctx))
            if cache is not None:
                cache.program_store(prog_digest, program_findings)
            project_findings.extend(program_findings)

    # Project findings can also be disabled inline (e.g. a deliberate
    # dead symbol) — apply the pragma of the flagged line.
    for finding in project_findings:
        findings.extend(
            apply_inline(
                [finding],
                inline_disables(_lines_for(root, lines_of, finding.path)),
            )
        )
    t_project = time.perf_counter()

    stale: list[dict[str, Any]] = []
    if use_baseline:
        baseline_path = baseline_path or (
            root / "tools" / "reprolint_baseline.json"
        )
        baseline = Baseline.load(baseline_path)
        for finding in findings:
            _lines_for(root, lines_of, finding.path)
        findings = baseline.apply(findings, lines_of)
        # An entry only counts as stale when its file was actually
        # analyzed this run (or deleted outright) — a --changed-only
        # subset scan must not condemn entries for files it never
        # looked at.
        checked_rels = scanned_rels | {_rel(path, root) for path in markdown}
        stale = [
            {
                "rule": entry.rule,
                "path": entry.path,
                "code": entry.code,
                "justification": entry.justification,
            }
            for entry in baseline.stale_entries()
            if entry.path in checked_rels or not (root / entry.path).exists()
        ]

    if cache is not None:
        cache.write()

    findings.sort(key=Finding.sort_key)
    meta: dict[str, Any] = {
        "files_scanned": len(python),
        "markdown_scanned": len(markdown),
        "stale_baseline": stale,
        "lines_of": lines_of,
        "timing": {
            "total_seconds": round(time.perf_counter() - t_start, 6),
            "per_file_seconds": round(t_files - t_start, 6),
            "project_seconds": round(t_project - t_files, 6),
            "files_analyzed": len(work),
            "files_from_cache": len(cached_rels),
            "changed_only": changed_only,
        },
        "cache": cache.stats() if cache is not None else None,
    }
    return findings, meta


def _lines_for(
    root: pathlib.Path, lines_of: dict[str, list[str]], rel: str
) -> list[str]:
    """Source lines for a path, read on demand for files the per-file
    pass did not touch (cache hits, program-index-only files) — inline
    pragmas and baseline code-matching need the real text."""
    lines = lines_of.get(rel)
    if lines is None:
        try:
            lines = (root / rel).read_text().splitlines()
        except OSError:
            lines = []
        lines_of[rel] = lines
    return lines


def _statistics(findings: list[Finding]) -> dict[str, dict[str, int]]:
    stats: dict[str, dict[str, int]] = {}
    for finding in findings:
        bucket = stats.setdefault(
            finding.rule, {"active": 0, "inline": 0, "baseline": 0}
        )
        key = finding.suppressed or "active"
        bucket[key] += 1
    return stats


def _json_report(
    findings: list[Finding], meta: dict[str, Any]
) -> dict[str, Any]:
    report = {
        "tool": "reprolint",
        "version": 1,
        "files_scanned": meta["files_scanned"],
        "markdown_scanned": meta["markdown_scanned"],
        "active": sum(1 for f in findings if f.active),
        "suppressed": sum(1 for f in findings if not f.active),
        "statistics": _statistics(findings),
        "findings": [f.to_dict() for f in findings],
        "stale_baseline": meta["stale_baseline"],
        "timing": meta.get("timing"),
        "cache": meta.get("cache"),
    }
    if meta.get("gates") is not None:
        report["gates"] = meta["gates"]
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tools.reprolint",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument(
        "paths", nargs="*", default=["src", "tests"],
        help="files or directories to scan (default: src tests)",
    )
    parser.add_argument(
        "--root", default=".",
        help="repository root (baseline and policy paths resolve here)",
    )
    parser.add_argument(
        "--format", choices=("human", "json"), default="human",
        dest="fmt", help="report format on stdout",
    )
    parser.add_argument(
        "--json-out", metavar="PATH",
        help="also write the JSON report to PATH (CI artifact)",
    )
    parser.add_argument(
        "--baseline", metavar="PATH",
        help="baseline file (default: tools/reprolint_baseline.json)",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="report baselined findings as active",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="accept every active finding into the baseline and exit 0",
    )
    parser.add_argument(
        "--prune-baseline", action="store_true",
        help="drop baseline entries nothing matched in this run "
             "(only entries whose files were scanned) and exit 0",
    )
    parser.add_argument(
        "--select", metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for per-file analysis (default: auto)",
    )
    parser.add_argument(
        "--cache", nargs="?", const=DEFAULT_CACHE_NAME, metavar="PATH",
        help="enable the incremental result cache (default path: "
             f"{DEFAULT_CACHE_NAME} under --root)",
    )
    parser.add_argument(
        "--changed-only", action="store_true",
        help="scan only git-changed files plus their reverse import "
             "cone (implies --cache)",
    )
    parser.add_argument(
        "--all-gates", action="store_true",
        help="also run the companion gates (mypy, type coverage) and "
             "print one composite table",
    )
    parser.add_argument(
        "--statistics", action="store_true",
        help="print per-rule firing counts after the findings",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list registered rules and exit",
    )
    args = parser.parse_args(argv)

    if args.prune_baseline and (args.no_baseline or args.write_baseline):
        parser.error(
            "--prune-baseline needs the baseline applied; it cannot be "
            "combined with --no-baseline or --write-baseline"
        )

    if args.list_rules:
        for rule, title in all_rules():
            print(f"{rule}  {title}")
        return 0

    root = pathlib.Path(args.root)
    baseline_path = (
        pathlib.Path(args.baseline)
        if args.baseline
        else root / "tools" / "reprolint_baseline.json"
    )
    select = (
        frozenset(part.strip() for part in args.select.split(","))
        if args.select
        else None
    )
    cache_path = None
    if args.cache is not None:
        cache_path = pathlib.Path(args.cache)
        if not cache_path.is_absolute():
            cache_path = root / cache_path
    try:
        findings, meta = run(
            root,
            list(args.paths),
            baseline_path=baseline_path,
            use_baseline=not args.no_baseline and not args.write_baseline,
            select=select,
            jobs=args.jobs,
            cache_path=cache_path,
            changed_only=args.changed_only,
        )
    except FileNotFoundError as exc:
        print(f"reprolint: no such path: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"reprolint: {exc}", file=sys.stderr)
        return 2

    if args.write_baseline:
        previous = Baseline.load(baseline_path)
        count = write_baseline(
            baseline_path, findings, meta["lines_of"], previous
        )
        print(f"reprolint: wrote {count} entries to {baseline_path}")
        return 0

    if args.prune_baseline:
        count = prune_baseline(baseline_path, meta["stale_baseline"])
        print(
            f"reprolint: pruned {count} stale entr"
            f"{'y' if count == 1 else 'ies'} from {baseline_path}"
        )
        return 0

    lint_exit = 1 if any(f.active for f in findings) else 0
    if meta["stale_baseline"]:
        # A stale entry means the finding it excused is gone: the
        # baseline no longer reflects reality, and leaving it around
        # would silently excuse a future regression on the same line.
        lint_exit = max(lint_exit, 1)
    if args.all_gates:
        from tools.reprolint.gates import run_gates

        meta["gates"], gates_exit = run_gates(
            root, lint_exit, quiet=args.fmt == "json"
        )
        lint_exit = max(lint_exit, gates_exit)

    report = _json_report(findings, meta)
    if args.json_out:
        pathlib.Path(args.json_out).write_text(
            json.dumps(report, indent=2) + "\n"
        )
    if args.fmt == "json":
        print(json.dumps(report, indent=2))
    else:
        active = [f for f in findings if f.active]
        for finding in active:
            print(finding.render())
        if args.statistics:
            for rule, bucket in sorted(report["statistics"].items()):
                print(
                    f"  {rule}: {bucket['active']} active, "
                    f"{bucket['inline']} inline-disabled, "
                    f"{bucket['baseline']} baselined"
                )
        for entry in report["stale_baseline"]:
            print(
                f"error: stale baseline entry {entry['rule']} "
                f"{entry['path']}: {entry['code']!r} "
                "(fixed code no longer needs it; run --prune-baseline)"
            )
        timing = meta.get("timing") or {}
        cache_note = ""
        if meta.get("cache"):
            cache_note = (
                f", cache {meta['cache']['hits']} hit(s) / "
                f"{meta['cache']['misses']} miss(es)"
            )
        print(
            f"reprolint: {meta['files_scanned']} python / "
            f"{meta['markdown_scanned']} markdown files, "
            f"{report['active']} finding(s), "
            f"{report['suppressed']} suppressed "
            f"[{timing.get('total_seconds', 0):.2f}s{cache_note}]"
        )
    return lint_exit


if __name__ == "__main__":
    raise SystemExit(main())
