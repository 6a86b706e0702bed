"""Documentation gates as reprolint rules: RL101 and RL102.

* RL101 — per configured package root, overall docstring coverage of
  the public API must meet the threshold (one finding per failing
  package, anchored at its ``__init__.py``, listing the undocumented
  names);
* RL102 — every broken reference in the markdown files among the lint
  inputs becomes one finding at its exact ``file:line``, tagged
  ``[link]``, ``[anchor]`` or ``[code-ref]``.

Both are stdlib :mod:`ast` / :mod:`re` passes, with no third-party
dependencies (they stand in for interrogate and lychee).
"""

from __future__ import annotations

import ast
import pathlib
import re
from collections.abc import Iterable
from dataclasses import dataclass

from tools.reprolint.context import ProjectContext
from tools.reprolint.findings import Finding
from tools.reprolint.registry import ProjectChecker, register

# ----------------------------------------------------------- RL101 audit


def _exported_names(tree: ast.Module) -> set[str] | None:
    """The module's literal ``__all__`` entries, or None if undefined."""
    for node in tree.body:
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if isinstance(target, ast.Name) and target.id == "__all__":
                if isinstance(node.value, (ast.List, ast.Tuple)):
                    return {
                        element.value
                        for element in node.value.elts
                        if isinstance(element, ast.Constant)
                        and isinstance(element.value, str)
                    }
    return None


def _is_public(name: str, exported: set[str] | None) -> bool:
    if name.startswith("_"):
        return False
    return exported is None or name in exported


def audit_module(path: pathlib.Path) -> tuple[list[str], list[str]]:
    """Return (documented, missing) dotted names for one module.

    Counted: the module itself, every public class and function, and
    the public methods of public classes. Names are public unless they
    start with ``_``; a literal ``__all__`` narrows them to its
    entries. ``__init__`` is exempt (the class docstring covers
    construction, the numpy/pandas convention).
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    exported = _exported_names(tree)
    documented: list[str] = []
    missing: list[str] = []

    def mark(name: str, node: ast.AST) -> None:
        (documented if ast.get_docstring(node) else missing).append(name)

    mark(f"{path}::<module>", tree)
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if _is_public(node.name, exported):
                mark(f"{path}::{node.name}", node)
        elif isinstance(node, ast.ClassDef):
            if not _is_public(node.name, exported):
                continue
            mark(f"{path}::{node.name}", node)
            for member in node.body:
                if isinstance(
                    member, (ast.FunctionDef, ast.AsyncFunctionDef)
                ) and not member.name.startswith("_"):
                    mark(f"{path}::{node.name}.{member.name}", member)
    return documented, missing


def audit_package(root: pathlib.Path) -> tuple[list[str], list[str]]:
    """Aggregate :func:`audit_module` over one package directory.

    Returns ``(documented, missing)`` dotted names across every
    ``*.py`` under ``root`` (or just ``root`` when it is a file).
    """
    files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
    documented: list[str] = []
    missing: list[str] = []
    for path in files:
        good, bad = audit_module(path)
        documented.extend(good)
        missing.extend(bad)
    return documented, missing


@register
class DocstringCoverage(ProjectChecker):
    """RL101 — public-API docstring coverage per gated package."""

    rule = "RL101"
    title = (
        "docstring coverage of gated packages must meet the threshold"
    )

    def check_project(self, ctx: ProjectContext) -> Iterable[Finding]:
        scanned = {summary.path for summary in ctx.summaries}
        for package in ctx.config.docstring_packages:
            root = ctx.root / package
            if not root.exists():
                continue
            # Only gate packages the invocation actually scanned, so
            # ``reprolint tests`` does not quietly re-audit src/.
            if not any(path.startswith(package) for path in scanned):
                continue
            documented, missing = audit_package(root)
            total = len(documented) + len(missing)
            coverage = 100.0 * len(documented) / total if total else 100.0
            if coverage < ctx.config.docstring_threshold:
                anchor = package + "/__init__.py"
                if not (ctx.root / anchor).exists():
                    anchor = package
                names = ", ".join(
                    name.removeprefix(f"{ctx.root}/") for name in missing
                )
                yield Finding(
                    anchor,
                    1,
                    1,
                    self.rule,
                    f"docstring coverage of {package} is "
                    f"{coverage:.1f}% (< "
                    f"{ctx.config.docstring_threshold:.0f}% gate); "
                    f"{len(missing)} public name(s) undocumented: "
                    f"{names}",
                )


# ----------------------------------------------------------- RL102 links

LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
CODE_PATH = re.compile(r"`([A-Za-z0-9_./-]+\.(?:py|md|yml|toml|txt|json))`")


@dataclass(frozen=True)
class LinkIssue:
    """One broken reference: category, exact location, and message."""

    #: ``link``, ``anchor`` or ``code-ref``.
    category: str
    line: int
    message: str


def _anchor(text: str) -> str:
    """GitHub-style anchor slug for one heading line."""
    text = re.sub(r"[`*_]", "", text.strip().lower())
    text = re.sub(r"[^\w\s-]", "", text)
    return re.sub(r"\s+", "-", text)


def _headings(path: pathlib.Path) -> set[str]:
    return {_anchor(m.group(1)) for m in HEADING.finditer(path.read_text())}


def _blank_fenced_blocks(text: str) -> str:
    """Replace fenced code blocks with same-shape whitespace.

    Brackets inside code are not links, but offsets (and therefore
    line numbers) must survive the stripping, so every non-newline
    character is blanked in place instead of deleted.
    """

    def blank(match: re.Match[str]) -> str:
        return re.sub(r"[^\n]", " ", match.group(0))

    return re.sub(r"```.*?```", blank, text, flags=re.DOTALL)


def check_file(path: pathlib.Path, root: pathlib.Path) -> list[LinkIssue]:
    """All broken references in one markdown file.

    Relative links must name an existing file or directory (and, into
    markdown, an existing heading); bare ``#anchor`` links must match a
    heading of the same file; backticked repo paths (containing a
    ``/``) must exist relative to the root, the file, or
    ``src/repro``. External links (http/https/mailto) are not fetched.
    """
    prose = _blank_fenced_blocks(path.read_text())
    issues: list[LinkIssue] = []

    def line_of(offset: int) -> int:
        return prose.count("\n", 0, offset) + 1

    for match in LINK.finditer(prose):
        target = match.group(1)
        line = line_of(match.start())
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        if target.startswith("#"):
            if _anchor(target[1:]) not in _headings(path):
                issues.append(
                    LinkIssue("anchor", line, f"broken anchor {target}")
                )
            continue
        ref, _, anchor = target.partition("#")
        resolved = (path.parent / ref).resolve()
        if not resolved.exists():
            issues.append(LinkIssue("link", line, f"broken link {target}"))
            continue
        if anchor and resolved.suffix == ".md":
            if _anchor(anchor) not in _headings(resolved):
                issues.append(
                    LinkIssue(
                        "anchor", line,
                        f"broken anchor {target} (no such heading in {ref})",
                    )
                )

    for match in CODE_PATH.finditer(prose):
        ref = match.group(1)
        # Only treat it as a repo path if it contains a separator —
        # bare filenames like `config.py` are prose, not paths.
        if "/" not in ref:
            continue
        # Prose refers to modules package-relative (`core/results.py`
        # means src/repro/core/results.py), so try the package root too.
        candidates = (root / ref, path.parent / ref,
                      root / "src" / "repro" / ref)
        if not any(c.exists() for c in candidates):
            issues.append(
                LinkIssue(
                    "code-ref", line_of(match.start()),
                    f"dangling code reference `{ref}`",
                )
            )
    return issues


@register
class DocLinks(ProjectChecker):
    """RL102 — markdown links, anchors, and code refs must resolve."""

    rule = "RL102"
    title = "markdown links/anchors/code references must resolve"

    def check_project(self, ctx: ProjectContext) -> Iterable[Finding]:
        for path in ctx.markdown:
            rel = _rel(path, ctx.root)
            for issue in check_file(path, ctx.root):
                yield Finding(
                    rel,
                    issue.line,
                    1,
                    self.rule,
                    f"{issue.message} [{issue.category}]",
                )


def _rel(path: pathlib.Path, root: pathlib.Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()
