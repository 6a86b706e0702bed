#!/usr/bin/env python3
"""Markdown link checker (no third-party deps; stands in for lychee).

Scans every ``*.md`` file in the repository for:

* relative links — ``[text](path)`` and ``[text](path#anchor)`` must
  point at an existing file or directory (anchors are checked against
  the target's headings when the target is markdown);
* bare intra-document anchors — ``[text](#section)`` must match a
  heading in the same file;
* fenced code references — `` `path/to/file.py` `` spans that look
  like repo paths are verified to exist (set ``--no-code-refs`` off).

External links (http/https/mailto) are recorded but not fetched — CI
has no network — so typos in schemes are still caught.

Exit codes are distinct per failure category so CI logs identify which
gate tripped without scrolling the output:

* 0 — all references resolve;
* 2 — usage error (no markdown files under the root);
* 3 — broken relative link(s);
* 4 — broken anchor(s);
* 5 — dangling code reference(s);
* 6 — failures in more than one category.

Run it from the repo root::

    python tools/check_doc_links.py

The module is also imported by ``tools.reprolint`` (rule RL102), which
re-reports each :class:`LinkIssue` as a finding with an exact
``file:line`` location.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys
from dataclasses import dataclass

LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
CODE_PATH = re.compile(r"`([A-Za-z0-9_./-]+\.(?:py|md|yml|toml|txt|json))`")
SKIP_DIRS = {".git", "__pycache__", ".pytest_cache", "node_modules",
             ".benchmarks"}

#: Failure categories, in exit-code order.
CATEGORY_LINK = "link"
CATEGORY_ANCHOR = "anchor"
CATEGORY_CODE_REF = "code-ref"

EXIT_OK = 0
EXIT_NO_FILES = 2
EXIT_BROKEN_LINKS = 3
EXIT_BROKEN_ANCHORS = 4
EXIT_DANGLING_CODE_REFS = 5
EXIT_MULTIPLE = 6

_CATEGORY_EXIT = {
    CATEGORY_LINK: EXIT_BROKEN_LINKS,
    CATEGORY_ANCHOR: EXIT_BROKEN_ANCHORS,
    CATEGORY_CODE_REF: EXIT_DANGLING_CODE_REFS,
}


@dataclass(frozen=True)
class LinkIssue:
    """One broken reference: category, exact location, and message."""

    category: str
    path: pathlib.Path
    line: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.message}"


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


def check_file(
    path: pathlib.Path, root: pathlib.Path, check_code_refs: bool
) -> list[LinkIssue]:
    """All broken references in one markdown file."""
    text = path.read_text()
    prose = _blank_fenced_blocks(text)
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
                    LinkIssue(
                        CATEGORY_ANCHOR, path, line,
                        f"broken anchor {target}",
                    )
                )
            continue
        ref, _, anchor = target.partition("#")
        resolved = (path.parent / ref).resolve()
        if not resolved.exists():
            issues.append(
                LinkIssue(CATEGORY_LINK, path, line, f"broken link {target}")
            )
            continue
        if anchor and resolved.suffix == ".md":
            if _anchor(anchor) not in _headings(resolved):
                issues.append(
                    LinkIssue(
                        CATEGORY_ANCHOR, path, line,
                        f"broken anchor {target} (no such heading in {ref})",
                    )
                )

    if check_code_refs:
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
                        CATEGORY_CODE_REF, path, line_of(match.start()),
                        f"dangling code reference `{ref}`",
                    )
                )
    return issues


def exit_code_for(issues: list[LinkIssue]) -> int:
    """The category-specific exit code for a set of issues."""
    categories = {issue.category for issue in issues}
    if not categories:
        return EXIT_OK
    if len(categories) == 1:
        return _CATEGORY_EXIT[categories.pop()]
    return EXIT_MULTIPLE


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "root", nargs="?", default=".", help="repository root to scan"
    )
    parser.add_argument(
        "--no-code-refs",
        action="store_true",
        help="skip existence checks on `path/like.py` code spans",
    )
    args = parser.parse_args(argv)
    root = pathlib.Path(args.root).resolve()

    files = [
        path
        for path in sorted(root.rglob("*.md"))
        if not any(part in SKIP_DIRS for part in path.parts)
    ]
    if not files:
        print(f"link check: no markdown files under {root}", file=sys.stderr)
        return EXIT_NO_FILES

    issues: list[LinkIssue] = []
    for path in files:
        issues.extend(check_file(path, root, not args.no_code_refs))

    print(f"link check: {len(files)} markdown files scanned")
    if issues:
        for issue in issues:
            print(f"  {issue.render()}")
        by_category: dict[str, int] = {}
        for issue in issues:
            by_category[issue.category] = by_category.get(issue.category, 0) + 1
        summary = ", ".join(
            f"{count} {category}" for category, count in sorted(by_category.items())
        )
        print(f"link check: {len(issues)} broken reference(s) ({summary})")
        return exit_code_for(issues)
    print("link check: all references resolve")
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
