"""Repo-local developer tooling (static gates, type coverage).

Everything in here is stdlib-only so CI and contributors need no
installs beyond the library's own dependencies. The entry points are:

* ``python -m tools.reprolint src tests docs`` — the one static gate
  (project-specific lint rules, including the docstring gate RL101 and
  the doc-link gate RL102; see ``docs/STATIC_ANALYSIS.md``).
* ``python tools/type_coverage.py`` — annotation-coverage gate backing
  the mypy strict configuration in ``pyproject.toml``.
"""
