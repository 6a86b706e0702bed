"""Whole-program pickle-boundary rule: RL203.

It runs against the :class:`~tools.reprolint.program.ProgramIndex`
rather than single files, because a worker submitted to a pool in
``core/classifier.py`` may read a mutable global of another module
several call hops away.

* **RL203** — lambdas, locally defined functions/classes, and workers
  reading unregistered mutable module globals crossing a process /
  pickle boundary (``initargs=``, pool submits, ``pickle.dumps``). The
  worker's whole call tree is followed, in its own module and across
  modules: a global the pool initializer does not set is one a
  spawn-started worker reads as its import-time value.

It trusts the index's conservative call graph: an edge the model
cannot resolve is simply absent, which makes the rule quieter, never
noisier.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from tools.reprolint.checks._astutil import POOL_SUBMIT_METHODS
from tools.reprolint.context import ProjectContext
from tools.reprolint.findings import Finding
# Module import, not from-import: tools.reprolint.program itself pulls
# in the checks package (for the shared AST helpers), so by the time
# this module executes during registration the program module may be
# mid-initialisation. All references below are annotations or runtime
# attribute lookups, both of which resolve after init completes.
from tools.reprolint import program as _program
from tools.reprolint.registry import ProjectChecker, register


def _in_src(index: _program.ProgramIndex, ctx: ProjectContext, module: str) -> bool:
    mod = index.modules.get(module)
    return mod is not None and ctx.config.in_src(mod.rel)


def _rel(index: _program.ProgramIndex, module: str) -> str:
    mod = index.modules.get(module)
    return mod.rel if mod else module


class _ProgramChecker(ProjectChecker):
    """Shared gating: only run when the scan covered program files."""

    program_rule = True

    def check_project(self, ctx: ProjectContext) -> Iterable[Finding]:
        if not ctx.scanned_program_files():
            return
        index = ctx.program_index()
        yield from self.check_program(ctx, index)

    def check_program(
        self, ctx: ProjectContext, index: _program.ProgramIndex
    ) -> Iterable[Finding]:
        raise NotImplementedError


@register
class PickleSafety(_ProgramChecker):
    """RL203 — nothing unpicklable or unregistered crosses a boundary."""

    rule = "RL203"
    title = (
        "pool submits / initargs / pickle sinks must not carry lambdas, "
        "local definitions, or workers reading unregistered globals"
    )

    def check_program(
        self, ctx: ProjectContext, index: _program.ProgramIndex
    ) -> Iterable[Finding]:
        for key in sorted(index.functions):
            fn = index.functions[key]
            if not _in_src(index, ctx, fn.module):
                continue
            for site in fn.calls:
                yield from self._check_site(ctx, index, fn, site)

    def _check_site(self, ctx, index: _program.ProgramIndex, fn, site: _program.CallSite
                    ) -> Iterable[Finding]:
        node = site.node
        func = node.func
        rel = _rel(index, fn.module)
        payloads: list[tuple[ast.expr, str]] = []
        callables: list[tuple[ast.expr, str]] = []
        if isinstance(func, ast.Attribute) and func.attr in (
            POOL_SUBMIT_METHODS
        ):
            if node.args:
                callables.append((node.args[0], f"{func.attr}() callable"))
                payloads.extend(
                    (arg, f"{func.attr}() argument")
                    for arg in node.args[1:]
                )
            for keyword in node.keywords:
                if keyword.arg in ("args", "kwds"):
                    payloads.append(
                        (keyword.value, f"{func.attr}() {keyword.arg}=")
                    )
                elif keyword.arg == "func":
                    callables.append((keyword.value, f"{func.attr}() func="))
        for keyword in node.keywords:
            if keyword.arg == "initializer":
                callables.append((keyword.value, "pool initializer="))
            elif keyword.arg == "initargs":
                payloads.append((keyword.value, "pool initargs="))
        if site.external in ctx.config.pickle_sinks and node.args:
            payloads.append((node.args[0], f"{site.external}() payload"))
        for expr, role in callables:
            yield from self._check_callable(ctx, index, fn, expr, role, rel)
        for expr, role in payloads:
            yield from self._check_payload(index, fn, expr, role, rel)

    def _check_callable(self, ctx, index: _program.ProgramIndex, fn, expr: ast.expr,
                        role: str, rel: str) -> Iterable[Finding]:
        finding = self._local_or_lambda(fn, expr, role, rel)
        if finding is not None:
            yield finding
            return
        if not isinstance(expr, ast.Name):
            return
        worker_key = index._function_for_name(expr.id, fn)
        if not worker_key:
            return
        seen: set[tuple[str, str]] = set()
        for reached_key in sorted(index.closure({worker_key})):
            reached = index.functions[reached_key]
            mod = index.modules.get(reached.module)
            if mod is None:
                continue
            unregistered = reached.global_reads & mod.mutable_globals
            if mod.registry is not None:
                unregistered -= mod.registry
            for name in sorted(unregistered):
                if (reached.module, name) in seen:
                    continue
                seen.add((reached.module, name))
                detail = (
                    f"not listed in {mod.name}'s "
                    f"{ctx.config.worker_registry}"
                    if mod.registry is not None
                    else (
                        f"{mod.name} defines no "
                        f"{ctx.config.worker_registry} registry"
                    )
                )
                yield Finding(
                    rel,
                    expr.lineno,
                    expr.col_offset + 1,
                    self.rule,
                    f"{role} {expr.id} reaches {reached.name}() in "
                    f"{mod.name}, which reads mutable global {name} "
                    f"{detail}; the pool initializer must set every "
                    "global a worker reads",
                )

    def _check_payload(self, index: _program.ProgramIndex, fn, expr: ast.expr,
                       role: str, rel: str) -> Iterable[Finding]:
        elements = (
            expr.elts if isinstance(expr, (ast.Tuple, ast.List)) else [expr]
        )
        for element in elements:
            finding = self._local_or_lambda(fn, element, role, rel)
            if finding is not None:
                yield finding

    def _local_or_lambda(self, fn, expr: ast.expr, role: str,
                         rel: str) -> Finding | None:
        if isinstance(expr, ast.Lambda):
            return Finding(
                rel,
                expr.lineno,
                expr.col_offset + 1,
                self.rule,
                f"{role} is a lambda; lambdas cannot be pickled across "
                "a process boundary — define a module-level function",
            )
        if isinstance(expr, ast.Name) and expr.id in fn.nested_defs:
            return Finding(
                rel,
                expr.lineno,
                expr.col_offset + 1,
                self.rule,
                f"{role} {expr.id} is defined inside {fn.name}(); "
                "locally defined functions/classes cannot be pickled "
                "across a process boundary — move it to module level",
            )
        return None
