"""Concurrency-safety rules: RL001 pool discipline and RL003 span
re-arm.

These encode the fork/spawn protocol ``core/classifier.py`` established:
process pools are built in exactly one supervised place, and a pool
whose workers touch the ambient tracer re-arms it in the initializer
(spawn does not inherit the parent's enabled flag the way fork does).
The worker-global registry (``_STREAM_GLOBALS``) is checked across
modules by RL203 (:mod:`tools.reprolint.checks.program_concurrency`).
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from tools.reprolint.checks._astutil import (
    analyze_concurrency,
    import_map,
    resolve_call_name,
)
from tools.reprolint.context import FileContext
from tools.reprolint.findings import Finding
from tools.reprolint.registry import Checker, register

#: Dotted call targets that construct a raw process pool. Contexts
#: resolve through calls (``multiprocessing.get_context().Pool``).
_POOL_CONSTRUCTORS = (
    "multiprocessing.Pool",
    "multiprocessing.pool.Pool",
    "multiprocessing.get_context().Pool",
    "concurrent.futures.ProcessPoolExecutor",
    "concurrent.futures.process.ProcessPoolExecutor",
)


@register
class PoolDiscipline(Checker):
    """RL001 — raw pools only in the supervised classifier path."""

    rule = "RL001"
    title = (
        "process pools may only be built in the supervised path "
        "(core/classifier.py)"
    )

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        if not ctx.config.in_src(ctx.rel):
            return
        if ctx.rel in ctx.config.pool_allowlist:
            return
        imports = import_map(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = resolve_call_name(node.func, imports)
            hit = resolved in _POOL_CONSTRUCTORS or (
                # A context variable's ``.Pool`` — ``ctx.Pool(…)`` —
                # is still a raw pool even when the context's origin
                # cannot be traced through assignments.
                resolved.endswith(".Pool")
                and not resolved[0].isupper()
            )
            if hit:
                yield Finding(
                    ctx.rel,
                    node.lineno,
                    node.col_offset + 1,
                    self.rule,
                    f"raw process pool ({resolved}) outside the "
                    "supervised classifier path; use "
                    "SpoofingClassifier.classify_stream(n_workers=...) "
                    "or extend the allowlist deliberately",
                )


@register
class SpanRearm(Checker):
    """RL003 — tracing workers need a re-arming pool initializer."""

    rule = "RL003"
    title = (
        "pool workers that touch the ambient tracer must re-arm it "
        "via the initializer (spawn support)"
    )

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        if not ctx.config.in_src(ctx.rel):
            return
        info = analyze_concurrency(ctx.tree)
        if not info.worker_roots:
            return
        tracer_calls = ctx.config.tracer_calls
        touching = [
            fn
            for fn in info.worker_functions()
            if fn.name not in info.initializers
            and self._touches_tracer(fn, tracer_calls)
        ]
        if not touching:
            return
        if self._initializer_rearms(info, ctx.config.rearm_helper):
            return
        for fn in touching:
            yield Finding(
                ctx.rel,
                fn.lineno,
                fn.col_offset + 1,
                self.rule,
                f"worker {fn.name}() uses the ambient tracer but no "
                f"pool initializer calls {ctx.config.rearm_helper}(); "
                "spawn-started workers would silently record nothing",
            )

    @staticmethod
    def _touches_tracer(
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        tracer_calls: frozenset[str],
    ) -> bool:
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                target = node.func
                if isinstance(target, ast.Name) and target.id in tracer_calls:
                    return True
                if (
                    isinstance(target, ast.Attribute)
                    and target.attr in tracer_calls
                ):
                    return True
        return False

    @staticmethod
    def _initializer_rearms(info, rearm_helper: str) -> bool:
        for name in info.initializers:
            fn = info.functions.get(name)
            if fn is None:
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    target = node.func
                    called = (
                        target.id
                        if isinstance(target, ast.Name)
                        else target.attr
                        if isinstance(target, ast.Attribute)
                        else ""
                    )
                    if called == rearm_helper:
                        return True
        return False
