"""Concurrency-safety rules: RL001 pool discipline, RL002 worker-global
registry, RL003 span re-arm.

These encode the fork/spawn protocol ``core/classifier.py`` established:
process pools are built in exactly one supervised place, every mutable
module global a worker reads is listed in the ``_STREAM_GLOBALS``
save/restore registry, and a pool whose workers touch the ambient
tracer re-arms it in the initializer (spawn does not inherit the
parent's enabled flag the way fork does).
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from tools.reprolint.checks._astutil import (
    analyze_concurrency,
    import_map,
    literal_str_tuple,
    name_loads,
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
class WorkerGlobalRegistry(Checker):
    """RL002 — worker-read mutable globals must be in the registry."""

    rule = "RL002"
    title = (
        "mutable module globals read by pool workers must be listed "
        "in the stream-globals save/restore registry"
    )

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        if not ctx.config.in_src(ctx.rel):
            return
        info = analyze_concurrency(ctx.tree)
        if not info.worker_closure:
            return
        # Mutable module state: assigned at module level AND rebound
        # via ``global`` somewhere — exactly the save/restore surface.
        mutable = info.module_assigns & info.global_decls
        if not mutable:
            return
        registry = self._registry_names(ctx)
        reported: set[str] = set()
        for fn in info.worker_functions():
            for load in name_loads(fn):
                name = load.id
                if name not in mutable or name in reported:
                    continue
                if registry is not None and name in registry:
                    continue
                reported.add(name)
                detail = (
                    f"not listed in {ctx.config.worker_registry}"
                    if registry is not None
                    else (
                        f"module defines no {ctx.config.worker_registry} "
                        "registry"
                    )
                )
                yield Finding(
                    ctx.rel,
                    load.lineno,
                    load.col_offset + 1,
                    self.rule,
                    f"worker function {fn.name}() reads mutable module "
                    f"global {name} {detail}; register it so the "
                    "fork/spawn save-restore protocol covers it",
                )

    def _registry_names(self, ctx: FileContext) -> set[str] | None:
        for node in ctx.tree.body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Name)
                        and target.id == ctx.config.worker_registry
                    ):
                        names = literal_str_tuple(node.value)
                        if names is not None:
                            return set(names)
        return None


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
