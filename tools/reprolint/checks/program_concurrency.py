"""Whole-program concurrency rules: RL201–RL203.

These run against the :class:`~tools.reprolint.program.ProgramIndex`
rather than single files, because the interleavings they police span
modules: ``DurableWatch`` starts its ingest thread in
``stream/durable/daemon.py`` and the attribute it races on may be read
four call hops later; the classifier's fork pools are built in
``core/classifier.py`` but reached from the watch loop through
``online.py`` and an annotated ``state.classifier`` attribute.

* **RL201** — attributes of a thread-spawning class written in the
  thread target's call tree and read in the main loop's call tree
  (or publicly exposed) without lock/queue mediation or a declared
  ``_CONCURRENCY_CONTRACT`` entry;
* **RL202** — a thread-spawning class's main loop transitively
  reaching fork-context pool construction (fork duplicates the
  process while the thread is live, cloning locks and buffers in
  unknown states), and any pool construction reached while a lock is
  lexically held;
* **RL203** — lambdas, locally defined functions/classes, and workers
  reading unregistered mutable module globals crossing a process /
  pickle boundary (``initargs=``, pool submits, ``pickle.dumps``). The
  worker's whole call tree is followed, in its own module and across
  modules: a global the pool initializer does not set is one a
  spawn-started worker reads as its import-time value.

All three trust the index's conservative call graph: an edge the model
cannot resolve is simply absent, which makes RL202/RL203 quieter
and never noisier; RL201 additionally treats *public* attributes
written by the thread as externally read, so a counter like
``replayed_events`` cannot hide behind an unresolved reader.
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

#: External call names that construct a process pool outright.
_DIRECT_POOL = frozenset(
    {
        "multiprocessing.Pool",
        "multiprocessing.pool.Pool",
        "concurrent.futures.ProcessPoolExecutor",
        "concurrent.futures.process.ProcessPoolExecutor",
    }
)


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


def _class_accesses(
    index: _program.ProgramIndex, info: _program.ClassInfo, closure: set[str]
) -> list[_program.AttrAccess]:
    """Self-attribute accesses on ``info`` from its own methods inside
    ``closure``, excluding ``__init__`` (runs before the thread)."""
    out: list[_program.AttrAccess] = []
    for key in closure:
        fn = index.functions.get(key)
        if fn is None or fn.cls != info.key or fn.name == "__init__":
            continue
        out.extend(fn.accesses)
    return out


@register
class ThreadSharedState(_ProgramChecker):
    """RL201 — unsynchronised state shared across the thread boundary."""

    rule = "RL201"
    title = (
        "attributes shared between a spawned thread and the main loop "
        "need lock/queue mediation or a _CONCURRENCY_CONTRACT entry"
    )

    def check_program(
        self, ctx: ProjectContext, index: _program.ProgramIndex
    ) -> Iterable[Finding]:
        for key in sorted(index.classes):
            info = index.classes[key]
            if not info.thread_spawns:
                continue
            if not _in_src(index, ctx, info.module):
                continue
            targets = {
                target
                for spawn in info.thread_spawns
                for target in spawn.targets
            }
            if not targets:
                continue
            thread_closure = index.closure(targets)
            main_roots = [
                method_key
                for name, method_key in info.methods.items()
                if name != "__init__" and method_key not in targets
            ]
            main_closure = index.closure(main_roots) - targets
            thread_accesses = _class_accesses(index, info, thread_closure)
            main_accesses = _class_accesses(
                index, info, main_closure - thread_closure
            )
            yield from self._conflicts(
                index, info, thread_accesses, main_accesses
            )

    def _conflicts(
        self,
        index: _program.ProgramIndex,
        info: _program.ClassInfo,
        thread_accesses: list[_program.AttrAccess],
        main_accesses: list[_program.AttrAccess],
    ) -> Iterable[Finding]:
        rel = _rel(index, info.module)
        by_attr: dict[str, tuple[list[_program.AttrAccess], list[_program.AttrAccess]]] = {}
        for access in thread_accesses:
            by_attr.setdefault(access.attr, ([], []))[0].append(access)
        for access in main_accesses:
            by_attr.setdefault(access.attr, ([], []))[1].append(access)
        for attr in sorted(by_attr):
            if attr in info.sync_attrs or attr in info.contract:
                continue
            thread_side, main_side = by_attr[attr]
            t_writes = [a for a in thread_side if a.op == "write"]
            t_reads = [a for a in thread_side if a.op == "read"]
            m_writes = [a for a in main_side if a.op == "write"]
            m_reads = [a for a in main_side if a.op == "read"]
            public = not attr.startswith("_")
            conflicting: list[_program.AttrAccess] = []
            reason = ""
            if t_writes and (m_reads or m_writes):
                conflicting = t_writes + m_reads + m_writes
                reason = "read in the main loop"
            elif m_writes and t_reads:
                conflicting = m_writes + t_reads
                reason = "written in the main loop while the thread reads it"
            elif t_writes and public:
                conflicting = t_writes
                reason = (
                    "public, so external code may read it concurrently"
                )
            if not conflicting:
                continue
            if main_side and self._lock_mediated(info, conflicting):
                continue
            anchor = min(
                t_writes or conflicting, key=lambda a: (a.line, a.col)
            )
            thread_fn = index.functions[anchor.function].name
            yield Finding(
                rel,
                anchor.line,
                anchor.col,
                self.rule,
                f"{info.name}.{attr} is written by thread target call "
                f"tree ({thread_fn}) and {reason} without a common lock "
                f"from sync_attrs; guard both sides with one lock, hand "
                f"it through a queue, or declare the happens-before in "
                f"{info.name}._CONCURRENCY_CONTRACT",
            )

    @staticmethod
    def _lock_mediated(
        info: _program.ClassInfo, accesses: list[_program.AttrAccess]
    ) -> bool:
        """Every conflicting access holds one common declared lock."""
        common: set[str] | None = None
        for access in accesses:
            held = set(access.locks) & info.sync_attrs
            common = held if common is None else (common & held)
            if not common:
                return False
        return bool(common)


def _fork_possible(site: _program.CallSite) -> bool:
    """Whether an external pool-constructor call can use fork.

    Literal ``get_context("spawn"|"forkserver")`` chains are safe;
    everything else — bare ``Pool``, ``get_context("fork")``, a
    context chosen at runtime (``MP_START_METHOD``) — may fork.
    """
    func = site.node.func
    chain: ast.expr | None = None
    if isinstance(func, ast.Attribute) and func.attr == "Pool":
        chain = func.value
    if isinstance(chain, ast.Call):
        target = chain.func
        name = target.attr if isinstance(target, ast.Attribute) else (
            target.id if isinstance(target, ast.Name) else ""
        )
        if name == "get_context" and chain.args:
            arg = chain.args[0]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                return arg.value not in ("spawn", "forkserver")
    return True


def _pool_sites(index: _program.ProgramIndex) -> dict[str, list[_program.CallSite]]:
    """Function key → fork-possible pool-construction sites inside it."""
    out: dict[str, list[_program.CallSite]] = {}
    for key, fn in index.functions.items():
        for site in fn.calls:
            name = site.external
            if not name:
                continue
            is_pool = (
                name in _DIRECT_POOL
                or name == "multiprocessing.get_context().Pool"
                or (name.endswith(".Pool") and not name[0].isupper())
            )
            if is_pool and _fork_possible(site):
                out.setdefault(key, []).append(site)
    return out


@register
class ForkSafety(_ProgramChecker):
    """RL202 — no live thread or held lock across fork-pool creation."""

    rule = "RL202"
    title = (
        "fork-context pools must not be created while a spawned thread "
        "may be live or a lock is held"
    )

    def check_program(
        self, ctx: ProjectContext, index: _program.ProgramIndex
    ) -> Iterable[Finding]:
        pool_fns = _pool_sites(index)
        if not pool_fns:
            return
        reach_cache: dict[str, bool] = {}

        def reaches_pool(key: str) -> bool:
            if key not in reach_cache:
                reach_cache[key] = bool(
                    index.closure({key}) & set(pool_fns)
                )
            return reach_cache[key]

        # Live-thread variant: a thread-spawning class whose main-loop
        # call tree reaches fork-possible pool construction.
        for cls_key in sorted(index.classes):
            info = index.classes[cls_key]
            if not info.thread_spawns:
                continue
            if not _in_src(index, ctx, info.module):
                continue
            targets = {
                target
                for spawn in info.thread_spawns
                for target in spawn.targets
            }
            main_roots = [
                method_key
                for name, method_key in info.methods.items()
                if name != "__init__" and method_key not in targets
            ]
            reported: set[str] = set()
            for method_key in main_roots:
                fn = index.functions[method_key]
                for site in sorted(
                    fn.calls, key=lambda s: (s.line, s.col)
                ):
                    hit = (
                        method_key in pool_fns
                        and site in pool_fns[method_key]
                    ) or (site.callee and reaches_pool(site.callee))
                    if hit and method_key not in reported:
                        reported.add(method_key)
                        yield Finding(
                            _rel(index, info.module),
                            site.line,
                            site.col,
                            self.rule,
                            f"{info.name}.{fn.name}() reaches fork-"
                            "context pool construction while the "
                            f"thread spawned in {info.name} may be "
                            "live; fork would clone its locks and "
                            "buffers mid-operation — use a spawn "
                            "context, or stop the thread first, or "
                            "baseline with a justification naming the "
                            "thread and why the forked children never "
                            "touch its state",
                        )
                        break
        # Held-lock variant: any src call chain entering pool
        # construction from inside a ``with self.<lock>:`` block.
        for key in sorted(index.functions):
            fn = index.functions[key]
            if not _in_src(index, ctx, fn.module):
                continue
            for site in fn.calls:
                if not site.lock_stack:
                    continue
                hit = (
                    key in pool_fns and site in pool_fns[key]
                ) or (site.callee and reaches_pool(site.callee))
                if hit:
                    yield Finding(
                        _rel(index, fn.module),
                        site.line,
                        site.col,
                        self.rule,
                        f"pool construction reached while holding "
                        f"self.{site.lock_stack[-1]}; a forked child "
                        "inherits the lock in its held state and any "
                        "waiter deadlocks — create the pool outside "
                        "the critical section",
                    )


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
