"""RL006 — no ad-hoc wall-clock reads where spans are the timing ledger.

Stage timings are tracer spans (:mod:`repro.obs.trace`), the one
timing ledger — a stray ``time.time()`` in ``core/`` or inside a pool
worker starts a second, subtly different ledger beside it.
``time.perf_counter`` / ``time.monotonic`` / ``time.sleep`` remain
fine: the rule bans reading *wall-clock* time, not measuring
durations.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from tools.reprolint.checks._astutil import analyze_concurrency, import_map
from tools.reprolint.context import FileContext
from tools.reprolint.findings import Finding
from tools.reprolint.registry import Checker, register

#: Dotted call targets that read the wall clock.
_WALLCLOCK = frozenset(
    {
        "time.time",
        "datetime.now",
        "datetime.datetime.now",
        "datetime.utcnow",
        "datetime.datetime.utcnow",
        "datetime.today",
        "datetime.datetime.today",
    }
)


@register
class NoWallclockInWorkers(Checker):
    """RL006 — flag wall-clock reads in core/ and in pool workers."""

    rule = "RL006"
    title = (
        "no time.time()/datetime.now() in core/ or pool workers — "
        "tracer spans are the timing ledger"
    )

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        if not ctx.config.in_src(ctx.rel):
            return
        whole_file = ctx.config.in_wallclock_scope(ctx.rel)
        if whole_file:
            scopes: list[ast.AST] = [ctx.tree]
            where = "in core/"
        else:
            info = analyze_concurrency(ctx.tree)
            workers = info.worker_functions()
            if not workers:
                return
            scopes = list(workers)
            where = "in a pool worker"
        imports = import_map(ctx.tree)
        seen: set[int] = set()
        for scope in scopes:
            for node in ast.walk(scope):
                if not isinstance(node, ast.Call) or id(node) in seen:
                    continue
                seen.add(id(node))
                name = self._dotted(node.func, imports)
                if name in _WALLCLOCK:
                    yield Finding(
                        ctx.rel,
                        node.lineno,
                        node.col_offset + 1,
                        self.rule,
                        f"{name}() {where} — wall-clock reads belong "
                        "to the tracer; use "
                        "time.perf_counter() for durations",
                    )

    @staticmethod
    def _dotted(func: ast.expr, imports: dict[str, str]) -> str:
        parts: list[str] = []
        node = func
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            parts.append(imports.get(node.id, node.id))
        else:
            return ""
        return ".".join(reversed(parts))
