"""Shared AST analysis used by several rules.

The concurrency rules (RL001, RL003) and the wall-clock rule (RL006)
all reason about the same structures: how imported names resolve, which
functions a module hands to a process pool (its *worker entry points*),
and the transitive same-module call closure of those workers. This
module computes each once per file.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

#: ``pool.<method>(worker, …)`` call names whose first positional
#: argument is a function executed in a worker process.
POOL_SUBMIT_METHODS = frozenset(
    {
        "imap",
        "imap_unordered",
        "map",
        "map_async",
        "starmap",
        "starmap_async",
        "apply",
        "apply_async",
        "submit",
    }
)


def import_map(tree: ast.Module) -> dict[str, str]:
    """Map each locally bound import alias to its dotted origin.

    ``import multiprocessing as mp`` → ``{"mp": "multiprocessing"}``;
    ``from concurrent.futures import ProcessPoolExecutor as PPE`` →
    ``{"PPE": "concurrent.futures.ProcessPoolExecutor"}``. Only
    top-level and function-level plain imports are walked — enough for
    the idioms the rules police.
    """
    mapping: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                mapping[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                if alias.name == "*":
                    continue
                mapping[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
    return mapping


def resolve_call_name(node: ast.expr, imports: dict[str, str]) -> str:
    """Dotted name a call target resolves to (best effort, '' if dynamic).

    ``mp.get_context("fork").Pool`` resolves to
    ``multiprocessing.get_context().Pool`` — intermediate calls keep
    their name with ``()`` appended so rules can match idioms like a
    context's ``.Pool``.
    """
    if isinstance(node, ast.Name):
        return imports.get(node.id, node.id)
    if isinstance(node, ast.Attribute):
        base = resolve_call_name(node.value, imports)
        return f"{base}.{node.attr}" if base else node.attr
    if isinstance(node, ast.Call):
        base = resolve_call_name(node.func, imports)
        return f"{base}()" if base else ""
    return ""


@dataclass
class ModuleConcurrency:
    """Worker topology of one module (empty when it builds no pools)."""

    #: Function defs at module level, by name.
    functions: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = field(
        default_factory=dict
    )
    #: Names handed to pool submit methods (worker entry points).
    worker_roots: set[str] = field(default_factory=set)
    #: Names passed as ``initializer=`` to a pool constructor.
    initializers: set[str] = field(default_factory=set)
    #: Worker roots plus every same-module function they transitively
    #: call — the code that actually runs inside worker processes.
    worker_closure: set[str] = field(default_factory=set)

    def worker_functions(
        self,
    ) -> list[ast.FunctionDef | ast.AsyncFunctionDef]:
        """Defs of every function in the worker closure, root-first."""
        return [
            self.functions[name]
            for name in sorted(self.worker_closure)
            if name in self.functions
        ]


def _called_names(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
) -> set[str]:
    """Plain-name call targets inside one function body."""
    names: set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            names.add(node.func.id)
    return names


def analyze_concurrency(tree: ast.Module) -> ModuleConcurrency:
    """Compute the worker topology of one parsed module."""
    info = ModuleConcurrency()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.functions[node.name] = node
    # Methods can also submit to pools; walk the whole tree for calls.
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in POOL_SUBMIT_METHODS
            and node.args
            and isinstance(node.args[0], ast.Name)
        ):
            info.worker_roots.add(node.args[0].id)
        for keyword in node.keywords:
            if keyword.arg == "initializer" and isinstance(
                keyword.value, ast.Name
            ):
                info.initializers.add(keyword.value.id)
    # Transitive same-module closure: the initializer and every helper
    # a worker calls run in the worker process too.
    pending = list(info.worker_roots | info.initializers)
    closure: set[str] = set()
    while pending:
        name = pending.pop()
        if name in closure or name not in info.functions:
            continue
        closure.add(name)
        pending.extend(_called_names(info.functions[name]))
    info.worker_closure = closure
    return info
