"""RL302–RL305 — the flow-sensitive dataflow rules.

RL302 interprets the declarative commit-ordering protocol in
:mod:`tools.reprolint.protocols` over each function's CFG
(:mod:`tools.reprolint.dataflow`): fsync dominates rename on every
durable path, directly or through a helper whose call tree fsyncs, and
``wal.sync()`` dominates checkpoint save.

Dtype/shape rules run abstract interpretation over numpy expressions
in the configured dtype scope (``core``/``net``/``cones``):

* RL304 — silent dtype round-trips and upcasts (integer data
  accumulated through a float64 temporary and cast back, float32/
  float64 mixed arithmetic, chained fancy-index copies). It tracks
  dtypes through assignments; RL004's per-call-site checks (missing
  dtypes, object arrays, append loops) are a different set and stay;
* RL305 — shape compatibility at concatenate/stack/matmul/broadcast
  sites whose operand shapes are statically known from construction.

Every analysis is conservative in the quiet direction: unknown calls,
dynamic shapes and unresolvable names drop to TOP and produce no
findings.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable
from typing import Any, Callable

from tools.reprolint.checks._astutil import import_map, resolve_call_name
from tools.reprolint.checks.program_concurrency import _ProgramChecker
from tools.reprolint.context import ProjectContext
from tools.reprolint.dataflow import (
    ForwardAnalysis,
    analyse,
    build_cfg,
    effect_functions,
)
from tools.reprolint.findings import Finding
from tools.reprolint import program as _program
from tools.reprolint.protocols import WAL_COMMIT
from tools.reprolint.registry import register

Resolver = Callable[[ast.Call], str]


def _matches(resolved: str, patterns: Iterable[str]) -> bool:
    """Whether a resolved dotted call name fires a pattern set."""
    if not resolved:
        return False
    return resolved in patterns or resolved.split(".")[-1] in patterns


def _scope_functions(
    ctx: ProjectContext,
    index: _program.ProgramIndex,
    keep: Callable[[str], bool],
) -> Iterable[tuple[str, dict[str, str], ast.AST]]:
    """Every function (methods and nested defs included) in modules
    whose repo-relative path passes ``keep``."""
    for name in sorted(index.modules):
        mod = index.modules[name]
        if not keep(mod.rel):
            continue
        imports = import_map(mod.tree)
        for node in ast.walk(mod.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield mod.rel, imports, node


def _calls_in(stmt: ast.AST) -> list[ast.Call]:
    return [n for n in ast.walk(stmt) if isinstance(n, ast.Call)]


def _receiver_name(func: ast.expr) -> str:
    """Last dotted component before the method: ``self.wal.append`` →
    ``wal``; ``store.save`` → ``store``."""
    if not isinstance(func, ast.Attribute):
        return ""
    base = func.value
    if isinstance(base, ast.Attribute):
        return base.attr
    if isinstance(base, ast.Name):
        return base.id
    return ""


class _Dedup:
    """Finding sink deduplicating the finally-duplication of the CFG."""

    def __init__(self, rel: str, rule: str) -> None:
        self.rel = rel
        self.rule = rule
        self._seen: set[tuple[int, int, str]] = set()
        self.findings: list[Finding] = []

    def emit(self, line: int, col: int, message: str) -> None:
        key = (line, col, message)
        if key in self._seen:
            return
        self._seen.add(key)
        self.findings.append(
            Finding(self.rel, line, col + 1, self.rule, message)
        )


# ---------------------------------------------------------------------------
# RL302 — commit-ordering obligations
# ---------------------------------------------------------------------------

#: Path summary lattice element: (synced, exempt) booleans; the state
#: is the set of summaries of all paths reaching a point.
_CLEAN = frozenset({(False, False)})


class _CommitAnalysis(ForwardAnalysis):
    """Must-fsync-before-rename / must-sync-before-save obligations."""

    def __init__(
        self, resolve: Resolver, sync_effect_names: frozenset[str]
    ) -> None:
        self.resolve = resolve
        self.sync_calls = set(WAL_COMMIT.option("sync_calls"))
        self.sync_methods = set(WAL_COMMIT.option("sync_methods"))
        self.sync_effect_names = sync_effect_names
        self.dirty_methods = set(WAL_COMMIT.option("dirty_methods"))
        self.dirty_receivers = set(WAL_COMMIT.option("dirty_receivers"))
        self.mode_params = set(WAL_COMMIT.option("mode_params"))

    def initial(self) -> frozenset:
        return _CLEAN

    def join(self, a: frozenset, b: frozenset) -> frozenset:
        return a | b

    def _is_sync(self, call: ast.Call) -> bool:
        resolved = self.resolve(call)
        if _matches(resolved, self.sync_calls):
            return True
        if _matches(resolved, self.sync_effect_names):
            return True
        return (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in self.sync_methods
        )

    def _is_dirty(self, call: ast.Call) -> bool:
        return (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in self.dirty_methods
            and _receiver_name(call.func) in self.dirty_receivers
        )

    def transfer(self, stmt: ast.AST, state: frozenset) -> frozenset:
        for call in _calls_in(stmt):
            if self._is_dirty(call):
                state = frozenset((False, e) for _s, e in state)
            elif self._is_sync(call):
                state = frozenset((True, e) for _s, e in state)
        return state

    def branch(
        self, test: ast.expr | None, assume: bool, state: frozenset
    ) -> frozenset:
        mode = None
        if isinstance(test, ast.Name) and test.id in self.mode_params:
            mode = assume
        elif (
            isinstance(test, ast.UnaryOp)
            and isinstance(test.op, ast.Not)
            and isinstance(test.operand, ast.Name)
            and test.operand.id in self.mode_params
        ):
            mode = not assume
        if mode is False:
            # The declared non-durable mode: obligations waived.
            return frozenset((s, True) for s, _e in state)
        return state


@register
class CommitOrdering(_ProgramChecker):
    """RL302 — fsync dominates rename, sync dominates checkpoint save."""

    rule = "RL302"
    title = (
        "commit ordering: fsync before rename on every durable path, "
        "wal.sync() before every checkpoint save"
    )

    def check_program(
        self, ctx: ProjectContext, index: _program.ProgramIndex
    ) -> Iterable[Finding]:
        sync_effect = effect_functions(
            index,
            lambda fn: any(
                call.external.split(".")[-1] == "fsync"
                for call in fn.calls
            ),
        )
        effect_names = frozenset(
            key.split(":", 1)[1].split(".")[-1] for key in sync_effect
        )
        rename_sinks = set(WAL_COMMIT.option("rename_sinks"))
        save_methods = set(WAL_COMMIT.option("save_methods"))
        save_receivers = set(WAL_COMMIT.option("save_receivers"))
        for rel, imports, fn in _scope_functions(
            ctx, index, ctx.config.in_durable_scope
        ):
            resolve = lambda call, imp=imports: resolve_call_name(  # noqa: E731
                call.func, imp
            )
            cfg = build_cfg(fn)
            analysis = _CommitAnalysis(resolve, effect_names)
            result = analyse(cfg, analysis)
            sink = _Dedup(rel, self.rule)
            for block in cfg.blocks:
                if block.stmt is None or block.is_branch:
                    continue
                state = result.state_at(block.id)
                if state is None:
                    continue
                for call in _calls_in(block.stmt):
                    resolved = resolve(call)
                    unsynced = any(
                        not synced and not exempt
                        for synced, exempt in state
                    )
                    if (
                        resolved in rename_sinks
                        and unsynced
                    ):
                        sink.emit(
                            call.lineno,
                            call.col_offset,
                            "rename reachable without a preceding "
                            "fsync on a durable path — fsync the "
                            "temp file (or a helper with fsync "
                            "effect) before os.replace/os.rename",
                        )
                    elif (
                        isinstance(call.func, ast.Attribute)
                        and call.func.attr in save_methods
                        and _receiver_name(call.func) in save_receivers
                        and unsynced
                    ):
                        sink.emit(
                            call.lineno,
                            call.col_offset,
                            "checkpoint save reachable without "
                            "wal.sync() on a path — the checkpoint "
                            "must never outrun the log; sync on "
                            "every path leading here",
                        )
            yield from sink.findings


# ---------------------------------------------------------------------------
# RL304 / RL305 — numpy dtype and shape abstract interpretation
# ---------------------------------------------------------------------------

_INT_DTYPES = {
    "int8", "int16", "int32", "int64",
    "uint8", "uint16", "uint32", "uint64",
    "intp", "uintp",
}
_FLOAT_DTYPES = {"float16", "float32", "float64"}
_KNOWN_DTYPES = _INT_DTYPES | _FLOAT_DTYPES | {"bool", "bool_", "complex128"}

#: float64 produced by accumulating integer data (weighted bincount,
#: int/int true division) — casting it back to an integer dtype is the
#: RL304 round-trip finding.
_F64_ACC = "float64!acc"

_FLOAT64_FACTORIES = {"zeros", "ones", "empty", "full", "linspace"}


def _dtype_token(node: ast.expr) -> str:
    """'int64' for ``np.int64`` / ``"int64"`` / ``int64``, '' unknown."""
    if isinstance(node, ast.Attribute) and node.attr in _KNOWN_DTYPES:
        return node.attr
    if isinstance(node, ast.Name) and node.id in _KNOWN_DTYPES:
        return node.id
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value if node.value in _KNOWN_DTYPES else ""
    return ""


def _is_int_token(token: str) -> bool:
    return token in _INT_DTYPES


def _int_width(token: str) -> int:
    digits = "".join(c for c in token if c.isdigit())
    return int(digits) if digits else 64


def _promote(left: str, right: str, op: ast.operator) -> str:
    """NEP-50-flavoured promotion over the token domain ('' = TOP)."""
    if not left or not right:
        return ""
    ints = {t for t in (left, right) if _is_int_token(t) or t == "pyint"}
    floats = {
        t
        for t in (left, right)
        if t in _FLOAT_DTYPES or t == _F64_ACC or t == "pyfloat"
    }
    if isinstance(op, ast.Div) and len(ints) == 2:
        return _F64_ACC
    if floats:
        if "float64" in floats or _F64_ACC in floats:
            return _F64_ACC if _F64_ACC in floats else "float64"
        if "float32" in floats:
            return "float32"
        if floats == {"pyfloat"}:
            return "float64" if ints else ""
        return "float64"
    real_ints = [t for t in (left, right) if _is_int_token(t)]
    if real_ints:
        return max(real_ints, key=_int_width)
    return ""


def _is_fancy_index(node: ast.expr) -> bool:
    """Index expressions that force a copy (mask/array, not slices)."""
    if isinstance(node, (ast.Slice, ast.Constant)):
        return False
    if isinstance(node, ast.Tuple):
        return any(_is_fancy_index(e) for e in node.elts)
    if isinstance(node, ast.UnaryOp):
        return _is_fancy_index(node.operand)
    return isinstance(node, (ast.Name, ast.Call, ast.Compare, ast.BinOp))


def _is_mask_index(node: ast.expr, env: dict[str, str]) -> bool:
    """Index expressions that are provably boolean masks — an inline
    comparison or a local tracked as a bool array. Requiring a mask on
    one side of a chained subscript is what separates double array
    gathers (``ends[idx][mask]``) from dict/tuple lookups
    (``counts[approach][c]``), which the pure syntactic test cannot
    tell apart."""
    if isinstance(node, ast.Compare):
        return True
    if isinstance(node, ast.UnaryOp):
        return _is_mask_index(node.operand, env)
    if isinstance(node, ast.Name):
        return env.get(node.id) in ("bool", "bool_")
    return False


class _DtypeAnalysis(ForwardAnalysis):
    """Tracks declared dtypes of locals through assignments."""

    def __init__(self, resolve: Resolver) -> None:
        self.resolve = resolve

    def initial(self) -> frozenset:
        return frozenset()

    def join(self, a: frozenset, b: frozenset) -> frozenset:
        return a & b  # agreeing facts survive the merge

    # -- expression evaluation --------------------------------------------

    def eval(self, node: ast.expr, state: frozenset) -> str:
        env = dict(state)
        return self._eval(node, env)

    def _eval(self, node: ast.expr, env: dict[str, str]) -> str:
        if isinstance(node, ast.Name):
            return env.get(node.id, "")
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool):
                return "bool"
            if isinstance(node.value, int):
                return "pyint"
            if isinstance(node.value, float):
                return "pyfloat"
            return ""
        if isinstance(node, ast.BinOp):
            left = self._eval(node.left, env)
            right = self._eval(node.right, env)
            return _promote(left, right, node.op)
        if isinstance(node, ast.Compare):
            return "bool"
        if isinstance(node, ast.Subscript):
            return self._eval(node.value, env)
        if isinstance(node, ast.Call):
            return self._eval_call(node, env)
        return ""

    def _eval_call(self, node: ast.Call, env: dict[str, str]) -> str:
        resolved = self.resolve(node)
        last = resolved.split(".")[-1] if resolved else ""
        if isinstance(node.func, ast.Attribute):
            method = node.func.attr
            src = self._eval(node.func.value, env)
            if method == "astype":
                dtype_node = node.args[0] if node.args else next(
                    (
                        kw.value
                        for kw in node.keywords
                        if kw.arg == "dtype"
                    ),
                    None,
                )
                return (
                    _dtype_token(dtype_node)
                    if dtype_node is not None
                    else src
                )
            if method == "sum":
                return "int64" if src in ("bool", "bool_") else src
            if method in ("mean", "std", "var"):
                return "float64"
            if method == "copy":
                return src
        if last in _FLOAT64_FACTORIES or last in ("array", "asarray",
                                                  "frombuffer", "arange",
                                                  "full_like", "zeros_like",
                                                  "ones_like", "empty_like"):
            for kw in node.keywords:
                if kw.arg == "dtype":
                    return _dtype_token(kw.value)
            if last in _FLOAT64_FACTORIES and last != "full":
                return "float64"
            return ""
        if last == "bincount":
            if any(kw.arg == "weights" for kw in node.keywords):
                return _F64_ACC
            return "int64"
        if last in ("sqrt", "log", "log2", "exp", "power"):
            src = self._eval(node.args[0], env) if node.args else ""
            return "float32" if src == "float32" else "float64"
        if last in _KNOWN_DTYPES:
            # np.uint64(2)-style scalar constructors.
            return last
        return ""

    # -- transfer ----------------------------------------------------------

    def transfer(self, stmt: ast.AST, state: frozenset) -> frozenset:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if isinstance(target, ast.Name):
                token = self.eval(stmt.value, state)
                state = frozenset(
                    p for p in state if p[0] != target.id
                )
                if token:
                    state = state | {(target.id, token)}
            elif isinstance(target, ast.Tuple):
                names = {
                    e.id for e in target.elts if isinstance(e, ast.Name)
                }
                state = frozenset(p for p in state if p[0] not in names)
        elif isinstance(stmt, ast.AugAssign) and isinstance(
            stmt.target, ast.Name
        ):
            synthetic = ast.BinOp(
                left=ast.Name(id=stmt.target.id, ctx=ast.Load()),
                op=stmt.op,
                right=stmt.value,
            )
            token = self.eval(synthetic, state)
            state = frozenset(p for p in state if p[0] != stmt.target.id)
            if token:
                state = state | {(stmt.target.id, token)}
        return state

    # -- reporting ---------------------------------------------------------

    def violations(
        self, stmt: ast.AST, state: frozenset, sink: _Dedup
    ) -> None:
        env = dict(state)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ) and node.func.attr == "astype":
                dtype_node = node.args[0] if node.args else next(
                    (
                        kw.value
                        for kw in node.keywords
                        if kw.arg == "dtype"
                    ),
                    None,
                )
                dst = (
                    _dtype_token(dtype_node)
                    if dtype_node is not None
                    else ""
                )
                src = self._eval(node.func.value, env)
                if src == _F64_ACC and _is_int_token(dst):
                    sink.emit(
                        node.lineno,
                        node.col_offset,
                        "integer data accumulated through a float64 "
                        "temporary and cast back to "
                        f"{dst} — accumulate exactly in int64 "
                        "(np.add.at / masked sums) or floor-divide "
                        "instead of the float round-trip",
                    )
            elif isinstance(node, ast.BinOp) and not isinstance(
                node.op, ast.MatMult
            ):
                left = self._eval(node.left, env)
                right = self._eval(node.right, env)
                reals = {
                    t
                    for t in (left, right)
                    if t in ("float32", "float64", _F64_ACC)
                }
                if "float32" in reals and (
                    "float64" in reals or _F64_ACC in reals
                ):
                    sink.emit(
                        node.lineno,
                        node.col_offset,
                        "float32 operand silently upcast to float64 "
                        "on the hot path — align the dtypes "
                        "explicitly (cast once, outside the kernel)",
                    )
            elif isinstance(node, ast.Subscript) and isinstance(
                node.value, ast.Subscript
            ):
                outer, inner = node.slice, node.value.slice
                if (
                    _is_fancy_index(outer)
                    and _is_fancy_index(inner)
                    and (
                        _is_mask_index(outer, env)
                        or _is_mask_index(inner, env)
                    )
                ):
                    sink.emit(
                        node.lineno,
                        node.col_offset,
                        "chained fancy indexing copies the array "
                        "twice — combine the masks/indices into one "
                        "gather",
                    )


@register
class HotPathDtypeFlow(_ProgramChecker):
    """RL304 — dtype abstract interpretation on the hot paths."""

    rule = "RL304"
    title = (
        "hot-path dtype flow: no float64 round-trips of integer "
        "data, no silent float32→float64 upcasts, no chained "
        "fancy-index copies"
    )

    def check_program(
        self, ctx: ProjectContext, index: _program.ProgramIndex
    ) -> Iterable[Finding]:
        for rel, imports, fn in _scope_functions(
            ctx, index, ctx.config.in_dtype_scope
        ):
            resolve = lambda call, imp=imports: resolve_call_name(  # noqa: E731
                call.func, imp
            )
            cfg = build_cfg(fn)
            analysis = _DtypeAnalysis(resolve)
            result = analyse(cfg, analysis)
            sink = _Dedup(rel, self.rule)
            for block in cfg.blocks:
                if block.stmt is None or block.is_branch:
                    continue
                state = result.state_at(block.id)
                if state is None:
                    continue
                analysis.violations(block.stmt, state, sink)
            yield from sink.findings


# -- shapes ------------------------------------------------------------------

Shape = tuple  # of int | ("sym", name) | None


def _dim_of(node: ast.expr) -> Any:
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return node.value
    if isinstance(node, ast.Name):
        return ("sym", node.id)
    return None


def _dims_compatible(a: Any, b: Any, *, broadcast: bool = False) -> bool:
    if a is None or b is None:
        return True
    if broadcast and (a == 1 or b == 1):
        return True
    if isinstance(a, tuple) or isinstance(b, tuple):
        return a == b or not (isinstance(a, tuple) and isinstance(b, tuple))
    return a == b


class _ShapeAnalysis(ForwardAnalysis):
    """Tracks statically-declared shapes of locals."""

    def __init__(self, resolve: Resolver) -> None:
        self.resolve = resolve

    def initial(self) -> frozenset:
        return frozenset()

    def join(self, a: frozenset, b: frozenset) -> frozenset:
        return a & b

    def _shape_from_arg(self, node: ast.expr) -> Shape | None:
        if isinstance(node, ast.Tuple):
            return tuple(_dim_of(e) for e in node.elts)
        dim = _dim_of(node)
        return (dim,) if dim is not None else None

    def eval(self, node: ast.expr, state: frozenset) -> Shape | None:
        env = dict(state)
        return self._eval(node, env)

    def _eval(
        self, node: ast.expr, env: dict[str, Shape]
    ) -> Shape | None:
        if isinstance(node, ast.Name):
            return env.get(node.id)
        if isinstance(node, ast.Call):
            resolved = self.resolve(node)
            last = resolved.split(".")[-1] if resolved else ""
            if last in ("zeros", "ones", "empty", "full") and node.args:
                return self._shape_from_arg(node.args[0])
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "reshape"
            ):
                if len(node.args) == 1:
                    return self._shape_from_arg(node.args[0])
                if len(node.args) > 1:
                    return tuple(_dim_of(a) for a in node.args)
            if last == "concatenate" and node.args:
                return self._concat_shape(node, env)
        return None

    def _operands(
        self, node: ast.Call, env: dict[str, Shape]
    ) -> list[Shape]:
        seq = node.args[0]
        if not isinstance(seq, (ast.List, ast.Tuple)):
            return []
        shapes = [self._eval(e, env) for e in seq.elts]
        return [s for s in shapes if s is not None]

    def _concat_axis(self, node: ast.Call) -> int:
        for kw in node.keywords:
            if kw.arg == "axis":
                if isinstance(kw.value, ast.Constant) and isinstance(
                    kw.value.value, int
                ):
                    return kw.value.value
                return -999  # dynamic axis: give up
        if len(node.args) > 1:
            value = node.args[1]
            if isinstance(value, ast.Constant) and isinstance(
                value.value, int
            ):
                return value.value
            return -999
        return 0

    def _concat_shape(
        self, node: ast.Call, env: dict[str, Shape]
    ) -> Shape | None:
        shapes = self._operands(node, env)
        axis = self._concat_axis(node)
        if not shapes or axis == -999:
            return None
        rank = len(shapes[0])
        if any(len(s) != rank for s in shapes):
            return None
        axis = axis % rank
        out = []
        for i in range(rank):
            if i == axis:
                dims = [s[i] for s in shapes]
                out.append(
                    sum(dims)
                    if all(isinstance(d, int) for d in dims)
                    else None
                )
            else:
                out.append(
                    shapes[0][i]
                    if all(s[i] == shapes[0][i] for s in shapes)
                    else None
                )
        return tuple(out)

    def transfer(self, stmt: ast.AST, state: frozenset) -> frozenset:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if isinstance(target, ast.Name):
                shape = self.eval(stmt.value, state)
                state = frozenset(p for p in state if p[0] != target.id)
                if shape is not None:
                    state = state | {(target.id, shape)}
            elif isinstance(target, ast.Tuple):
                names = {
                    e.id for e in target.elts if isinstance(e, ast.Name)
                }
                state = frozenset(p for p in state if p[0] not in names)
        return state

    def violations(
        self, stmt: ast.AST, state: frozenset, sink: _Dedup
    ) -> None:
        env = dict(state)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                resolved = self.resolve(node)
                last = resolved.split(".")[-1] if resolved else ""
                if last in ("concatenate", "stack", "vstack", "hstack"):
                    self._check_concat(node, last, env, sink)
                elif last in ("matmul", "dot") and len(node.args) >= 2:
                    a = self._eval(node.args[0], env)
                    b = self._eval(node.args[1], env)
                    self._check_matmul(node, a, b, sink)
            elif isinstance(node, ast.BinOp):
                if isinstance(node.op, ast.MatMult):
                    a = self._eval(node.left, env)
                    b = self._eval(node.right, env)
                    self._check_matmul(node, a, b, sink)
                else:
                    a = self._eval(node.left, env)
                    b = self._eval(node.right, env)
                    if a is not None and b is not None:
                        for da, db in zip(reversed(a), reversed(b)):
                            if (
                                isinstance(da, int)
                                and isinstance(db, int)
                                and not _dims_compatible(
                                    da, db, broadcast=True
                                )
                            ):
                                sink.emit(
                                    node.lineno,
                                    node.col_offset,
                                    f"operands of shape {a} and {b} "
                                    "cannot broadcast — trailing "
                                    f"dimensions {da} vs {db}",
                                )
                                break

    def _check_concat(
        self,
        node: ast.Call,
        kind: str,
        env: dict[str, Shape],
        sink: _Dedup,
    ) -> None:
        shapes = self._operands(node, env)
        if len(shapes) < 2:
            return
        rank = len(shapes[0])
        if any(len(s) != rank for s in shapes):
            return
        if kind == "stack":
            free = range(rank)
        else:
            axis = self._concat_axis(node)
            if kind == "vstack":
                axis = 0
            elif kind == "hstack":
                axis = 1 if rank > 1 else 0
            if axis == -999:
                return
            axis = axis % rank
            free = [i for i in range(rank) if i != axis]
        first = shapes[0]
        for other in shapes[1:]:
            for i in free:
                da, db = first[i], other[i]
                if (
                    isinstance(da, int)
                    and isinstance(db, int)
                    and da != db
                ):
                    sink.emit(
                        node.lineno,
                        node.col_offset,
                        f"np.{kind} operands disagree on dimension "
                        f"{i}: {da} vs {db} (shapes {first} and "
                        f"{other})",
                    )
                    return

    def _check_matmul(
        self,
        node: ast.AST,
        a: Shape | None,
        b: Shape | None,
        sink: _Dedup,
    ) -> None:
        if a is None or b is None or not a or not b:
            return
        inner_a = a[-1]
        inner_b = b[-2] if len(b) > 1 else b[-1]
        if (
            isinstance(inner_a, int)
            and isinstance(inner_b, int)
            and inner_a != inner_b
        ):
            sink.emit(
                node.lineno,
                node.col_offset,
                f"matmul inner dimensions disagree: {inner_a} vs "
                f"{inner_b} (shapes {a} @ {b})",
            )


@register
class StaticShapeCompatibility(_ProgramChecker):
    """RL305 — shape compatibility where shapes are statically known."""

    rule = "RL305"
    title = (
        "static shape compatibility at concatenate/stack/matmul/"
        "broadcast sites"
    )

    def check_program(
        self, ctx: ProjectContext, index: _program.ProgramIndex
    ) -> Iterable[Finding]:
        for rel, imports, fn in _scope_functions(
            ctx, index, ctx.config.in_dtype_scope
        ):
            resolve = lambda call, imp=imports: resolve_call_name(  # noqa: E731
                call.func, imp
            )
            cfg = build_cfg(fn)
            analysis = _ShapeAnalysis(resolve)
            result = analyse(cfg, analysis)
            sink = _Dedup(rel, self.rule)
            for block in cfg.blocks:
                if block.stmt is None or block.is_branch:
                    continue
                state = result.state_at(block.id)
                if state is None:
                    continue
                analysis.violations(block.stmt, state, sink)
            yield from sink.findings
