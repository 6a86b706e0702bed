"""Flow-sensitive dataflow: CFG construction + forward abstract
interpretation over stdlib ``ast``.

The RL3xx rules need more than the call graph: they reason about
*order* (fsync before rename, sync before save), about *paths* (an
fsync on one branch but not the other), and about *exception edges*
(a handler reached before the statement's effect happened). This
module provides the three pieces they share:

* :class:`CFG` / :func:`build_cfg` — an intraprocedural control-flow
  graph with one simple statement per block, explicit ``true``/
  ``false`` branch edges carrying the test expression, and an ``exc``
  edge from every statement that may raise to the innermost enclosing
  handler (or the function's exceptional exit). ``try/except/finally``
  routes both the normal and the exceptional continuation through the
  ``finally`` body; a catch-all handler (bare ``except``,
  ``except Exception``/``BaseException``) seals the dispatch so
  handled paths do not leak to the outer scope.

* :class:`ForwardAnalysis` / :func:`analyse` — a worklist fixpoint
  interpreter over the CFG. A client supplies the lattice operations
  (``initial``/``join``/``transfer``/``branch``); the engine
  propagates the *pre*-state of a statement along its exception edge
  (the statement's effect did not happen if it raised) and the
  *post*-state along the normal/branch edges.

* :func:`effect_functions` — interprocedural effect summaries over the
  existing :class:`~tools.reprolint.program.ProgramIndex` call graph:
  the fixpoint set of functions that (directly or transitively)
  perform a given base effect, so ``_flush_and_sync(fd)`` grants the
  fsync obligation at its call sites just like ``os.fsync`` does.

Abstract states must be immutable values with structural equality
(``dict``/``frozenset`` compositions compare fine); the engine bounds
the fixpoint at :data:`MAX_VISITS` block visits and returns the
partial result.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from typing import Any

NORMAL = "normal"
TRUE = "true"
FALSE = "false"
EXC = "exc"

#: Fixpoint budget: total block visits before the engine gives up.
MAX_VISITS = 20000

#: ``except`` clauses treated as catching everything the analysis
#: models (the rules reason about ordinary exceptions, not KeyboardInterrupt
#: taxonomy).
_CATCH_ALL = {"Exception", "BaseException"}


@dataclass
class Edge:
    """One CFG edge; ``test`` is set on ``true``/``false`` edges."""

    dst: int
    kind: str = NORMAL
    test: ast.expr | None = None


@dataclass
class Block:
    """One CFG node: at most one simple statement (or handler head)."""

    id: int
    stmt: ast.stmt | ast.excepthandler | None = None
    #: Set when ``stmt`` is the test of an ``if``/``while`` — the
    #: statement itself transfers nothing; its edges carry the test.
    is_branch: bool = False
    edges: list[Edge] = field(default_factory=list)


class CFG:
    """A function body's control-flow graph."""

    def __init__(self) -> None:
        self.blocks: list[Block] = []
        self.entry = self._new().id
        self.exit = self._new().id
        self.exc_exit = self._new().id

    def _new(
        self,
        stmt: ast.stmt | ast.excepthandler | None = None,
        *,
        is_branch: bool = False,
    ) -> Block:
        block = Block(id=len(self.blocks), stmt=stmt, is_branch=is_branch)
        self.blocks.append(block)
        return block


def _may_raise(node: ast.AST) -> bool:
    """Whether executing ``node`` can raise (calls, raise, assert)."""
    for child in ast.walk(node):
        if isinstance(child, (ast.Call, ast.Raise, ast.Assert)):
            return True
    return False


def _is_catch_all(handler: ast.excepthandler) -> bool:
    if handler.type is None:
        return True
    names = (
        handler.type.elts
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    for name in names:
        target = name
        if isinstance(target, ast.Attribute):
            target = ast.Name(id=target.attr)
        if isinstance(target, ast.Name) and target.id in _CATCH_ALL:
            return True
    return False


class _Builder:
    """Recursive CFG builder; frontiers are ``(block, kind, test)``."""

    def __init__(self, cfg: CFG) -> None:
        self.cfg = cfg
        #: Innermost-last stack of exception targets.
        self.handlers: list[int] = [cfg.exc_exit]
        #: ``(continue_target, break_target)`` stack.
        self.loops: list[tuple[int, int]] = []

    # -- wiring helpers ----------------------------------------------------

    def _wire(
        self,
        preds: list[tuple[int, str, ast.expr | None]],
        dst: int,
    ) -> None:
        for src, kind, test in preds:
            self.cfg.blocks[src].edges.append(Edge(dst, kind, test))

    def _exc_edge(self, block: Block) -> None:
        block.edges.append(Edge(self.handlers[-1], EXC))

    # -- statement dispatch ------------------------------------------------

    def seq(
        self,
        stmts: list[ast.stmt],
        preds: list[tuple[int, str, ast.expr | None]],
    ) -> list[tuple[int, str, ast.expr | None]]:
        for stmt in stmts:
            preds = self.stmt(stmt, preds)
        return preds

    def stmt(
        self,
        node: ast.stmt,
        preds: list[tuple[int, str, ast.expr | None]],
    ) -> list[tuple[int, str, ast.expr | None]]:
        if isinstance(node, ast.If):
            return self._if(node, preds)
        if isinstance(node, ast.While):
            return self._while(node, preds)
        if isinstance(node, (ast.For, ast.AsyncFor)):
            return self._for(node, preds)
        if isinstance(node, ast.Try):
            return self._try(node, preds)
        if isinstance(node, (ast.With, ast.AsyncWith)):
            return self._with(node, preds)
        block = self.cfg._new(node)
        self._wire(preds, block.id)
        if isinstance(node, ast.Return):
            if node.value is not None and _may_raise(node.value):
                self._exc_edge(block)
            block.edges.append(Edge(self.cfg.exit))
            return []
        if isinstance(node, ast.Raise):
            self._exc_edge(block)
            return []
        if isinstance(node, ast.Break):
            block.edges.append(Edge(self.loops[-1][1]))
            return []
        if isinstance(node, ast.Continue):
            block.edges.append(Edge(self.loops[-1][0]))
            return []
        # Nested defs don't execute here; their bodies are analysed
        # separately. The block still exists so the name binding is
        # visible to transfer functions that care.
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ) and _may_raise(node):
            self._exc_edge(block)
        return [(block.id, NORMAL, None)]

    # -- compound statements -----------------------------------------------

    def _if(
        self, node: ast.If, preds: list
    ) -> list[tuple[int, str, ast.expr | None]]:
        cond = self.cfg._new(node, is_branch=True)
        self._wire(preds, cond.id)
        if _may_raise(node.test):
            self._exc_edge(cond)
        body = self.seq(node.body, [(cond.id, TRUE, node.test)])
        if node.orelse:
            orelse = self.seq(node.orelse, [(cond.id, FALSE, node.test)])
        else:
            orelse = [(cond.id, FALSE, node.test)]
        return body + orelse

    def _while(
        self, node: ast.While, preds: list
    ) -> list[tuple[int, str, ast.expr | None]]:
        cond = self.cfg._new(node, is_branch=True)
        self._wire(preds, cond.id)
        if _may_raise(node.test):
            self._exc_edge(cond)
        after = self.cfg._new()
        self.loops.append((cond.id, after.id))
        body = self.seq(node.body, [(cond.id, TRUE, node.test)])
        self.loops.pop()
        self._wire(body, cond.id)
        infinite = (
            isinstance(node.test, ast.Constant) and node.test.value is True
        )
        exits: list[tuple[int, str, ast.expr | None]] = []
        if not infinite:
            exits = self.seq(node.orelse, [(cond.id, FALSE, node.test)])
        return exits + [(after.id, NORMAL, None)]

    def _for(
        self, node: ast.For | ast.AsyncFor, preds: list
    ) -> list[tuple[int, str, ast.expr | None]]:
        setup = self.cfg._new(node)  # evaluates the iterable
        self._wire(preds, setup.id)
        if _may_raise(node.iter):
            self._exc_edge(setup)
        head = self.cfg._new(node, is_branch=True)  # next() dispatch
        self._exc_edge(head)  # next() itself may raise
        setup.edges.append(Edge(head.id))
        after = self.cfg._new()
        self.loops.append((head.id, after.id))
        body = self.seq(node.body, [(head.id, TRUE, None)])
        self.loops.pop()
        self._wire(body, head.id)
        exits = self.seq(node.orelse, [(head.id, FALSE, None)])
        return exits + [(after.id, NORMAL, None)]

    def _with(
        self, node: ast.With | ast.AsyncWith, preds: list
    ) -> list[tuple[int, str, ast.expr | None]]:
        enter = self.cfg._new(node)
        self._wire(preds, enter.id)
        self._exc_edge(enter)  # context manager acquisition may raise
        return self.seq(node.body, [(enter.id, NORMAL, None)])

    def _try(
        self, node: ast.Try, preds: list
    ) -> list[tuple[int, str, ast.expr | None]]:
        dispatch = self.cfg._new()  # where body exceptions land
        sealed = any(_is_catch_all(h) for h in node.handlers)

        if node.finalbody:
            # Exceptional route: a copy of the finally body whose end
            # re-raises to the outer handler.
            fin_exc = self.cfg._new()
            outer = self.handlers[-1]
            fin_exc_end = self.seq(
                node.finalbody, [(fin_exc.id, NORMAL, None)]
            )
            self._wire(fin_exc_end, outer)
            unhandled_target = fin_exc.id
        else:
            unhandled_target = self.handlers[-1]

        self.handlers.append(dispatch.id)
        body = self.seq(node.body, preds)
        self.handlers.pop()

        if node.orelse:
            # else runs only after an exception-free body; its own
            # exceptions go to the outer scope (through finally).
            self.handlers.append(unhandled_target)
            body = self.seq(node.orelse, body)
            self.handlers.pop()

        handler_exits: list[tuple[int, str, ast.expr | None]] = []
        self.handlers.append(unhandled_target)
        for handler in node.handlers:
            # The head block is a pure join point: giving it the
            # ExceptHandler node as a stmt would make ast.walk see the
            # whole handler body twice (once here, once per-statement).
            head = self.cfg._new()
            dispatch.edges.append(Edge(head.id))
            handler_exits += self.seq(
                handler.body, [(head.id, NORMAL, None)]
            )
        self.handlers.pop()
        if not sealed and node.handlers:
            dispatch.edges.append(Edge(unhandled_target, EXC))
        if not node.handlers:
            dispatch.edges.append(Edge(unhandled_target, EXC))

        exits = body + handler_exits
        if node.finalbody:
            fin = self.cfg._new()
            self._wire(exits, fin.id)
            return self.seq(node.finalbody, [(fin.id, NORMAL, None)])
        return exits


def build_cfg(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> CFG:
    """The CFG of one function body (nested defs are opaque blocks)."""
    cfg = CFG()
    builder = _Builder(cfg)
    exits = builder.seq(fn.body, [(cfg.entry, NORMAL, None)])
    builder._wire(exits, cfg.exit)
    return cfg


class ForwardAnalysis:
    """Lattice interface a dataflow client implements.

    States are immutable values compared with ``==``; ``join`` must be
    monotone (the engine re-queues a block only when the joined input
    actually changes, and gives up after :data:`MAX_VISITS`).
    """

    def initial(self) -> Any:
        """Abstract state at function entry."""
        raise NotImplementedError

    def join(self, a: Any, b: Any) -> Any:
        """Least upper bound of two states (path merge)."""
        raise NotImplementedError

    def transfer(self, stmt: ast.AST, state: Any) -> Any:
        """Post-state of executing one simple statement."""
        return state

    def branch(
        self, test: ast.expr | None, assume: bool, state: Any
    ) -> Any:
        """Refine ``state`` along the true/false edge of ``test``."""
        return state


@dataclass
class DataflowResult:
    """Fixpoint states: the input state of every reached block."""

    cfg: CFG
    in_states: dict[int, Any]

    def state_at(self, block_id: int) -> Any | None:
        return self.in_states.get(block_id)


def analyse(cfg: CFG, analysis: ForwardAnalysis) -> DataflowResult:
    """Run ``analysis`` to fixpoint over ``cfg`` (forward, worklist)."""
    in_states: dict[int, Any] = {cfg.entry: analysis.initial()}
    worklist: deque[int] = deque([cfg.entry])
    queued = {cfg.entry}
    visits = 0
    while worklist:
        visits += 1
        if visits > MAX_VISITS:
            break
        block_id = worklist.popleft()
        queued.discard(block_id)
        block = cfg.blocks[block_id]
        state = in_states[block_id]
        if block.stmt is not None and not block.is_branch:
            post = analysis.transfer(block.stmt, state)
        else:
            post = state
        for edge in block.edges:
            if edge.kind == EXC:
                # The statement's effect did not happen if it raised.
                out = state
            elif edge.kind == TRUE:
                out = analysis.branch(edge.test, True, post)
            elif edge.kind == FALSE:
                out = analysis.branch(edge.test, False, post)
            else:
                out = post
            previous = in_states.get(edge.dst)
            merged = (
                out if previous is None else analysis.join(previous, out)
            )
            if previous is None or merged != previous:
                in_states[edge.dst] = merged
                if edge.dst not in queued:
                    queued.add(edge.dst)
                    worklist.append(edge.dst)
    return DataflowResult(cfg=cfg, in_states=in_states)


def effect_functions(index: Any, base_effect) -> set[str]:
    """Function keys with a transitive effect over the call graph.

    ``base_effect(fn_info)`` says whether a function performs the
    effect directly (e.g. calls ``os.fsync``); the fixpoint adds every
    function that calls an effectful one, so obligation rules honour
    helpers wrapping the primitive. Uses the resolved (non-external)
    call edges of the existing :class:`ProgramIndex` — unresolvable
    dynamism keeps functions out of the set, which only makes rules
    quieter.
    """
    effectful: set[str] = {
        key for key, fn in index.functions.items() if base_effect(fn)
    }
    changed = True
    while changed:
        changed = False
        for key, fn in index.functions.items():
            if key in effectful:
                continue
            for call in fn.calls:
                if not call.external and call.callee in effectful:
                    effectful.add(key)
                    changed = True
                    break
    return effectful
