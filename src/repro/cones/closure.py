"""Transitive-closure reachability over directed AS graphs.

The Full Cone's directed graph "may indeed contain loops" (Section
3.2), so reachability is computed on the SCC condensation: Tarjan's
algorithm (iterative) collapses cycles, the condensation is processed
in reverse topological order, and per-SCC reachable sets are stored as
packed bit rows (numpy ``uint8``), giving O(V·V/8) memory and fast
vectorised row ORs. Every node reaches itself (closure is reflexive) —
an AS is always a valid source for its own prefixes.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np


class ReachabilityClosure:
    """Reflexive-transitive reachability on a directed graph.

    Nodes are dense indices ``0..n-1``; ``edges`` are ``(src, dst)``
    pairs meaning ``dst`` is reachable from ``src``.
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]) -> None:
        self._n = n
        adjacency: list[list[int]] = [[] for _ in range(n)]
        for src, dst in edges:
            if src != dst:
                adjacency[src].append(dst)
        self._scc_of, n_sccs, scc_order = _tarjan(n, adjacency)
        row_bytes = (n + 7) // 8
        rows = np.zeros((n_sccs, row_bytes), dtype=np.uint8)
        # Reflexivity: each SCC row contains its own member nodes.
        for node in range(n):
            scc = self._scc_of[node]
            rows[scc, node >> 3] |= np.uint8(1 << (node & 7))
        # Tarjan emits SCCs in reverse topological order (sinks first),
        # so by the time we OR a child's row into its parent, the
        # child's row is complete.
        scc_children: list[set[int]] = [set() for _ in range(n_sccs)]
        for src in range(n):
            for dst in adjacency[src]:
                src_scc, dst_scc = self._scc_of[src], self._scc_of[dst]
                if src_scc != dst_scc:
                    scc_children[src_scc].add(dst_scc)
        for scc in scc_order:
            for child in scc_children[scc]:
                rows[scc] |= rows[child]
        self._rows = rows

    @property
    def n(self) -> int:
        """Number of nodes (ASes) the closure matrix covers."""
        return self._n

    def reaches(self, src: int, dst: int) -> bool:
        """True iff ``dst`` is reachable from ``src`` (or equal)."""
        return bool(
            self._rows[self._scc_of[src], dst >> 3] & np.uint8(1 << (dst & 7))
        )

    def row(self, node: int) -> np.ndarray:
        """Packed ``uint8`` reachability row of ``node`` (do not mutate)."""
        return self._rows[self._scc_of[node]]

    def node_rows(self) -> np.ndarray:
        """Per-node packed reachability matrix ``(n, row_bytes)``.

        Materialises one row per node (SCC rows are fanned out), so two
        closures can be compared without depending on SCC numbering,
        which is not stable across builds.
        """
        if self._n == 0:
            return np.zeros((0, self._rows.shape[1]), dtype=np.uint8)
        return self._rows[self._scc_of]

    def state_digest(self) -> str:
        """SHA-256 over per-node reachability (SCC-numbering agnostic).

        Uses :meth:`node_rows`, so two closures that assign different
        internal SCC ids to the same reachability relation digest
        identically — the property checkpoint-restore verification
        needs (pickling round-trips SCC numbering, rebuilds may not).
        """
        import hashlib

        rows = self.node_rows()
        digest = hashlib.sha256()
        digest.update(f"{self._n}:{rows.shape}".encode())
        digest.update(np.ascontiguousarray(rows).tobytes())
        return digest.hexdigest()

    def unpacked_row(self, node: int) -> np.ndarray:
        """Boolean reachability vector of length ``n`` for ``node``."""
        bits = np.unpackbits(self.row(node), bitorder="little")
        return bits[: self._n].astype(bool)

    def reachable_set(self, node: int) -> set[int]:
        """The set of node indices reachable from ``node`` (incl. itself)."""
        return set(np.flatnonzero(self.unpacked_row(node)).tolist())

    def reach_count(self, node: int) -> int:
        """Number of reachable nodes including ``node`` itself."""
        return int(np.unpackbits(self.row(node), bitorder="little")[: self._n].sum())

    def counts(self) -> np.ndarray:
        """Vector of reach counts for every node."""
        return self.weighted_counts(
            np.ones(self._n, dtype=np.float64)
        ).astype(np.int64)

    def weighted_counts(self, weights: np.ndarray) -> np.ndarray:
        """Per-node sum of ``weights`` over the reachable set.

        ``weights`` has length ``n``; used to turn reachability into
        valid-address-space sizes (/24 equivalents) in one shot.
        Processes SCC rows in blocks to bound the unpacked footprint.
        """
        weights = np.asarray(weights, dtype=np.float64)
        n_sccs = self._rows.shape[0]
        scc_totals = np.empty(n_sccs, dtype=np.float64)
        block = 512
        for start in range(0, n_sccs, block):
            chunk = np.unpackbits(
                self._rows[start : start + block], axis=1, bitorder="little"
            )[:, : self._n]
            scc_totals[start : start + block] = chunk @ weights
        return scc_totals[self._scc_of]


def _tarjan(
    n: int, adjacency: list[list[int]]
) -> tuple[np.ndarray, int, list[int]]:
    """Iterative Tarjan SCC.

    Returns ``(scc_of, n_sccs, order)`` where ``order`` lists SCC ids
    in the order Tarjan completes them — reverse topological order of
    the condensation.
    """
    index_of = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    scc_of = np.full(n, -1, dtype=np.int64)
    order: list[int] = []
    counter = 0
    n_sccs = 0

    for root in range(n):
        if index_of[root] != -1:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            node, child_pos = work[-1]
            if child_pos == 0:
                index_of[node] = lowlink[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
            advanced = False
            children = adjacency[node]
            while child_pos < len(children):
                child = children[child_pos]
                child_pos += 1
                if index_of[child] == -1:
                    work[-1] = (node, child_pos)
                    work.append((child, 0))
                    advanced = True
                    break
                if on_stack[child]:
                    lowlink[node] = min(lowlink[node], index_of[child])
            if advanced:
                continue
            work.pop()
            if lowlink[node] == index_of[node]:
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    scc_of[member] = n_sccs
                    if member == node:
                        break
                order.append(n_sccs)
                n_sccs += 1
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return scc_of, n_sccs, order
