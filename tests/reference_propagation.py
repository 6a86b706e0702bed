"""Reference route propagation: the one-deque-BFS-per-phase implementation.

This is the body of :class:`~repro.bgp.propagation.RoutePropagator` as
it was before propagation went lean (tuple adjacency, the first-hop
restriction on the origin's edges only, a downhill queue seeded from
the reached list), kept unchanged as an independent oracle. It checks
the first-hop restriction on every edge and seeds the downhill queue by
scanning every AS. ``propagate`` returns the raw ``(parent, rtype)``
arrays, which the lean propagator must reproduce exactly.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable

from repro.bgp.propagation import RouteType
from repro.topology.model import ASTopology
from repro.util.indexing import AsnIndexer


class ReferencePropagator:
    """The seed Gao–Rexford propagator over an :class:`ASTopology`."""

    def __init__(self, topo: ASTopology) -> None:
        self._topo = topo
        self._indexer = AsnIndexer(topo.ases)
        n = len(self._indexer)
        # Uphill: edges from an AS to those it announces customer routes
        # to upstream (providers + siblings). Downhill: customers +
        # siblings. Peers: plain peer links.
        self._uphill: list[list[int]] = [[] for _ in range(n)]
        self._downhill: list[list[int]] = [[] for _ in range(n)]
        self._peers: list[list[int]] = [[] for _ in range(n)]
        for asn, node in topo.ases.items():
            index = self._indexer.index(asn)
            for provider in node.providers:
                self._uphill[index].append(self._indexer.index(provider))
            for customer in node.customers:
                self._downhill[index].append(self._indexer.index(customer))
            for sibling in node.siblings:
                sibling_index = self._indexer.index(sibling)
                self._uphill[index].append(sibling_index)
                self._downhill[index].append(sibling_index)
            for peer in node.peers:
                self._peers[index].append(self._indexer.index(peer))

    def propagate(
        self,
        origin: int,
        first_hops: Iterable[int] | None = None,
    ) -> tuple[list[int], list[int]]:
        """``(parent, rtype)`` of every AS's best route to ``origin``."""
        n = len(self._indexer)
        origin_index = self._indexer.index(origin)
        allowed: set[int] | None = None
        if first_hops is not None:
            allowed = {
                idx
                for asn in first_hops
                if (idx := self._indexer.index_or_none(asn)) is not None
            }

        parent = [-2] * n  # -2 = unreached, -1 = origin
        rtype = [int(RouteType.NONE)] * n
        parent[origin_index] = -1
        rtype[origin_index] = int(RouteType.CUSTOMER)

        customer_order = self._uphill_phase(origin_index, allowed, parent, rtype)
        self._peer_phase(origin_index, allowed, customer_order, parent, rtype)
        self._downhill_phase(origin_index, allowed, parent, rtype)
        return parent, rtype

    # -- phases ---------------------------------------------------------

    def _first_hop_ok(
        self, source: int, target: int, origin_index: int, allowed: set[int] | None
    ) -> bool:
        return source != origin_index or allowed is None or target in allowed

    def _uphill_phase(
        self,
        origin_index: int,
        allowed: set[int] | None,
        parent: list[int],
        rtype: list[int],
    ) -> list[int]:
        """BFS along uphill edges; returns nodes in discovery order."""
        order = [origin_index]
        queue = deque([origin_index])
        while queue:
            current = queue.popleft()
            for upstream in self._uphill[current]:
                if parent[upstream] != -2:
                    continue
                if not self._first_hop_ok(current, upstream, origin_index, allowed):
                    continue
                parent[upstream] = current
                rtype[upstream] = int(RouteType.CUSTOMER)
                order.append(upstream)
                queue.append(upstream)
        return order

    def _peer_phase(
        self,
        origin_index: int,
        allowed: set[int] | None,
        customer_order: list[int],
        parent: list[int],
        rtype: list[int],
    ) -> None:
        # Iterating in BFS discovery order keeps peer routes shortest.
        for current in customer_order:
            for peer in self._peers[current]:
                if parent[peer] != -2:
                    continue
                if not self._first_hop_ok(current, peer, origin_index, allowed):
                    continue
                parent[peer] = current
                rtype[peer] = int(RouteType.PEER)

    def _downhill_phase(
        self,
        origin_index: int,
        allowed: set[int] | None,
        parent: list[int],
        rtype: list[int],
    ) -> None:
        queue = deque(
            index for index in range(len(parent)) if parent[index] != -2
        )
        while queue:
            current = queue.popleft()
            for downstream in self._downhill[current]:
                if parent[downstream] != -2:
                    continue
                if not self._first_hop_ok(
                    current, downstream, origin_index, allowed
                ):
                    continue
                parent[downstream] = current
                rtype[downstream] = int(RouteType.PROVIDER)
                queue.append(downstream)
