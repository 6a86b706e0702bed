"""Gao–Rexford route propagation over the ground-truth topology.

For each origin AS (and each of its announcement groups, which may be
restricted to a subset of first-hop neighbors) the propagator computes
the best route of *every* AS using the standard policy model:

* **export**: customer-learned routes are exported to everyone;
  peer- and provider-learned routes are exported only to customers
  (and siblings, which behave like an internal backbone);
* **selection**: customer routes are preferred over peer routes over
  provider routes; within a class, shorter AS paths win.

The implementation is the classic three-phase BFS (uphill, one peer
hop, downhill), O(V + E) per origin group, over tuple adjacency lists.
Paths are reconstructed lazily at the requested observation ASes only,
once per AS and outcome.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable

from repro.topology.model import ASTopology
from repro.util.indexing import AsnIndexer


class RouteType(enum.IntEnum):
    """How an AS learned its best route (ordering = preference)."""

    NONE = 0
    CUSTOMER = 1  # learned from a customer — most preferred
    PEER = 2
    PROVIDER = 3


_NONE = int(RouteType.NONE)
_CUSTOMER = int(RouteType.CUSTOMER)
_PEER = int(RouteType.PEER)
_PROVIDER = int(RouteType.PROVIDER)


class RoutingOutcome:
    """Best routes of all ASes for one (origin, announcement group).

    ``parent[i]`` is the dense index of AS ``i``'s next hop towards the
    origin (-1 at the origin, -2 when ``i`` has no route) and
    ``rtype[i]`` the :class:`RouteType` value of its best route. Paths
    are reconstructed on demand and memoised: one outcome feeds every
    collector and route-server observation point.
    """

    __slots__ = ("_asns", "_indexer", "_paths", "origin", "parent", "rtype")

    def __init__(
        self,
        indexer: AsnIndexer,
        asns: list[int],
        parent: list[int],
        rtype: list[int],
        origin: int,
    ) -> None:
        self._indexer = indexer
        self._asns = asns
        self._paths: dict[int, tuple[int, ...] | None] = {}
        self.parent = parent
        self.rtype = rtype
        self.origin = origin

    def has_route(self, asn: int) -> bool:
        index = self._indexer.index_or_none(asn)
        return index is not None and self.rtype[index] != _NONE

    def route_type(self, asn: int) -> RouteType:
        index = self._indexer.index(asn)
        return RouteType(self.rtype[index])

    def path_from(self, asn: int) -> tuple[int, ...] | None:
        """AS path as announced by ``asn``: ``(asn, ..., origin)``."""
        try:
            return self._paths[asn]
        except KeyError:
            pass
        index = self._indexer.index_or_none(asn)
        path: tuple[int, ...] | None = None
        if index is not None and self.rtype[index] != _NONE:
            asns, parent = self._asns, self.parent
            hops = [asns[index]]
            index = parent[index]
            while index >= 0:
                hops.append(asns[index])
                index = parent[index]
            path = tuple(hops)
        self._paths[asn] = path
        return path

    def routed_asns(self) -> list[int]:
        """All ASes that have a route to the origin."""
        return [
            self._asns[i] for i, rtype in enumerate(self.rtype) if rtype != _NONE
        ]


class RoutePropagator:
    """Propagates announcements over an :class:`ASTopology`."""

    def __init__(self, topo: ASTopology) -> None:
        self._indexer = AsnIndexer(topo.ases)
        self._asns = self._indexer.asns()
        index = self._indexer.index
        uphill: list[tuple[int, ...]] = [()] * len(self._asns)
        downhill: list[tuple[int, ...]] = [()] * len(self._asns)
        peers: list[tuple[int, ...]] = [()] * len(self._asns)
        # Uphill: edges from an AS to those it announces customer routes
        # to upstream (providers + siblings). Downhill: customers +
        # siblings. Peers: plain peer links.
        for asn, node in topo.ases.items():
            i = index(asn)
            siblings = tuple(index(s) for s in node.siblings)
            uphill[i] = tuple(index(p) for p in node.providers) + siblings
            downhill[i] = tuple(index(c) for c in node.customers) + siblings
            peers[i] = tuple(index(p) for p in node.peers)
        self._uphill = uphill
        self._downhill = downhill
        self._peers = peers

    @property
    def indexer(self) -> AsnIndexer:
        return self._indexer

    def propagate(
        self,
        origin: int,
        first_hops: Iterable[int] | None = None,
    ) -> RoutingOutcome:
        """Compute everyone's best route towards ``origin``.

        ``first_hops`` restricts which neighbors the origin announces
        to (selective announcement); ``None`` means all neighbors.
        """
        origin_index = self._indexer.index(origin)
        uphill, peers, downhill = self._uphill, self._peers, self._downhill
        if first_hops is not None:
            # Only the origin's own edges can break the restriction, so
            # swap in filtered copies of exactly those three lists.
            allowed = {
                idx
                for asn in first_hops
                if (idx := self._indexer.index_or_none(asn)) is not None
            }
            uphill, peers, downhill = (
                _restricted(edges, origin_index, allowed)
                for edges in (uphill, peers, downhill)
            )

        parent = [-2] * len(self._asns)  # -2 = unreached, -1 = origin
        rtype = [_NONE] * len(self._asns)
        parent[origin_index] = -1
        rtype[origin_index] = _CUSTOMER

        # Uphill BFS; ``order`` is its queue and its discovery order
        # (a list iterator visits what is appended while it runs).
        order = [origin_index]
        for current in order:
            for upstream in uphill[current]:
                if parent[upstream] == -2:
                    parent[upstream] = current
                    rtype[upstream] = _CUSTOMER
                    order.append(upstream)
        # One peer hop; discovery order keeps peer routes shortest.
        reached = order.copy()
        for current in order:
            for peer in peers[current]:
                if parent[peer] == -2:
                    parent[peer] = current
                    rtype[peer] = _PEER
                    reached.append(peer)
        # Downhill BFS seeded with every reached AS in index order.
        reached.sort()
        for current in reached:
            for downstream in downhill[current]:
                if parent[downstream] == -2:
                    parent[downstream] = current
                    rtype[downstream] = _PROVIDER
                    reached.append(downstream)
        return RoutingOutcome(self._indexer, self._asns, parent, rtype, origin)


def _restricted(
    edges: list[tuple[int, ...]], origin_index: int, allowed: set[int]
) -> list[tuple[int, ...]]:
    """``edges`` with the origin's list cut down to ``allowed`` targets."""
    edges = edges.copy()
    edges[origin_index] = tuple(t for t in edges[origin_index] if t in allowed)
    return edges
