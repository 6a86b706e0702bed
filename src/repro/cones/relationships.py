"""AS business-relationship inference from observed AS paths.

A pragmatic Gao-style algorithm (the spirit of CAIDA's AS-rank
inference, which the paper's Customer Cone builds on), run over the
unique AS paths after prepending is collapsed:

1. Rank every AS by *transit degree*: distinct neighbors over its
   mid-path appearances. Endpoint appearances (collector peers
   receiving routes, stub origins) contribute nothing, so the ranking
   orders the transit hierarchy far more robustly than plain degree.
2. For each path, locate the *peak* (maximum reach). In a valley-free
   path, links on the observation side of the peak slope downhill
   (each AS is a customer of the next towards the peak), links on the
   origin side slope uphill. Each path votes per link accordingly;
   appearances away from the peak are necessarily transit and vote
   with extra weight.
3. Peak-adjacent links whose endpoints have comparable reach are voted
   *peer* — this keeps the tier-1 clique from collapsing into a fake
   provider chain.
4. Per link: peer votes outweighing directional votes → PEER;
   conflicting directional votes above a noise floor → PEER; otherwise
   the majority direction, with reach breaking near-ties.

:class:`RelationshipLedger` keeps every intermediate of the algorithm
as counts, so the online pipeline patches them on route churn instead
of re-running the inference. Its invariants:

* ``refs`` counts the live raw paths behind each collapsed path. Only
  a collapsed path's 0→1 and 1→0 transitions reach the other counts,
  because the inference sees each collapsed path once.
* ``pairs`` counts, per mid-path ``(AS, neighbor)`` pair, its
  occurrences on live collapsed paths; ``rank`` holds the transit
  degree, the number of an AS's pairs with a nonzero count (ASes of
  degree 0 are absent).
* ``c2p`` and ``peer`` hold exactly the votes of every live collapsed
  path, cast at the current ranks; entries never hold 0.
* ``relationships`` holds the decision for every link with a vote,
  taken from the link's votes and its endpoints' current ranks.

A path's votes depend on the rank of every AS on it, and a link's
decision on the ranks of its two ends. So a path-set change that moves
no transit degree re-votes only the collapsed paths that appeared or
vanished. One that moves the degree of some AS also re-votes every
live path through that AS — subtracting its old votes at the old
ranks, adding new ones at the new ranks — and so re-decides every link
incident to it. Either way only the links those paths cross are
re-decided, and the ledger equals a cold build over the same paths.
"""

from __future__ import annotations

import enum
from collections import Counter
from collections.abc import Iterable


class InferredRelationship(enum.Enum):
    """Inferred relationship of the *first* AS of a pair to the second."""

    C2P = "c2p"  # first is a customer of second
    P2C = "p2c"  # first is a provider of second
    PEER = "p2p"


def _collapse(path: tuple[int, ...]) -> tuple[int, ...]:
    """Remove AS-path prepending (consecutive duplicates).

    A path without repeated ASes is returned as is, so the ledger
    shares its tuples with the RIB.
    """
    if len(set(path)) == len(path):
        return path
    collapsed = [path[0]]
    for asn in path[1:]:
        if asn != collapsed[-1]:
            collapsed.append(asn)
    return tuple(collapsed)


def _mid_pairs(path: tuple[int, ...]) -> list[tuple[int, int]]:
    """``(AS, neighbor)`` for both neighbors of every mid-path AS."""
    mid = path[1:-1]
    return [*zip(mid, path), *zip(mid, path[2:])]


class RelationshipLedger:
    """Relationship inference over a multiset of live AS paths.

    Construction is the cold build; :meth:`apply` patches the ledger
    for raw paths that became live or died.
    """

    def __init__(
        self,
        paths: Iterable[tuple[int, ...]] = (),
        peer_reach_ratio: float = 0.75,
        conflict_threshold: float = 0.25,
        interior_weight: int = 2,
    ) -> None:
        self.peer_reach_ratio = peer_reach_ratio
        self.conflict_threshold = conflict_threshold
        self.interior_weight = interior_weight
        self._refs: dict[tuple[int, ...], int] = dict(
            Counter(map(_collapse, filter(None, paths)))
        )
        unique = list(self._refs)
        self._pairs: dict[tuple[int, int], int] = {}
        self._rank: dict[int, int] = {}
        self._count_pairs(unique, 1, {})
        self._c2p: dict[tuple[int, int], int] = {}  # (customer, provider)
        self._peer: dict[tuple[int, int], int] = {}  # ordered (min, max)
        #: Relationship of ``a`` towards ``b`` per link ``(a, b)``, ``a < b``.
        self.relationships: dict[tuple[int, int], InferredRelationship] = {}
        self._decide(self._cast(unique, self._rank, 1))

    def transit_degree(self) -> dict[int, int]:
        """Transit degree per AS on a live path (0 for endpoints only)."""
        rank = self._rank
        return {asn: rank.get(asn, 0) for path in self._refs for asn in path}

    def apply(
        self,
        added: Iterable[tuple[int, ...]],
        removed: Iterable[tuple[int, ...]],
    ) -> set[tuple[int, int]]:
        """Patch for raw paths that became live / died; returns the
        links whose relationship changed (appeared, moved or vanished).

        Removals are counted first, so a path both removed and added
        is re-voted rather than double-counted.
        """
        refs = self._refs
        died: list[tuple[int, ...]] = []
        born: list[tuple[int, ...]] = []
        for raw in removed:
            path = _collapse(raw)
            count = refs[path] - 1
            if count:
                refs[path] = count
            else:
                del refs[path]
                died.append(path)
        for raw in added:
            path = _collapse(raw)
            count = refs.get(path, 0)
            refs[path] = count + 1
            if not count:
                born.append(path)
        if not died and not born:
            return set()
        before: dict[int, int] = {}  # degree before this call, per AS touched
        self._count_pairs(died, -1, before)
        self._count_pairs(born, 1, before)
        rank = self._rank
        moved = {asn for asn, degree in before.items() if rank.get(asn, 0) != degree}
        old_rank = rank
        revote: list[tuple[int, ...]] = []
        if moved:
            old_rank = {**rank, **{asn: before[asn] for asn in moved}}
            fresh = set(born)
            revote = [
                path for path in refs
                if path not in fresh and not moved.isdisjoint(path)
            ]
        links = self._cast(died + revote, old_rank, -1)
        links |= self._cast(born + revote, rank, 1)
        return self._decide(links)

    def _count_pairs(
        self, paths: list[tuple[int, ...]], sign: int, before: dict[int, int]
    ) -> None:
        """Add (``sign`` 1) or drop (-1) the mid-path pairs of ``paths``;
        ``before`` records the first-seen degree of each AS it moves."""
        pairs, rank = self._pairs, self._rank
        flipped = int(sign > 0)  # the count at which a pair appears/vanishes
        for path in paths:
            for pair in _mid_pairs(path):
                count = pairs.get(pair, 0) + sign
                if count:
                    pairs[pair] = count
                else:
                    del pairs[pair]
                if count == flipped:
                    asn = pair[0]
                    degree = rank.get(asn, 0)
                    before.setdefault(asn, degree)
                    if degree + sign:
                        rank[asn] = degree + sign
                    else:
                        del rank[asn]

    def _cast(
        self,
        paths: list[tuple[int, ...]],
        rank: dict[int, int],
        sign: int,
    ) -> set[tuple[int, int]]:
        """Add (``sign`` 1) or subtract (-1) the votes of ``paths`` cast at
        ``rank``; returns the links they cross."""
        ratio = self.peer_reach_ratio
        interior = self.interior_weight * sign
        c2p, peer = self._c2p, self._peer
        get = rank.get
        links: set[tuple[int, int]] = set()
        for path in paths:
            if len(path) < 2:
                continue
            ranks = [get(asn, 0) for asn in path]
            top_rank = max(ranks)
            top = ranks.index(top_rank)  # the first peak, as max() picks
            top_rank = top_rank or 1
            for i in range(len(path) - 1):
                left, right = path[i], path[i + 1]
                key = (left, right) if left < right else (right, left)
                links.add(key)
                if i == top or i == top - 1:
                    other = ranks[i + 1] if i == top else ranks[i]
                    if other / top_rank >= ratio:
                        peer[key] = peer.get(key, 0) + sign
                        continue
                    weight = sign
                else:
                    weight = interior  # away from the peak: transit
                # Left customer of right before the peak, else reversed.
                vote = (left, right) if i < top else (right, left)
                c2p[vote] = c2p.get(vote, 0) + weight
        return links

    def _decide(self, links: Iterable[tuple[int, int]]) -> set[tuple[int, int]]:
        """Re-decide ``links``; returns those whose relationship changed."""
        c2p, peer, rank = self._c2p, self._peer, self._rank
        relationships = self.relationships
        changed: set[tuple[int, int]] = set()
        for a, b in links:
            key = (a, b)
            a_cust = c2p.get(key, 0)
            b_cust = c2p.get((b, a), 0)
            peers = peer.get(key, 0)
            directional = a_cust + b_cust
            if not a_cust:
                c2p.pop(key, None)
            if not b_cust:
                c2p.pop((b, a), None)
            if not peers:
                peer.pop(key, None)
            if not (directional or peers):
                relationship = None
            elif (
                peers > directional
                or min(a_cust, b_cust) / directional > self.conflict_threshold
            ):
                relationship = InferredRelationship.PEER
            else:
                if a_cust == b_cust:
                    # Tie: the lower-reach side is the customer.
                    a_rank, b_rank = rank.get(a, 0), rank.get(b, 0)
                    a_cust += b_rank >= a_rank
                    b_cust += a_rank > b_rank
                relationship = (
                    InferredRelationship.C2P
                    if a_cust > b_cust
                    else InferredRelationship.P2C
                )
            if relationships.get(key) is relationship:
                continue
            changed.add(key)
            if relationship is None:
                del relationships[key]
            else:
                relationships[key] = relationship
        return changed


def infer_relationships(
    paths: Iterable[tuple[int, ...]],
    peer_reach_ratio: float = 0.75,
    conflict_threshold: float = 0.25,
    interior_weight: int = 2,
) -> dict[tuple[int, int], InferredRelationship]:
    """Infer relationships for every link seen on ``paths``.

    Returns a mapping keyed by ordered pairs ``(a, b)`` with ``a < b``;
    the value is the relationship of ``a`` towards ``b``.
    """
    return RelationshipLedger(
        paths, peer_reach_ratio, conflict_threshold, interior_weight
    ).relationships


def is_provider(
    relationships: dict[tuple[int, int], InferredRelationship],
    provider: int,
    customer: int,
) -> bool:
    """True iff an inference result makes ``provider`` a provider of
    ``customer`` (a directed provider→customer edge)."""
    if provider < customer:
        return relationships.get((provider, customer)) is InferredRelationship.P2C
    return relationships.get((customer, provider)) is InferredRelationship.C2P
