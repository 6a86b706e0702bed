"""Reference relationship inference: the one-shot implementation.

These are the bodies of ``transit_degree`` and ``infer_relationships``
as they were before inference became the refcounted
:class:`~repro.cones.relationships.RelationshipLedger`, kept unchanged
as an independent oracle: they re-run the whole Gao-style inference
over a path multiset with plain sets and counters, sharing no code
with the ledger but the relationship enum.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from collections.abc import Iterable

from repro.cones.relationships import InferredRelationship


def _collapse(path: tuple[int, ...]) -> tuple[int, ...]:
    """Remove AS-path prepending (consecutive duplicates)."""
    collapsed = [path[0]]
    for asn in path[1:]:
        if asn != collapsed[-1]:
            collapsed.append(asn)
    return tuple(collapsed)


def transit_degree(paths: list[tuple[int, ...]]) -> dict[int, int]:
    """Transit degree per AS: distinct neighbors in mid-path positions.

    An AS observed only at a path end never demonstrably transits
    traffic, so endpoints contribute nothing. This is the ranking
    CAIDA's AS-rank pipeline uses to order the hierarchy; unlike plain
    degree it is not distorted by where the collectors' peers sit.
    """
    neighbors: dict[int, set[int]] = defaultdict(set)
    seen: set[int] = set()
    for path in paths:
        seen.update(path)
        for i in range(1, len(path) - 1):
            neighbors[path[i]].add(path[i - 1])
            neighbors[path[i]].add(path[i + 1])
    return {asn: len(neighbors.get(asn, ())) for asn in seen}


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
    unique_paths = list({_collapse(p) for p in paths if len(p) >= 1})
    rank = transit_degree(unique_paths)

    c2p_votes: Counter[tuple[int, int]] = Counter()  # (customer, provider)
    peer_votes: Counter[tuple[int, int]] = Counter()  # ordered (min, max)

    for path in unique_paths:
        if len(path) < 2:
            continue
        top = max(range(len(path)), key=lambda i: rank[path[i]])
        top_rank = rank[path[top]] or 1
        for i in range(len(path) - 1):
            left, right = path[i], path[i + 1]
            key = (min(left, right), max(left, right))
            peak_adjacent = i in (top - 1, top)
            if peak_adjacent:
                other = right if i == top else left
                if rank[other] / top_rank >= peer_reach_ratio:
                    peer_votes[key] += 1
                    continue
                weight = 1
            else:
                weight = interior_weight  # away from the peak: transit
            if i < top:
                c2p_votes[(left, right)] += weight  # left customer of right
            else:
                c2p_votes[(right, left)] += weight  # right customer of left

    relationships: dict[tuple[int, int], InferredRelationship] = {}
    links = set(peer_votes)
    for customer, provider in c2p_votes:
        links.add((min(customer, provider), max(customer, provider)))
    for a, b in links:
        a_cust = c2p_votes[(a, b)]
        b_cust = c2p_votes[(b, a)]
        peers = peer_votes[(a, b)]
        directional = a_cust + b_cust
        if peers > directional:
            relationships[(a, b)] = InferredRelationship.PEER
            continue
        if directional and min(a_cust, b_cust) / directional > conflict_threshold:
            relationships[(a, b)] = InferredRelationship.PEER
            continue
        if a_cust == b_cust:
            # Tie: the lower-reach side is the customer.
            a_cust += rank[b] >= rank[a]
            b_cust += rank[a] > rank[b]
        if a_cust > b_cust:
            relationships[(a, b)] = InferredRelationship.C2P
        else:
            relationships[(a, b)] = InferredRelationship.P2C
    return relationships
