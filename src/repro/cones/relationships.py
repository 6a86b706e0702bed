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
  because the inference sees each collapsed path once. Empty raw paths
  carry no AS and are skipped.
* ``pairs`` counts, per mid-path ``(AS, neighbor)`` pair, its
  occurrences on live collapsed paths; ``rank`` holds the transit
  degree, the number of an AS's pairs with a nonzero count (ASes of
  degree 0 are absent).
* ``c2p`` and ``peer`` hold exactly the votes of every live collapsed
  path, cast at the current ranks; entries never hold 0.
* ``relationships`` holds the decision for every link with a vote,
  taken from the link's votes and its endpoints' current ranks.

The two ways in differ in shape, not in result. The cold build (the
constructor) runs over every path at once, so it is a set of array
folds over one flat table of the unique collapsed paths, in dense AS
indices: pairs and degrees from one ``np.unique`` over packed keys,
each path's first peak from a segment max, votes folded per packed
link key, and every link decided in one vectorised comparison. Only
the final dicts are built in Python. :meth:`RelationshipLedger.apply`
stays per path: a route delta touches a few paths, where numpy's
per-call overhead would cost more than the dict updates it replaces.
A cold build equals ``RelationshipLedger().apply(paths, ())``.

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
from itertools import chain
from operator import getitem

import numpy as np

from repro.util.indexing import distinct, int_bincount


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


#: Relationship per decision code of the cold build's link fold.
_DECISIONS = (
    InferredRelationship.PEER,
    InferredRelationship.C2P,
    InferredRelationship.P2C,
)


def _path_table(
    paths: list[tuple[int, ...]],
) -> tuple[dict[tuple[int, ...], int], list[int], np.ndarray, np.ndarray]:
    """``refs`` of the non-empty raw ``paths``, the ASNs on them in
    ascending order, and their unique collapsed paths as CSR arrays:
    the dense AS index of every position and the length of every path.

    Prepending is a mask over the flat table; only the prepended paths
    get new (collapsed) tuples, so ``refs`` shares the rest with the
    RIB. The ASNs are int objects taken from the paths, so the ledger's
    keys share them too instead of holding a copy per key.
    """
    lengths = np.fromiter(map(len, paths), np.int64, len(paths))
    flat = np.fromiter(chain.from_iterable(paths), np.int64, int(lengths.sum()))
    starts = np.cumsum(lengths) - lengths
    repeats = np.zeros(flat.size, dtype=bool)
    repeats[1:] = flat[1:] == flat[:-1]
    repeats[starts] = False  # a path's first AS repeats no predecessor
    if repeats.any():
        dropped = np.add.reduceat(repeats, starts)
        paths = list(paths)
        for i in np.flatnonzero(dropped).tolist():
            paths[i] = _collapse(paths[i])
        flat = flat[~repeats]
        lengths -= dropped
        starts = np.cumsum(lengths) - lengths
    del repeats
    refs = dict.fromkeys(paths, 1)
    if len(refs) < len(paths):
        refs = dict(Counter(paths))
        # Distinct raw paths collapsed to one: keep one row per path.
        keep = np.fromiter(
            dict(zip(paths, range(len(paths)))).values(), np.int64, len(refs)
        )
        lengths = lengths[keep]
        shift = np.repeat(starts[keep] - (np.cumsum(lengths) - lengths), lengths)
        flat = flat[np.arange(shift.size, dtype=np.int64) + shift]
        starts = np.cumsum(lengths) - lengths
    _, first, dense = np.unique(flat, return_index=True, return_inverse=True)
    del flat
    rows = np.searchsorted(starts, first, side="right") - 1
    unique = list(refs)  # row order
    asns = list(
        map(getitem, map(unique.__getitem__, rows.tolist()),
            (first - starts[rows]).tolist())
    )
    index_dtype = np.int32 if dense.size <= np.iinfo(np.int32).max else np.int64
    return refs, asns, dense.astype(index_dtype), lengths.astype(index_dtype)


def _positions(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per flat position of a CSR path table: its path's row, its index
    within the path, and the index of its path's last AS."""
    path_of = np.repeat(np.arange(lengths.size, dtype=lengths.dtype), lengths)
    starts = np.cumsum(lengths, dtype=lengths.dtype) - lengths
    local = np.arange(path_of.size, dtype=lengths.dtype) - starts[path_of]
    return path_of, local, (lengths - 1)[path_of]


def _fold_pairs(
    dense: np.ndarray,
    positions: tuple[np.ndarray, np.ndarray, np.ndarray],
    n: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The mid-path ``(AS, neighbor)`` pairs as sorted packed keys
    ``AS * n + neighbor`` with their counts, and the transit degree of
    every dense AS."""
    _, local, last = positions
    mid = np.flatnonzero((local > 0) & (local < last))
    holder = dense[mid].astype(np.int64) * n
    pair_keys, pair_counts = np.unique(
        np.concatenate((holder + dense[mid - 1], holder + dense[mid + 1])),
        return_counts=True,
    )
    return pair_keys, pair_counts, np.bincount(pair_keys // n, minlength=n)


def _keyed(
    asns: list[int], keys: np.ndarray, values: Iterable[object]
) -> dict[tuple[int, int], object]:
    """``{(a, b): value}`` from packed dense keys ``a * len(asns) + b``."""
    first, second = np.divmod(keys, len(asns))
    asn = asns.__getitem__
    return dict(zip(zip(map(asn, first.tolist()), map(asn, second.tolist())),
                    values))


def _lookup(keys: np.ndarray, values: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """``values`` at ``queries`` among sorted ``keys``; 0 where absent."""
    if not keys.size:
        return np.zeros(queries.size, dtype=np.int64)
    slot = np.minimum(np.searchsorted(keys, queries), keys.size - 1)
    return np.where(keys[slot] == queries, values[slot], 0)


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
        self._refs: dict[tuple[int, ...], int] = {}
        self._pairs: dict[tuple[int, int], int] = {}
        self._rank: dict[int, int] = {}
        self._c2p: dict[tuple[int, int], int] = {}  # (customer, provider)
        self._peer: dict[tuple[int, int], int] = {}  # ordered (min, max)
        #: Relationship of ``a`` towards ``b`` per link ``(a, b)``, ``a < b``.
        self.relationships: dict[tuple[int, int], InferredRelationship] = {}
        paths = list(filter(None, paths))
        if paths:
            self._cold_build(paths)

    def _cold_build(self, paths: list[tuple[int, ...]]) -> None:
        """Fill the empty ledger from non-empty raw ``paths``: the same
        counts and decisions as :meth:`apply`, as array folds. Each fold
        is a function, so its temporaries are freed before the dicts
        are built."""
        self._refs, asns, dense, lengths = _path_table(paths)
        positions = _positions(lengths)
        pair_keys, pair_counts, degree = _fold_pairs(dense, positions, len(asns))
        self._pairs = _keyed(asns, pair_keys, pair_counts.tolist())
        del pair_keys, pair_counts
        ranked = np.flatnonzero(degree)
        self._rank = dict(
            zip(map(asns.__getitem__, ranked.tolist()), degree[ranked].tolist())
        )
        c2p, peer, links = self._fold_votes(dense, lengths, positions, degree)
        del dense, lengths, positions
        code = self._decide_links(links, c2p, peer, degree)
        self._c2p = _keyed(asns, c2p[0], c2p[1].tolist())
        self._peer = _keyed(asns, peer[0], peer[1].tolist())
        decided = code >= 0
        decisions = map(_DECISIONS.__getitem__, code[decided].tolist())
        self.relationships = _keyed(asns, links[decided], decisions)

    def _fold_votes(
        self,
        dense: np.ndarray,
        lengths: np.ndarray,
        positions: tuple[np.ndarray, np.ndarray, np.ndarray],
        degree: np.ndarray,
    ) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray],
               np.ndarray]:
        """Every path's votes at ranks ``degree``, as :meth:`_cast` casts
        them: ``(keys, votes)`` of the nonzero c2p votes (packed
        customer, provider) and of the peer votes (packed min, max), and
        the sorted packed keys of every link crossed.

        Each temporary is dropped once used: at paper scale every one
        is tens of MB."""
        n = degree.size
        path_of, local, last = positions
        starts = np.cumsum(lengths, dtype=lengths.dtype) - lengths
        # Each path's first peak: the segment max, then the first
        # position that reaches it (as max() over the ranks picks).
        reach = degree[dense]
        peak = np.maximum.reduceat(reach, starts)
        beyond = np.iinfo(local.dtype).max
        top = np.minimum.reduceat(
            np.where(reach == peak[path_of], local, beyond), starts
        )
        del starts
        # One vote per link: a position and its successor on a path.
        link = np.flatnonzero(local < last)
        path = path_of[link]
        offset = local[link] - top[path]  # 0 at the peak, -1 just before
        top_rank = np.maximum(peak[path], 1)
        del path, top, peak
        other = np.where(offset == 0, reach[link + 1], reach[link])
        del reach
        left, right = dense[link], dense[link + 1]
        del link
        adjacent = (offset == 0) | (offset == -1)
        peer = adjacent & (other / top_rank >= self.peer_reach_ratio)
        del other, top_rank
        # Left customer of right before the peak, else reversed.
        uphill = offset < 0
        del offset
        voted = ~peer
        customer = np.where(uphill, left, right)[voted].astype(np.int64)
        provider = np.where(uphill, right, left)[voted]
        weight = np.where(adjacent, 1, self.interior_weight)[voted]
        del uphill, voted, adjacent
        c2p_keys, slot = np.unique(customer * n + provider, return_inverse=True)
        del customer, provider
        c2p_votes = int_bincount(slot, weight, len(c2p_keys))
        del slot, weight
        nonzero = c2p_votes != 0
        link_keys = (
            np.minimum(left, right).astype(np.int64) * n
            + np.maximum(left, right)
        )
        del left, right
        peer_keys, peer_votes = np.unique(link_keys[peer], return_counts=True)
        return (
            (c2p_keys[nonzero], c2p_votes[nonzero]),
            (peer_keys, peer_votes),
            distinct(link_keys),
        )

    def _decide_links(
        self,
        links: np.ndarray,
        c2p: tuple[np.ndarray, np.ndarray],
        peer: tuple[np.ndarray, np.ndarray],
        degree: np.ndarray,
    ) -> np.ndarray:
        """:meth:`_decide` for every packed link ``(a, b)``, ``a < b``, at
        once: an index into ``_DECISIONS``, or -1 for a link without
        votes."""
        n = degree.size
        a, b = np.divmod(links, n)
        a_cust = _lookup(*c2p, links)
        b_cust = _lookup(*c2p, b * n + a)
        peers = _lookup(*peer, links)
        directional = a_cust + b_cust
        with np.errstate(divide="ignore", invalid="ignore"):
            conflict = (
                np.minimum(a_cust, b_cust) / directional
                > self.conflict_threshold
            )
        tie = a_cust == b_cust  # tie: the lower-reach side is the customer
        a_rank, b_rank = degree[a], degree[b]
        a_cust = a_cust + (tie & (b_rank >= a_rank))
        b_cust = b_cust + (tie & (a_rank > b_rank))
        code = np.where(
            (peers > directional) | conflict, 0, np.where(a_cust > b_cust, 1, 2)
        )
        code[(directional == 0) & (peers == 0)] = -1
        return code

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
        is re-voted rather than double-counted. Empty raw paths are
        skipped, as the cold build skips them.
        """
        refs = self._refs
        died: list[tuple[int, ...]] = []
        born: list[tuple[int, ...]] = []
        for raw in filter(None, removed):
            path = _collapse(raw)
            count = refs[path] - 1
            if count:
                refs[path] = count
            else:
                del refs[path]
                died.append(path)
        for raw in filter(None, added):
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
