"""The global RIB assembled from all BGP observations.

Mirrors Section 3.3 of the paper: all table dumps and updates inside
the measurement window are unioned; prefixes more specific than /24 or
less specific than /8 are discarded. The RIB exposes everything the
detection method needs:

* the routed address space (:class:`~repro.net.prefixset.PrefixSet`),
* a vectorised longest-prefix-match lookup mapping addresses to
  (prefix id, origin index),
* per-prefix AS-path membership (the Naive approach's raw material),
* the directed AS adjacency set (the Full Cone's raw material),
* the set of unique AS paths (relationship inference's raw material),
* exclusive coverage per prefix/origin in /24 equivalents (Figure 2).

Two ingest modes keep the same bookkeeping (routes per prefix, origin
votes, refcounted paths, ASNs and adjacencies):

* :meth:`GlobalRIB.add_all` — the paper's batch *union* semantics, one
  loop over the whole stream (:meth:`GlobalRIB.add` is a one-item
  batch). Withdrawals are counted, never applied.
* :meth:`GlobalRIB.apply` — the online pipeline's *delta* semantics.
  A withdrawal removes exactly the live ``(prefix, path)`` route it
  names; announcements (re-)install routes. Each call returns a
  :class:`RIBDelta` describing what changed, and — when the finalized
  vectorised views already exist — patches them in place instead of
  discarding them, unless the observed AS set changed (then a full
  rebuild is unavoidable because the dense AS indexer shifts).

The patch path is exact: after :meth:`GlobalRIB.apply`, the finalized
views are bit-equal to what a from-scratch :class:`_FinalizedRIB`
construction over the same live routes would produce. The randomized
parity suite asserts this invariant at every event.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from repro.bgp.messages import RouteObservation, path_adjacencies
from repro.net.prefix import Prefix
from repro.net.prefixset import PrefixSet
from repro.net.trie import PrefixTrie
from repro.obs.metrics import current_metrics
from repro.util.indexing import AsnIndexer

#: Announcement length bounds (paper: discard more specific than /24,
#: less specific than /8).
MIN_PLEN = 8
MAX_PLEN = 24

#: One past the last IPv4 address; segment boundaries at or beyond this
#: point are never painted.
_ADDR_END = 2**32


@dataclass(slots=True)
class RIBDelta:
    """What one :meth:`GlobalRIB.apply` call changed.

    Downstream consumers (cone builders, the matrix cache, the stream
    state manager) read this to patch only what moved instead of
    rebuilding from scratch.
    """

    #: True iff the event changed RIB state (announce accepted, or
    #: withdrawal that removed a live route).
    applied: bool = False
    #: True iff the event was a withdrawal message.
    withdrawal: bool = False
    #: Prefix ids allocated by this event (brand-new prefixes).
    new_prefix_ids: list[int] = field(default_factory=list)
    #: Prefix ids that transitioned dead → live (includes brand-new).
    prefixes_now_live: list[int] = field(default_factory=list)
    #: Prefix ids that transitioned live → dead (last route withdrawn).
    prefixes_now_dead: list[int] = field(default_factory=list)
    #: Prefix id → new majority origin ASN (set for newly live prefixes
    #: and for live prefixes whose majority origin flipped).
    origin_changes: dict[int, int] = field(default_factory=dict)
    #: Prefix id → ASNs that joined its path-member set.
    members_added: dict[int, set[int]] = field(default_factory=dict)
    #: Prefix id → ASNs that left its path-member set.
    members_removed: dict[int, set[int]] = field(default_factory=dict)
    #: Unique AS paths that became live / died.
    added_paths: list[tuple[int, ...]] = field(default_factory=list)
    removed_paths: list[tuple[int, ...]] = field(default_factory=list)
    #: Directed adjacencies that appeared / disappeared.
    added_adjacencies: list[tuple[int, int]] = field(default_factory=list)
    removed_adjacencies: list[tuple[int, int]] = field(default_factory=list)
    #: ASNs that entered / left the observed-AS universe. Either being
    #: non-empty forces a finalized rebuild (the dense indexer shifts).
    new_asns: set[int] = field(default_factory=set)
    removed_asns: set[int] = field(default_factory=set)
    #: What happened to the finalized views: ``"none"`` (not built, or
    #: event not applied), ``"patched"``, or ``"rebuild"`` (discarded;
    #: next access reconstructs from scratch).
    finalize: str = "none"

    @property
    def rebuild_required(self) -> bool:
        """True iff the observed AS set changed (indexer invalidated)."""
        return bool(self.new_asns or self.removed_asns)

    @property
    def geometry_changed(self) -> bool:
        """True iff the set of *live* prefixes changed."""
        return bool(self.prefixes_now_live or self.prefixes_now_dead)


class GlobalRIB:
    """Union of every accepted route observation in the window."""

    def __init__(self) -> None:
        self._prefix_ids: dict[Prefix, int] = {}
        self._prefixes: list[Prefix] = []
        self._origins_per_prefix: list[dict[int, int]] = []  # origin → votes
        self._path_members_per_prefix: list[set[int]] = []
        self._paths_per_prefix: list[set[tuple[int, ...]]] = []
        self._paths: set[tuple[int, ...]] = set()
        self._adjacencies: set[tuple[int, int]] = set()
        #: Live-route refcounts: how many live (prefix, path) routes use
        #: a path; how many live paths contain an ASN / an adjacency.
        self._routes_per_path: dict[tuple[int, ...], int] = {}
        self._asn_support: dict[int, int] = {}
        self._adj_support: dict[tuple[int, int], int] = {}
        self._discarded = 0
        self._accepted = 0
        self._duplicates = 0
        self._withdrawals = 0
        self._withdrawals_applied = 0
        self._withdrawals_ignored = 0
        self._path_member_cache: dict[tuple[int, ...], frozenset[int]] = {}
        self._finalized: "_FinalizedRIB | None" = None

    # -- construction -----------------------------------------------------

    def add(self, observation: RouteObservation) -> bool:
        """Ingest one observation; returns False if filtered or duplicate.

        A one-observation :meth:`add_all`.
        """
        return self.add_all((observation,)) == 1

    def add_all(self, observations: Iterable[RouteObservation]) -> int:
        """Ingest a stream with union semantics; returns accepted count.

        Withdrawals are counted but never remove state — the window
        RIB is the *union* of everything observed (Section 3.3).
        Re-observations of an already-known ``(prefix, path)`` route
        are no-ops: they neither count as accepted nor invalidate the
        finalized vectorised views.

        One loop over the stream: a path's ASN and adjacency support
        and its member set are computed once, when the path is new to
        the RIB. Prefixes, paths and adjacencies are inserted in
        first-seen order, so every container iterates exactly as if
        the observations had been ingested one at a time.
        """
        prefix_ids = self._prefix_ids
        prefixes = self._prefixes
        origins_per_prefix = self._origins_per_prefix
        members_per_prefix = self._path_members_per_prefix
        paths_per_prefix = self._paths_per_prefix
        routes_per_path = self._routes_per_path
        member_cache = self._path_member_cache
        asn_support = self._asn_support
        adj_support = self._adj_support
        paths = self._paths
        adjacencies = self._adjacencies
        accepted = duplicates = discarded = withdrawals = 0
        try:
            for observation in observations:
                if observation.withdrawal:
                    withdrawals += 1
                    continue
                prefix = observation.prefix
                path = observation.path
                prefix_id = prefix_ids.get(prefix)
                if prefix_id is None:
                    if not MIN_PLEN <= prefix.length <= MAX_PLEN:
                        discarded += 1
                        continue
                    prefix_id = len(prefixes)
                    prefix_ids[prefix] = prefix_id
                    prefixes.append(prefix)
                    origins_per_prefix.append(defaultdict(int))
                    members_per_prefix.append(set())
                    paths_per_prefix.append({path})
                else:
                    # Insert first, then test by size: one path hash
                    # serves the duplicate check and the insert.
                    prefix_paths = paths_per_prefix[prefix_id]
                    known = len(prefix_paths)
                    prefix_paths.add(path)
                    if len(prefix_paths) == known:
                        duplicates += 1
                        continue
                accepted += 1
                origins_per_prefix[prefix_id][path[-1]] += 1
                routes = routes_per_path.get(path, 0)
                routes_per_path[path] = routes + 1
                if routes:
                    members = member_cache[path]
                else:
                    members = member_cache[path] = frozenset(path)
                    paths.add(path)
                    for asn in members:
                        asn_support[asn] = asn_support.get(asn, 0) + 1
                    for pair in path_adjacencies(path):
                        count = adj_support.get(pair, 0)
                        if not count:
                            adjacencies.add(pair)
                        adj_support[pair] = count + 1
                prefix_members = members_per_prefix[prefix_id]
                if not members <= prefix_members:
                    prefix_members.update(members - prefix_members)
        finally:
            self._accepted += accepted
            self._duplicates += duplicates
            self._discarded += discarded
            self._withdrawals += withdrawals
            self._withdrawals_ignored += withdrawals
            if accepted:
                self._finalized = None
        return accepted

    def apply(self, observation: RouteObservation) -> RIBDelta:
        """Ingest one observation with delta semantics; patch views.

        Announcements install routes exactly as :meth:`add_all` does;
        withdrawals remove the live ``(prefix, path)`` route they name
        (withdrawals of unknown or already-withdrawn routes are counted
        as ignored and change nothing — see :attr:`num_withdrawals_ignored`).

        If the finalized vectorised views exist, they are patched in
        place when possible (counter ``rib.delta_applied``); a change to
        the observed AS set forces a rebuild on next access (counter
        ``rib.delta_rebuilds``). The returned :class:`RIBDelta` records
        everything that changed so cone builders can patch too.
        """
        delta = RIBDelta(withdrawal=observation.withdrawal)
        if observation.withdrawal:
            delta.applied = self._ingest_withdraw(observation, delta)
        else:
            delta.applied = self._ingest_announce(observation, delta)
        if not delta.applied:
            return delta
        if self._finalized is not None:
            if delta.rebuild_required or not self._finalized.apply_delta(
                self, delta
            ):
                self._finalized = None
                delta.finalize = "rebuild"
                current_metrics().counter("rib.delta_rebuilds").inc()
            else:
                delta.finalize = "patched"
                current_metrics().counter("rib.delta_applied").inc()
        return delta

    def _ingest_announce(
        self, observation: RouteObservation, delta: RIBDelta
    ) -> bool:
        """Delta-mode announcement: install one (prefix, path) route."""
        prefix = observation.prefix
        if not MIN_PLEN <= prefix.length <= MAX_PLEN:
            self._discarded += 1
            return False
        prefix_id = self._prefix_ids.get(prefix)
        path = observation.path
        if prefix_id is not None and path in self._paths_per_prefix[prefix_id]:
            self._duplicates += 1
            return False
        self._accepted += 1
        if prefix_id is None:
            prefix_id = len(self._prefixes)
            self._prefix_ids[prefix] = prefix_id
            self._prefixes.append(prefix)
            self._origins_per_prefix.append(defaultdict(int))
            self._path_members_per_prefix.append(set())
            self._paths_per_prefix.append(set())
            delta.new_prefix_ids.append(prefix_id)
        origins = self._origins_per_prefix[prefix_id]
        was_live = bool(origins)
        old_origin = self._majority_origin(prefix_id) if was_live else None
        self._paths_per_prefix[prefix_id].add(path)
        origins[path[-1]] += 1
        members = self._path_member_cache.get(path)
        if members is None:
            members = frozenset(path)
            self._path_member_cache[path] = members
        if self._routes_per_path.get(path, 0) == 0:
            self._paths.add(path)
            for asn in members:
                count = self._asn_support.get(asn, 0)
                if count == 0:
                    delta.new_asns.add(asn)
                self._asn_support[asn] = count + 1
            for pair in path_adjacencies(path):
                count = self._adj_support.get(pair, 0)
                if count == 0:
                    self._adjacencies.add(pair)
                    delta.added_adjacencies.append(pair)
                self._adj_support[pair] = count + 1
            delta.added_paths.append(path)
        self._routes_per_path[path] = self._routes_per_path.get(path, 0) + 1
        prefix_members = self._path_members_per_prefix[prefix_id]
        added_members = members - prefix_members
        if added_members:
            prefix_members.update(added_members)
            delta.members_added[prefix_id] = set(added_members)
        new_origin = self._majority_origin(prefix_id)
        if not was_live:
            delta.prefixes_now_live.append(prefix_id)
            delta.origin_changes[prefix_id] = new_origin
        elif new_origin != old_origin:
            delta.origin_changes[prefix_id] = new_origin
        return True

    def _ingest_withdraw(
        self, observation: RouteObservation, delta: RIBDelta
    ) -> bool:
        """Delta-mode withdrawal: remove one live (prefix, path) route."""
        self._withdrawals += 1
        prefix_id = self._prefix_ids.get(observation.prefix)
        path = observation.path
        if prefix_id is None or path not in self._paths_per_prefix[prefix_id]:
            # Never-announced prefix, unknown path, or duplicate
            # withdrawal: counted once here, never double-applied.
            self._withdrawals_ignored += 1
            return False
        self._withdrawals_applied += 1
        self._paths_per_prefix[prefix_id].discard(path)
        origins = self._origins_per_prefix[prefix_id]
        old_origin = self._majority_origin(prefix_id)
        origin = path[-1]
        origins[origin] -= 1
        if origins[origin] == 0:
            del origins[origin]
        remaining = self._routes_per_path[path] - 1
        if remaining:
            self._routes_per_path[path] = remaining
        else:
            del self._routes_per_path[path]
            self._paths.discard(path)
            # Cache coherence: a dead path's member set must not
            # survive as a stale "path already seen" marker.
            self._path_member_cache.pop(path, None)
            for asn in frozenset(path):
                self._asn_support[asn] -= 1
                if self._asn_support[asn] == 0:
                    del self._asn_support[asn]
                    delta.removed_asns.add(asn)
            for pair in path_adjacencies(path):
                self._adj_support[pair] -= 1
                if self._adj_support[pair] == 0:
                    del self._adj_support[pair]
                    self._adjacencies.discard(pair)
                    delta.removed_adjacencies.append(pair)
            delta.removed_paths.append(path)
        old_members = self._path_members_per_prefix[prefix_id]
        new_members: set[int] = set()
        for live_path in self._paths_per_prefix[prefix_id]:
            new_members.update(live_path)
        removed_members = old_members - new_members
        self._path_members_per_prefix[prefix_id] = new_members
        if removed_members:
            delta.members_removed[prefix_id] = removed_members
        if not origins:
            delta.prefixes_now_dead.append(prefix_id)
        else:
            new_origin = self._majority_origin(prefix_id)
            if new_origin != old_origin:
                delta.origin_changes[prefix_id] = new_origin
        return True

    def _majority_origin(self, prefix_id: int) -> int:
        origins = self._origins_per_prefix[prefix_id]
        return max(origins, key=lambda asn: (origins[asn], -asn))

    @classmethod
    def from_observations(
        cls, observations: Iterable[RouteObservation]
    ) -> GlobalRIB:
        rib = cls()
        rib.add_all(observations)
        return rib

    # -- basic accessors -------------------------------------------------

    @property
    def num_prefixes(self) -> int:
        return len(self._prefixes)

    @property
    def num_paths(self) -> int:
        return len(self._paths)

    @property
    def num_accepted(self) -> int:
        """Accepted announcements (duplicates excluded).

        Under delta mode a route withdrawn and re-announced counts as
        accepted again: the counter tallies accept *events*, and the
        live-route invariant is ``num_accepted - num_withdrawals_applied
        == live routes``.
        """
        return self._accepted

    @property
    def num_duplicates(self) -> int:
        """Announcements dropped as re-observations of a live route."""
        return self._duplicates

    @property
    def num_discarded(self) -> int:
        """Observations dropped by the /8../24 length filter."""
        return self._discarded

    @property
    def num_withdrawals(self) -> int:
        """Withdrawal messages seen (applied or not)."""
        return self._withdrawals

    @property
    def num_withdrawals_applied(self) -> int:
        """Withdrawals that removed a live route (delta mode only)."""
        return self._withdrawals_applied

    @property
    def num_withdrawals_ignored(self) -> int:
        """Withdrawals that removed nothing.

        Union mode ignores every withdrawal by design; delta mode
        ignores withdrawals of never-announced prefixes, unknown paths,
        and duplicate withdrawals of an already-removed route. Always
        ``num_withdrawals == num_withdrawals_applied +
        num_withdrawals_ignored``.
        """
        return self._withdrawals_ignored

    @property
    def num_live_routes(self) -> int:
        """Live (prefix, path) routes currently installed."""
        return sum(map(len, self._paths_per_prefix))

    def prefixes(self) -> list[Prefix]:
        return list(self._prefixes)

    def prefix_id(self, prefix: Prefix) -> int | None:
        return self._prefix_ids.get(prefix)

    def prefix_by_id(self, prefix_id: int) -> Prefix:
        return self._prefixes[prefix_id]

    def is_live(self, prefix_id: int) -> bool:
        """True iff the prefix currently has at least one live route.

        Union mode never kills prefixes; delta mode does when the last
        route for a prefix is withdrawn. Dead prefixes keep their id
        (ids are stable, positional) but drop out of the routed space,
        the LPM segments, and the origin mapping.
        """
        return bool(self._origins_per_prefix[prefix_id])

    def live_prefix_ids(self) -> list[int]:
        """Ids of all currently live prefixes, ascending."""
        return [
            prefix_id
            for prefix_id in range(len(self._prefixes))
            if self._origins_per_prefix[prefix_id]
        ]

    def origin_of(self, prefix_id: int) -> int:
        """Primary origin (most observations) of a live prefix."""
        origins = self._origins_per_prefix[prefix_id]
        if not origins:
            raise ValueError(f"prefix id {prefix_id} has no live routes")
        return max(origins, key=lambda asn: (origins[asn], -asn))

    def origins_of(self, prefix_id: int) -> set[int]:
        """All observed origins (MOAS prefixes have several)."""
        return set(self._origins_per_prefix[prefix_id])

    def path_members(self, prefix_id: int) -> set[int]:
        """Every AS seen on any live path announcing this prefix (Naive)."""
        return set(self._path_members_per_prefix[prefix_id])

    def path_member_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Every ``(prefix id, AS)`` of :meth:`path_members`, as two
        int64 arrays grouped by ascending prefix id."""
        members = self._path_members_per_prefix
        counts = np.fromiter(map(len, members), np.int64, len(members))
        asns = np.fromiter(
            chain.from_iterable(members), np.int64, int(counts.sum())
        )
        return np.repeat(np.arange(len(members), dtype=np.int64), counts), asns

    def paths(self) -> Iterator[tuple[int, ...]]:
        """All unique live AS paths."""
        return iter(self._paths)

    def adjacencies(self) -> set[tuple[int, int]]:
        """Directed (upstream, downstream) AS pairs from all live paths."""
        return set(self._adjacencies)

    def observed_asns(self) -> set[int]:
        """Every AS appearing on any live path."""
        return set(self._asn_support)

    def state_digest(self) -> str:
        """SHA-256 over the live routing state (restore verification).

        Hashes the sorted live ``(prefix, path)`` routes plus the
        per-prefix origin vote counts — exactly the inputs every
        derived view (finalized LPM, cone maps, packed matrices) is a
        deterministic function of. Two RIBs with equal digests classify
        identically; a checkpoint restore recomputes this and compares
        it against the digest stored at save time, so silent pickle
        drift is caught before any window is classified against it.
        """
        import hashlib

        digest = hashlib.sha256()
        for prefix, prefix_paths in zip(self._prefixes, self._paths_per_prefix):
            for path in sorted(prefix_paths):
                digest.update(
                    f"{prefix}|{','.join(map(str, path))}\n".encode()
                )
        for prefix_id in self.live_prefix_ids():
            votes = sorted(self._origins_per_prefix[prefix_id].items())
            digest.update(f"{prefix_id}:{votes}\n".encode())
        return digest.hexdigest()

    # -- finalized (vectorised) views -------------------------------------

    def _final(self) -> "_FinalizedRIB":
        if self._finalized is None:
            self._finalized = _FinalizedRIB(self)
        return self._finalized

    def finalize(self) -> None:
        """Build the finalized vectorised view now, if it is not current.

        Every lookup builds it on first use anyway; calling this first
        lets a caller time it on its own, or build it once in a parent
        process so forked workers share it copy-on-write.
        """
        self._final()

    @property
    def indexer(self) -> AsnIndexer:
        """Dense index over every AS observed in BGP."""
        return self._final().indexer

    def routed_space(self) -> PrefixSet:
        """Union of all live announced prefixes."""
        return self._final().routed_space

    def lookup(self, addr: int) -> tuple[int, int]:
        """Scalar LPM: address → (prefix_id, origin_index), -1 if unrouted."""
        prefix_ids, origin_indices = self.lookup_many(
            np.array([addr], dtype=np.uint64)
        )
        return int(prefix_ids[0]), int(origin_indices[0])

    def lookup_many(self, addrs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised LPM over painted segments.

        Returns ``(prefix_ids, origin_indices)`` with -1 marking
        addresses not covered by any announcement.
        """
        return self._final().lookup_many(addrs)

    def exclusive_slash24s_per_prefix(self) -> np.ndarray:
        """Per-prefix LPM-winning coverage in /24 equivalents.

        More-specific announcements claim their space away from
        coverings, so the vector sums to the routed space size.
        """
        return self._final().exclusive_per_prefix

    def exclusive_slash24s_per_origin(self) -> np.ndarray:
        """Per-origin-index LPM-winning coverage in /24 equivalents."""
        return self._final().exclusive_per_origin


def _canonical_segments(
    points: list[int], owners: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Dedup consecutive same-owner boundary points into segments.

    Both the from-scratch build and the patch path funnel through this
    one canonicalisation so their outputs are bit-equal by construction.
    """
    seg_starts: list[int] = []
    seg_prefix: list[int] = []
    for start, owner in zip(points, owners):
        if seg_starts and seg_prefix[-1] == owner:
            continue
        seg_starts.append(start)
        seg_prefix.append(owner)
    return (
        np.array(seg_starts, dtype=np.uint64),
        np.array(seg_prefix, dtype=np.int64),
    )


class _FinalizedRIB:
    """Vectorised derivatives of a :class:`GlobalRIB`.

    Built from scratch lazily; thereafter :meth:`apply_delta` patches
    the painted LPM segments, the origin mapping, the routed space, and
    the exclusive-coverage vectors in place for events that do not
    change the observed AS set.
    """

    def __init__(self, rib: GlobalRIB) -> None:
        self.indexer = AsnIndexer(rib.observed_asns())
        prefixes = rib.prefixes()
        live_ids = rib.live_prefix_ids()
        self.routed_space = PrefixSet(prefixes[pid] for pid in live_ids)

        self._trie = PrefixTrie()
        for prefix_id in live_ids:
            # Live prefixes are unique, so each insert claims its node.
            self._trie.insert(prefixes[prefix_id], prefix_id)

        # Painted LPM segments: at every boundary point, the most
        # specific covering live prefix (if any) owns the following
        # segment. Boundary points are refcounted so prefix removal
        # keeps shared boundaries alive.
        self._boundary_counts: dict[int, int] = {}
        for prefix_id in live_ids:
            prefix = prefixes[prefix_id]
            for point in (prefix.first, prefix.last + 1):
                self._boundary_counts[point] = (
                    self._boundary_counts.get(point, 0) + 1
                )
        points: list[int] = []
        owners: list[int] = []
        for start in sorted(self._boundary_counts):
            if start >= _ADDR_END:
                continue
            match = self._trie.longest_match(start)
            points.append(start)
            owners.append(-1 if match is None else int(match[1]))
        self._seg_starts, self._seg_prefix = _canonical_segments(
            points, owners
        )

        origin_index = np.full(len(prefixes), -1, dtype=np.int64)
        for prefix_id in live_ids:
            origin_index[prefix_id] = self.indexer.index(
                rib.origin_of(prefix_id)
            )
        self._origin_index_per_prefix = origin_index
        self._recompute_exclusive()

    # -- incremental patching ---------------------------------------------

    def apply_delta(self, rib: GlobalRIB, delta: RIBDelta) -> bool:
        """Patch the vectorised views in place for one applied delta.

        Returns False when patching is impossible (the observed AS set
        changed, so every dense origin index shifts); the caller then
        discards this object and rebuilds lazily. Otherwise the result
        is bit-equal to a from-scratch construction over the same rib.
        """
        if delta.rebuild_required:
            return False
        if delta.new_prefix_ids:
            grown = np.full(
                len(self._origin_index_per_prefix) + len(delta.new_prefix_ids),
                -1,
                dtype=np.int64,
            )
            grown[: len(self._origin_index_per_prefix)] = (
                self._origin_index_per_prefix
            )
            self._origin_index_per_prefix = grown
        if delta.geometry_changed:
            ranges: list[tuple[int, int]] = []
            for prefix_id in delta.prefixes_now_dead:
                prefix = rib.prefix_by_id(prefix_id)
                self._trie.remove(prefix)
                self._drop_boundaries(prefix)
                ranges.append((prefix.first, prefix.last + 1))
            for prefix_id in delta.prefixes_now_live:
                prefix = rib.prefix_by_id(prefix_id)
                self._trie.insert(prefix, prefix_id)
                self._add_boundaries(prefix)
                ranges.append((prefix.first, prefix.last + 1))
            self._repaint(ranges)
            prefixes = rib.prefixes()
            self.routed_space = PrefixSet(
                prefixes[pid] for pid in rib.live_prefix_ids()
            )
        for prefix_id, origin in delta.origin_changes.items():
            self._origin_index_per_prefix[prefix_id] = self.indexer.index(
                origin
            )
        for prefix_id in delta.prefixes_now_dead:
            self._origin_index_per_prefix[prefix_id] = -1
        if delta.geometry_changed or delta.origin_changes:
            self._recompute_exclusive()
        return True

    def _add_boundaries(self, prefix: Prefix) -> None:
        for point in (prefix.first, prefix.last + 1):
            self._boundary_counts[point] = (
                self._boundary_counts.get(point, 0) + 1
            )

    def _drop_boundaries(self, prefix: Prefix) -> None:
        for point in (prefix.first, prefix.last + 1):
            remaining = self._boundary_counts[point] - 1
            if remaining:
                self._boundary_counts[point] = remaining
            else:
                del self._boundary_counts[point]

    def _repaint(self, ranges: list[tuple[int, int]]) -> None:
        """Re-derive painted segments, resolving only affected ranges.

        Boundary points inside an affected ``[first, last + 1]`` range
        are re-resolved through the (already updated) trie; points
        outside copy their previous LPM winner, which cannot have
        changed — prefix blocks are aligned power-of-two ranges, so an
        insert or remove only shifts ownership inside its own block.
        """
        old_starts = self._seg_starts
        old_owner = self._seg_prefix
        points: list[int] = []
        owners: list[int] = []
        for start in sorted(self._boundary_counts):
            if start >= _ADDR_END:
                continue
            if any(low <= start <= high for low, high in ranges):
                match = self._trie.longest_match(start)
                owner = -1 if match is None else int(match[1])
            else:
                slot = (
                    int(
                        np.searchsorted(
                            old_starts, np.uint64(start), side="right"
                        )
                    )
                    - 1
                )
                owner = -1 if slot < 0 else int(old_owner[slot])
            points.append(start)
            owners.append(owner)
        self._seg_starts, self._seg_prefix = _canonical_segments(
            points, owners
        )

    def _recompute_exclusive(self) -> None:
        """Recompute exclusive /24 coverage from the current segments."""
        n_prefixes = len(self._origin_index_per_prefix)
        self.exclusive_per_prefix = np.zeros(n_prefixes, dtype=np.float64)
        if self._seg_starts.size:
            seg_ends = np.append(
                self._seg_starts[1:], np.uint64(_ADDR_END)
            )
            seg_sizes = (
                seg_ends - self._seg_starts
            ).astype(np.float64) / 256.0
            covered = self._seg_prefix >= 0
            np.add.at(
                self.exclusive_per_prefix,
                self._seg_prefix[covered],
                seg_sizes[covered],
            )
        self.exclusive_per_origin = np.zeros(
            len(self.indexer), dtype=np.float64
        )
        live = self._origin_index_per_prefix >= 0
        if live.any():
            np.add.at(
                self.exclusive_per_origin,
                self._origin_index_per_prefix[live],
                self.exclusive_per_prefix[live],
            )

    def lookup_many(self, addrs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        addrs = np.asarray(addrs, dtype=np.uint64)
        if self._seg_starts.size == 0:
            empty = np.full(addrs.shape, -1, dtype=np.int64)
            return empty, empty.copy()
        slots = np.searchsorted(self._seg_starts, addrs, side="right") - 1
        prefix_ids = np.where(slots >= 0, self._seg_prefix[np.maximum(slots, 0)], -1)
        origin_indices = np.where(
            prefix_ids >= 0,
            self._origin_index_per_prefix[np.maximum(prefix_ids, 0)],
            -1,
        )
        return prefix_ids, origin_indices
