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

The route store keys everything by ints. Paths are interned once in a
:class:`~repro.bgp.messages.PathTable`; a live route is one packed
``prefix id << 32 | path id`` key. Per path it keeps the number of
live routes over it, per prefix the origin votes and, per AS on its
live paths, the number of those paths; globally it refcounts the ASNs
and adjacencies of the live paths.

Two ingest modes keep that bookkeeping:

* :meth:`GlobalRIB.add_all` — the paper's batch *union* semantics.
  It folds one :class:`~repro.bgp.messages.RouteBatch` with numpy: one
  sort over the packed route keys gives the new routes, and with them
  the accepted, duplicate, discarded and withdrawal counts; the
  supports are folds over the CSR expansion of the new routes' paths.
  Python work is per prefix (one bulk dict update each), never per
  route. Observation objects are converted to a batch and take the
  same fold (:meth:`GlobalRIB.add` is a one-item batch). Withdrawals
  are counted, never applied. :meth:`GlobalRIB.path_member_pairs`
  serves the fold's own arrays until the state next changes.
* :meth:`GlobalRIB.apply` — the online pipeline's *delta* semantics,
  pure Python per event over the same int-keyed store, which pickles
  with the RIB.
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

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from itertools import chain, compress
from operator import attrgetter

import numpy as np

from repro.bgp.messages import (
    PathTable,
    RouteBatch,
    RouteObservation,
    path_adjacencies,
)
from repro.net.prefix import Prefix
from repro.net.prefixset import PrefixSet
from repro.obs.metrics import current_metrics
from repro.util.indexing import AsnIndexer, csr_positions, distinct

#: Announcement length bounds (paper: discard more specific than /24,
#: less specific than /8).
MIN_PLEN = 8
MAX_PLEN = 24

#: A route key is ``prefix id << _SHIFT | path id``; adjacency, vote
#: and member keys pack two 32-bit values the same way.
_SHIFT = 32
_LOW = (1 << _SHIFT) - 1

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
        self._path_table = PathTable()
        #: Live routes as packed ``prefix id << 32 | path id`` keys.
        self._routes: set[int] = set()
        #: Live routes per path id (0 for a dead or withdrawn path).
        self._routes_per_path: list[int] = []
        #: Per prefix id: origin → votes, and AS → live paths holding it.
        self._origins_per_prefix: list[dict[int, int]] = []
        self._members_per_prefix: list[dict[int, int]] = []
        #: How many live paths contain an ASN / an adjacency.
        self._asn_support: dict[int, int] = {}
        self._adj_support: dict[tuple[int, int], int] = {}
        self._discarded = 0
        self._accepted = 0
        self._duplicates = 0
        self._withdrawals = 0
        self._withdrawals_applied = 0
        self._withdrawals_ignored = 0
        self._finalized: "_FinalizedRIB | None" = None
        #: :meth:`path_member_pairs` as the fold of an empty RIB left
        #: it; dropped by any later change and by pickling.
        self._member_pairs: tuple[np.ndarray, np.ndarray] | None = None

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_member_pairs": None}

    # -- construction -----------------------------------------------------

    def add(self, observation: RouteObservation) -> bool:
        """Ingest one observation; returns False if filtered or duplicate.

        A one-observation :meth:`add_all`.
        """
        return self.add_all((observation,)) == 1

    def add_all(self, routes: RouteBatch | Iterable[RouteObservation]) -> int:
        """Ingest routes with union semantics; returns accepted count.

        Withdrawals are counted but never remove state — the window
        RIB is the *union* of everything observed (Section 3.3).
        Re-observations of an already-known ``(prefix, path)`` route
        are no-ops: they neither count as accepted nor invalidate the
        finalized vectorised views.

        A :class:`RouteBatch` is folded whole. Observation objects are
        collected into a batch first; if their stream raises, what it
        delivered is still folded before the error propagates.
        """
        if isinstance(routes, RouteBatch):
            return self._fold(routes)
        delivered: list[RouteObservation] = []
        try:
            delivered.extend(routes)
        finally:
            accepted = self._fold(RouteBatch.from_observations(delivered))
        return accepted

    def _fold(self, batch: RouteBatch) -> int:
        """Union ``batch`` into the store (see the module doc)."""
        lengths = np.fromiter(
            map(attrgetter("length"), batch.prefixes), np.int64,
            len(batch.prefixes),
        )
        in_range = (lengths >= MIN_PLEN) & (lengths <= MAX_PLEN)
        announced = ~batch.withdrawal
        rows = np.flatnonzero(announced & in_range[batch.prefix])
        n_announced = int(np.count_nonzero(announced))
        batch_prefix, batch_path = batch.prefix[rows], batch.path[rows]
        # RIB ids of the batch's prefixes, allocated in first-seen order.
        seen, first = np.unique(batch_prefix, return_index=True)
        seen = seen[np.argsort(first)]
        prefix_ids = np.zeros(len(batch.prefixes), dtype=np.int64)
        prefix_ids[seen] = self._intern_prefixes(
            list(map(batch.prefixes.__getitem__, seen.tolist()))
        )
        used = distinct(batch_path)
        path_ids = np.zeros(len(batch.paths), dtype=np.int64)
        path_ids[used] = self._path_table.intern_many(
            list(map(batch.paths.tuples.__getitem__, used.tolist()))
        )
        keys = distinct(
            (prefix_ids[batch_prefix] << _SHIFT) | path_ids[batch_path]
        )
        if self._routes:
            known = np.fromiter(
                map(self._routes.__contains__, keys.tolist()), bool, keys.size
            )
            keys = keys[~known]
        self._install(keys)
        self._accepted += keys.size
        self._duplicates += rows.size - keys.size
        self._discarded += n_announced - rows.size
        self._withdrawals += len(batch) - n_announced
        self._withdrawals_ignored += len(batch) - n_announced
        if keys.size:
            self._finalized = None
        return int(keys.size)

    def _intern_prefixes(self, prefixes: list[Prefix]) -> list[int]:
        """The ids of distinct ``prefixes``, allocating the new ones."""
        ids = self._prefix_ids
        new = [prefix for prefix in prefixes if prefix not in ids]
        start = len(self._prefixes)
        ids.update(zip(new, range(start, start + len(new))))
        self._prefixes.extend(new)
        self._origins_per_prefix.extend({} for _ in new)
        self._members_per_prefix.extend({} for _ in new)
        return list(map(ids.__getitem__, prefixes))

    def _install(self, keys: np.ndarray) -> None:
        """Add the new routes ``keys`` (sorted, none live yet)."""
        flat, offsets = self._path_table.csr()
        if flat.size and not 0 <= flat.min() <= flat.max() <= _LOW:
            raise ValueError("AS numbers must fit in 32 bits")
        first = not self._routes
        self._member_pairs = None
        self._routes.update(keys.tolist())
        prefix_of, path_of = keys >> _SHIFT, keys & _LOW
        n_paths = len(self._path_table)
        routes = np.zeros(n_paths, dtype=np.int64)
        routes[: len(self._routes_per_path)] = self._routes_per_path
        born = routes == 0
        routes += np.bincount(path_of, minlength=n_paths)
        born &= routes > 0
        self._routes_per_path = routes.tolist()
        if not keys.size:
            return
        # Origin votes: one per route, for its path's last AS.
        votes, counts = np.unique(
            (prefix_of << _SHIFT) | flat[offsets[path_of + 1] - 1],
            return_counts=True,
        )
        _add_grouped(self._origins_per_prefix, votes, counts)
        # Each touched path's distinct ASNs, as a CSR over ``touched``.
        touched = distinct(path_of)
        members = distinct(
            (np.repeat(touched, offsets[touched + 1] - offsets[touched])
             << _SHIFT) | flat[csr_positions(offsets, touched)]
        )
        member_path, member_asn = members >> _SHIFT, members & _LOW
        member_offsets = np.searchsorted(
            member_path, np.append(touched, n_paths)
        )
        # Per prefix: every route's path members, counted per path.
        slot = np.searchsorted(touched, path_of)
        pairs, counts = np.unique(
            (np.repeat(prefix_of, np.diff(member_offsets)[slot]) << _SHIFT)
            | member_asn[csr_positions(member_offsets, slot)],
            return_counts=True,
        )
        _add_grouped(self._members_per_prefix, pairs, counts)
        if first:
            self._member_pairs = (pairs >> _SHIFT, pairs & _LOW)
        # Paths that came alive support their ASNs and adjacencies.
        asns, counts = np.unique(
            member_asn[born[member_path]], return_counts=True
        )
        _add_counts(self._asn_support, asns.tolist(), counts.tolist())
        new_paths = np.flatnonzero(born)
        positions = csr_positions(offsets, new_paths)
        last = np.zeros(positions.size, dtype=bool)
        last[np.cumsum(offsets[new_paths + 1] - offsets[new_paths]) - 1] = True
        step = positions[~last]
        left, right = flat[step], flat[step + 1]
        hop = left != right  # prepending repeats an AS without a link
        links, counts = np.unique(
            (left[hop].astype(np.uint64) << np.uint64(_SHIFT))
            | right[hop].astype(np.uint64),
            return_counts=True,
        )
        _add_counts(
            self._adj_support,
            list(zip((links >> np.uint64(_SHIFT)).tolist(),
                     (links & np.uint64(_LOW)).tolist())),
            counts.tolist(),
        )

    def apply(self, observation: RouteObservation) -> RIBDelta:
        """Ingest one observation with delta semantics; patch views.

        Announcements install routes exactly as :meth:`add_all` does;
        withdrawals remove the live ``(prefix, path)`` route they name
        (withdrawals of unknown or already-withdrawn routes are counted
        as ignored and change nothing — see :attr:`num_withdrawals_ignored`).

        Pure Python per event: every index it reads is kept by the
        store itself, so a pickled RIB applies events at full speed.

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
        self._member_pairs = None
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
        path_id = self._path_table.ids.get(path)
        if (
            prefix_id is not None
            and path_id is not None
            and prefix_id << _SHIFT | path_id in self._routes
        ):
            self._duplicates += 1
            return False
        self._accepted += 1
        if prefix_id is None:
            prefix_id = len(self._prefixes)
            self._prefix_ids[prefix] = prefix_id
            self._prefixes.append(prefix)
            self._origins_per_prefix.append({})
            self._members_per_prefix.append({})
            delta.new_prefix_ids.append(prefix_id)
        if path_id is None:
            path_id = self._path_table.intern(path)
            self._routes_per_path.append(0)
        origins = self._origins_per_prefix[prefix_id]
        was_live = bool(origins)
        old_origin = self._majority_origin(prefix_id) if was_live else None
        self._routes.add(prefix_id << _SHIFT | path_id)
        origins[path[-1]] = origins.get(path[-1], 0) + 1
        members = frozenset(path)
        if not self._routes_per_path[path_id]:
            for asn in members:
                count = self._asn_support.get(asn, 0)
                if count == 0:
                    delta.new_asns.add(asn)
                self._asn_support[asn] = count + 1
            for pair in path_adjacencies(path):
                count = self._adj_support.get(pair, 0)
                if count == 0:
                    delta.added_adjacencies.append(pair)
                self._adj_support[pair] = count + 1
            delta.added_paths.append(path)
        self._routes_per_path[path_id] += 1
        prefix_members = self._members_per_prefix[prefix_id]
        added_members = set()
        for asn in members:
            count = prefix_members.get(asn, 0)
            if count == 0:
                added_members.add(asn)
            prefix_members[asn] = count + 1
        if added_members:
            delta.members_added[prefix_id] = added_members
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
        path_id = self._path_table.ids.get(path)
        if (
            prefix_id is None
            or path_id is None
            or prefix_id << _SHIFT | path_id not in self._routes
        ):
            # Never-announced prefix, unknown path, or duplicate
            # withdrawal: counted once here, never double-applied.
            self._withdrawals_ignored += 1
            return False
        self._withdrawals_applied += 1
        self._routes.discard(prefix_id << _SHIFT | path_id)
        origins = self._origins_per_prefix[prefix_id]
        old_origin = self._majority_origin(prefix_id)
        origin = path[-1]
        origins[origin] -= 1
        if origins[origin] == 0:
            del origins[origin]
        members = frozenset(path)
        self._routes_per_path[path_id] -= 1
        if not self._routes_per_path[path_id]:
            for asn in members:
                self._asn_support[asn] -= 1
                if self._asn_support[asn] == 0:
                    del self._asn_support[asn]
                    delta.removed_asns.add(asn)
            for pair in path_adjacencies(path):
                self._adj_support[pair] -= 1
                if self._adj_support[pair] == 0:
                    del self._adj_support[pair]
                    delta.removed_adjacencies.append(pair)
            delta.removed_paths.append(path)
        prefix_members = self._members_per_prefix[prefix_id]
        removed_members = set()
        for asn in members:
            count = prefix_members[asn] - 1
            if count:
                prefix_members[asn] = count
            else:
                del prefix_members[asn]
                removed_members.add(asn)
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
        cls, routes: RouteBatch | Iterable[RouteObservation]
    ) -> GlobalRIB:
        rib = cls()
        rib.add_all(routes)
        return rib

    # -- basic accessors -------------------------------------------------

    @property
    def num_prefixes(self) -> int:
        return len(self._prefixes)

    @property
    def num_paths(self) -> int:
        return len(self._routes_per_path) - self._routes_per_path.count(0)

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
        return len(self._routes)

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
        if not self._origins_per_prefix[prefix_id]:
            raise ValueError(f"prefix id {prefix_id} has no live routes")
        return self._majority_origin(prefix_id)

    def origins_of(self, prefix_id: int) -> set[int]:
        """All observed origins (MOAS prefixes have several)."""
        return set(self._origins_per_prefix[prefix_id])

    def path_members(self, prefix_id: int) -> set[int]:
        """Every AS seen on any live path announcing this prefix (Naive)."""
        return set(self._members_per_prefix[prefix_id])

    def path_member_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Every ``(prefix id, AS)`` of :meth:`path_members`, as two
        int64 arrays grouped by ascending prefix id."""
        if self._member_pairs is not None:
            return self._member_pairs
        members = self._members_per_prefix
        counts = np.fromiter(map(len, members), np.int64, len(members))
        asns = np.fromiter(
            chain.from_iterable(members), np.int64, int(counts.sum())
        )
        return np.repeat(np.arange(len(members), dtype=np.int64), counts), asns

    def paths(self) -> Iterator[tuple[int, ...]]:
        """All unique live AS paths."""
        return compress(self._path_table.tuples, self._routes_per_path)

    def adjacencies(self) -> set[tuple[int, int]]:
        """Directed (upstream, downstream) AS pairs from all live paths."""
        return set(self._adj_support)

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
        keys = np.sort(np.fromiter(self._routes, np.int64, len(self._routes)))
        path_of = (keys & _LOW).tolist()
        tuples = self._path_table.tuples.__getitem__
        for prefix_id, start, end in _groups(keys >> _SHIFT):
            prefix = self._prefixes[prefix_id]
            for path in sorted(map(tuples, path_of[start:end])):
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


def _add_counts(table: dict, keys: list, counts: list[int]) -> None:
    """``table[key] += count`` for each pair; one bulk insert if empty."""
    if not table:
        table.update(zip(keys, counts))
        return
    for key, count in zip(keys, counts):
        table[key] = table.get(key, 0) + count


def _add_grouped(
    tables: list[dict[int, int]], keys: np.ndarray, counts: np.ndarray
) -> None:
    """:func:`_add_counts` into ``tables[key >> 32]`` for sorted packed
    ``keys``, each table's key being ``key & 0xFFFFFFFF``: one bulk
    update per table touched."""
    values, counts = (keys & _LOW).tolist(), counts.tolist()
    for table_id, start, end in _groups(keys >> _SHIFT):
        _add_counts(tables[table_id], values[start:end], counts[start:end])


def _groups(owner: np.ndarray) -> Iterator[tuple[int, int, int]]:
    """``(owner, start, end)`` of every run of equal values in ``owner``."""
    if not owner.size:
        return iter(())
    bounds = (np.flatnonzero(np.diff(owner)) + 1).tolist()
    starts = [0, *bounds]
    return zip(owner[starts].tolist(), starts, [*bounds, owner.size])


class _FinalizedRIB:
    """Vectorised derivatives of a :class:`GlobalRIB`.

    Built from scratch lazily; thereafter :meth:`apply_delta` keeps it
    current in place for events that do not change the observed AS
    set: it updates the origin mapping, re-paints the LPM segments and
    the routed space with the cold build's own :meth:`_paint` when the
    set of live prefixes changed, and recomputes the exclusive
    coverage.
    """

    def __init__(self, rib: GlobalRIB) -> None:
        self.indexer = AsnIndexer(rib.observed_asns())
        self._paint(rib)
        origin_index = np.full(rib.num_prefixes, -1, dtype=np.int64)
        for prefix_id in rib.live_prefix_ids():
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
            self._paint(rib)
        for prefix_id, origin in delta.origin_changes.items():
            self._origin_index_per_prefix[prefix_id] = self.indexer.index(
                origin
            )
        for prefix_id in delta.prefixes_now_dead:
            self._origin_index_per_prefix[prefix_id] = -1
        if delta.geometry_changed or delta.origin_changes:
            self._recompute_exclusive()
        return True

    def _paint(self, rib: GlobalRIB) -> None:
        """Paint the LPM segments and the routed space over the live
        prefixes of ``rib``.

        Each live prefix puts a boundary point at its first address and
        one past its last. Every prefix length present, shortest first,
        claims the points inside its prefixes, so a point ends up owned
        by its most specific covering prefix (-1 if none). Consecutive
        points with one owner merge: a segment runs from its start to
        the next segment's start.
        """
        live_ids = rib.live_prefix_ids()
        live = np.array(live_ids, dtype=np.int64)
        chosen = list(map(rib.prefix_by_id, live_ids))
        networks = np.fromiter(
            map(attrgetter("network"), chosen), np.int64, live.size
        )
        lengths = np.fromiter(
            map(attrgetter("length"), chosen), np.int64, live.size
        )
        ends = networks + (1 << (32 - lengths))
        points = np.unique(np.concatenate((networks, ends)))
        points = points[points < _ADDR_END]
        owners = np.full(points.size, -1, dtype=np.int64)
        order = np.lexsort((networks, lengths))
        for _length, start, end in _groups(lengths[order]):
            rows = order[start:end]  # one length: disjoint, by address
            slot = np.searchsorted(networks[rows], points, side="right") - 1
            owned = rows[np.maximum(slot, 0)]
            inside = (networks[owned] <= points) & (points < ends[owned])
            owners[inside] = live[owned[inside]]
        keep = np.ones(points.size, dtype=bool)
        keep[1:] = owners[1:] != owners[:-1]
        self._seg_starts = points[keep].astype(np.uint64)
        self._seg_prefix = owners[keep]
        seg_ends = np.append(self._seg_starts[1:], np.uint64(_ADDR_END))
        covered = self._seg_prefix >= 0
        self.routed_space = PrefixSet.from_intervals(
            zip(self._seg_starts[covered].tolist(), seg_ends[covered].tolist())
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
