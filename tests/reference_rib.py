"""Reference union RIB: the per-observation ingest.

This is :meth:`~repro.bgp.rib.GlobalRIB.add` as it was before the union
ingest became one batch loop in ``add_all``: every observation goes
through the shared announce path one at a time, and a
``(prefix id, path)`` set records the routes seen. Kept unchanged (minus
the delta-mode branches, which union mode never took) as an independent
oracle for the batch ingest; its accessors mirror the ones the batch RIB
must match.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from collections.abc import Iterable, Iterator

from repro.bgp.messages import RouteObservation, path_adjacencies
from repro.bgp.rib import MAX_PLEN, MIN_PLEN
from repro.net.prefix import Prefix


class ReferenceUnionRIB:
    """Union of every accepted route observation, one at a time."""

    def __init__(self) -> None:
        self._prefix_ids: dict[Prefix, int] = {}
        self._prefixes: list[Prefix] = []
        self._origins_per_prefix: list[dict[int, int]] = []  # origin → votes
        self._path_members_per_prefix: list[set[int]] = []
        self._paths_per_prefix: list[set[tuple[int, ...]]] = []
        self._paths: set[tuple[int, ...]] = set()
        self._adjacencies: set[tuple[int, int]] = set()
        self._routes_per_path: dict[tuple[int, ...], int] = {}
        self._asn_support: dict[int, int] = {}
        self._adj_support: dict[tuple[int, int], int] = {}
        self._discarded = 0
        self._accepted = 0
        self._duplicates = 0
        self._withdrawals = 0
        self._path_member_cache: dict[tuple[int, ...], frozenset[int]] = {}
        self._seen_routes: set[tuple[int, tuple[int, ...]]] = set()

    def add(self, observation: RouteObservation) -> bool:
        if observation.withdrawal:
            self._withdrawals += 1
            return False
        return self._ingest_announce(observation)

    def add_all(self, observations: Iterable[RouteObservation]) -> int:
        accepted = 0
        for observation in observations:
            if self.add(observation):
                accepted += 1
        return accepted

    def _ingest_announce(self, observation: RouteObservation) -> bool:
        prefix = observation.prefix
        if not MIN_PLEN <= prefix.length <= MAX_PLEN:
            self._discarded += 1
            return False
        prefix_id = self._prefix_ids.get(prefix)
        path = observation.path
        if prefix_id is not None and (prefix_id, path) in self._seen_routes:
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
        origins = self._origins_per_prefix[prefix_id]
        self._seen_routes.add((prefix_id, path))
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
                self._asn_support[asn] = count + 1
            for pair in path_adjacencies(path):
                count = self._adj_support.get(pair, 0)
                if count == 0:
                    self._adjacencies.add(pair)
                self._adj_support[pair] = count + 1
        self._routes_per_path[path] = self._routes_per_path.get(path, 0) + 1
        prefix_members = self._path_members_per_prefix[prefix_id]
        added_members = members - prefix_members
        if added_members:
            prefix_members.update(added_members)
        return True

    def _majority_origin(self, prefix_id: int) -> int:
        origins = self._origins_per_prefix[prefix_id]
        return max(origins, key=lambda asn: (origins[asn], -asn))

    # -- accessors the batch RIB must match ---------------------------------

    @property
    def num_accepted(self) -> int:
        return self._accepted

    @property
    def num_duplicates(self) -> int:
        return self._duplicates

    @property
    def num_discarded(self) -> int:
        return self._discarded

    @property
    def num_withdrawals(self) -> int:
        return self._withdrawals

    @property
    def num_live_routes(self) -> int:
        return len(self._seen_routes)

    def prefixes(self) -> list[Prefix]:
        return list(self._prefixes)

    def origin_of(self, prefix_id: int) -> int:
        return self._majority_origin(prefix_id)

    def origins_of(self, prefix_id: int) -> set[int]:
        return set(self._origins_per_prefix[prefix_id])

    def path_members(self, prefix_id: int) -> set[int]:
        return set(self._path_members_per_prefix[prefix_id])

    def paths(self) -> Iterator[tuple[int, ...]]:
        return iter(self._paths)

    def adjacencies(self) -> set[tuple[int, int]]:
        return set(self._adjacencies)

    def observed_asns(self) -> set[int]:
        return set(self._asn_support)

    def state_digest(self) -> str:
        digest = hashlib.sha256()
        for prefix_id, path in sorted(self._seen_routes):
            prefix = self._prefixes[prefix_id]
            digest.update(
                f"{prefix}|{','.join(map(str, path))}\n".encode()
            )
        for prefix_id in range(len(self._prefixes)):
            if self._origins_per_prefix[prefix_id]:
                votes = sorted(self._origins_per_prefix[prefix_id].items())
                digest.update(f"{prefix_id}:{votes}\n".encode())
        return digest.hexdigest()
