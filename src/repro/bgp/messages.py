"""BGP observation records, one at a time and as columns.

A :class:`RouteObservation` is the common denominator of what an MRT
table dump entry, an MRT update, and a route-server snapshot line all
carry after parsing: a prefix, the AS path as seen at the observation
point, where it was seen, and when.

A :class:`RouteBatch` carries the same records as columns: prefix,
path and source ids into per-batch tables, plus the time and kind of
every row. Paths are interned once in a :class:`PathTable`, so a route
is two ints, not an object. Propagation emits one batch and the RIB
folds it whole; :meth:`RouteBatch.observations` builds the objects,
in row order, only where an event stream needs them.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import chain, repeat
from operator import attrgetter

import numpy as np

from repro.net.prefix import Prefix


def path_adjacencies(path: tuple[int, ...]) -> list[tuple[int, int]]:
    """Directed (left, right) AS pairs along an AS path.

    The left AS is upstream of the right AS in the paper's Full-Cone
    sense. AS-path prepending (repeated ASNs) collapses. Exposed as a
    free function so the RIB's delta engine can derive the adjacency
    support of a *withdrawn* path without holding the original
    observation object.
    """
    pairs: list[tuple[int, int]] = []
    previous = path[0]
    for asn in path[1:]:
        if asn != previous:
            pairs.append((previous, asn))
            previous = asn
    return pairs


@dataclass(frozen=True, slots=True)
class RouteObservation:
    """One observed route.

    ``path`` is ordered monitor-first: ``path[0]`` is the AS adjacent
    to the observation point (the collector peer or route-server
    member) and ``path[-1]`` is the origin AS, matching the AS_PATH
    attribute of a received BGP update.
    """

    prefix: Prefix
    path: tuple[int, ...]
    source: str  # e.g. "rrc00", "route-views2", "ixp-rs"
    timestamp: int = 0
    from_update: bool = False  # True: update message, False: table dump
    #: In the batch pipeline (``GlobalRIB.add_all``) withdrawal messages
    #: are recorded but do NOT remove state: the paper unions all dumps
    #: and updates over the window ("to acquire an as-complete-as-
    #: possible picture"), so a route withdrawn mid-window still counts
    #: as routed/valid for the whole window. In the online pipeline
    #: (``GlobalRIB.apply``) a withdrawal removes exactly the
    #: (prefix, path) route it names, if that route is live.
    withdrawal: bool = False

    @property
    def origin(self) -> int:
        return self.path[-1]

    @property
    def monitor_peer(self) -> int:
        return self.path[0]

    def adjacencies(self) -> list[tuple[int, int]]:
        """Directed (left, right) AS pairs along the path.

        The left AS is upstream of the right AS in the paper's
        Full-Cone sense. AS-path prepending (repeated ASNs) collapses.
        """
        return path_adjacencies(self.path)


class PathTable:
    """Interned AS paths: each distinct tuple has one dense id.

    ``ids`` maps a path to its id and ``tuples`` an id back to its
    path. :meth:`csr` gives every path's ASNs as one flat array.
    """

    __slots__ = ("ids", "tuples", "_flat", "_offsets")

    def __init__(self) -> None:
        self.ids: dict[tuple[int, ...], int] = {}
        self.tuples: list[tuple[int, ...]] = []
        self._flat = np.zeros(0, dtype=np.int64)
        self._offsets = np.zeros(1, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.tuples)

    def __getstate__(self) -> tuple:
        # The CSR is derived; a pickle carries the tuples only.
        return self.ids, self.tuples

    def __setstate__(self, state: tuple) -> None:
        self.ids, self.tuples = state
        self._flat = np.zeros(0, dtype=np.int64)
        self._offsets = np.zeros(1, dtype=np.int64)

    def intern(self, path: tuple[int, ...]) -> int:
        """The id of ``path``, new if the table has not seen it."""
        path_id = self.ids.get(path)
        if path_id is None:
            path_id = self.ids[path] = len(self.tuples)
            self.tuples.append(path)
        return path_id

    def intern_many(self, paths: list[tuple[int, ...]]) -> np.ndarray:
        """The ids of distinct ``paths``, interning the new ones in order."""
        ids = np.fromiter(
            map(self.ids.get, paths, repeat(-1)), np.int64, len(paths)
        )
        new = ids < 0
        if new.any():
            start = len(self.tuples)
            fresh = list(map(paths.__getitem__, np.flatnonzero(new).tolist()))
            ids[new] = np.arange(start, start + len(fresh), dtype=np.int64)
            self.ids.update(zip(fresh, range(start, start + len(fresh))))
            self.tuples.extend(fresh)
        return ids

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """``(asns, offsets)``: path ``i`` holds the ASNs
        ``asns[offsets[i]:offsets[i + 1]]``.

        Extended in place for paths interned since the last call.
        """
        known = self._offsets.size - 1
        if known < len(self.tuples):
            fresh = self.tuples[known:]
            lengths = np.fromiter(map(len, fresh), np.int64, len(fresh))
            flat = np.fromiter(
                chain.from_iterable(fresh), np.int64, int(lengths.sum())
            )
            self._flat = np.concatenate((self._flat, flat))
            self._offsets = np.concatenate(
                (self._offsets, self._offsets[-1] + np.cumsum(lengths))
            )
        return self._flat, self._offsets


@dataclass(slots=True, eq=False)
class RouteBatch:
    """Route observations as columns, in emission order.

    Row ``i`` is the observation of ``prefixes[prefix[i]]`` over
    ``paths.tuples[path[i]]`` at ``sources[source[i]]``, with
    ``timestamp[i]``, ``from_update[i]`` and ``withdrawal[i]``.
    """

    prefixes: list[Prefix]
    paths: PathTable
    sources: list[str]
    prefix: np.ndarray
    path: np.ndarray
    source: np.ndarray
    timestamp: np.ndarray
    from_update: np.ndarray
    withdrawal: np.ndarray

    def __len__(self) -> int:
        return int(self.prefix.size)

    def observations(self) -> Iterator[RouteObservation]:
        """One :class:`RouteObservation` per row, in row order."""
        columns = (
            map(self.prefixes.__getitem__, self.prefix.tolist()),
            map(self.paths.tuples.__getitem__, self.path.tolist()),
            map(self.sources.__getitem__, self.source.tolist()),
            self.timestamp.tolist(),
            self.from_update.tolist(),
            self.withdrawal.tolist(),
        )
        return map(RouteObservation, *columns)

    @classmethod
    def from_observations(
        cls, observations: Iterable[RouteObservation]
    ) -> RouteBatch:
        """The batch of ``observations``, row for row."""
        observations = list(observations)
        prefixes, prefix = _interned(observations, "prefix")
        sources, source = _interned(observations, "source")
        paths = PathTable()
        distinct, path = _interned(observations, "path")
        paths.intern_many(distinct)
        timestamp, from_update, withdrawal = (
            np.fromiter(map(attrgetter(name), observations), dtype, len(path))
            for name, dtype in (
                ("timestamp", np.int64), ("from_update", bool),
                ("withdrawal", bool),
            )
        )
        return cls(
            prefixes=prefixes, paths=paths, sources=sources, prefix=prefix,
            path=path, source=source, timestamp=timestamp,
            from_update=from_update, withdrawal=withdrawal,
        )


def _interned(
    observations: list[RouteObservation], name: str
) -> tuple[list, np.ndarray]:
    """The distinct values of field ``name`` in first-seen order, and
    every observation's index into them."""
    values = list(map(attrgetter(name), observations))
    distinct = list(dict.fromkeys(values))
    ids = dict(zip(distinct, range(len(distinct))))
    column = np.fromiter(map(ids.__getitem__, values), np.int64, len(values))
    return distinct, column
