"""BGP observation records.

A :class:`RouteObservation` is the common denominator of what an MRT
table dump entry, an MRT update, and a route-server snapshot line all
carry after parsing: a prefix, the AS path as seen at the observation
point, where it was seen, and when. The RIB builder consumes streams
of these.
"""

from __future__ import annotations

from dataclasses import dataclass

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
