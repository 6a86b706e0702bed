"""The Full Cone approach (the paper's own contribution, Section 3.2).

Whenever two ASes are adjacent on an observed AS path, a directed edge
is drawn from the left (upstream) AS to the right (downstream) AS —
deliberately ignoring the business type of the link. The full cone of
an AS is the transitive closure of its children on this graph, which
may contain loops; an AS may source traffic from prefixes originated
by any AS in its full cone. This is the paper's most conservative
(fewest false positives) approach and the one all traffic analyses use.
"""

from __future__ import annotations

import numpy as np

from repro.bgp.rib import GlobalRIB, RIBDelta
from repro.cones.base import ValidSpaceMap
from repro.cones.closure import ReachabilityClosure


class FullConeValidSpace(ValidSpaceMap):
    """Valid space from the transitive closure of AS-path adjacency."""

    name = "full"

    def __init__(
        self,
        rib: GlobalRIB,
        extra_edges: list[tuple[int, int]] | None = None,
    ) -> None:
        """``extra_edges`` — additional directed (upstream, downstream)
        ASN pairs, e.g. links recovered from WHOIS during the
        false-positive hunt (Section 4.4)."""
        super().__init__(rib)
        self._extra_edges = list(extra_edges) if extra_edges else []
        self._build()

    def _build(self) -> None:
        indexer = self._rib.indexer
        edges = []
        pair_source = list(self._rib.adjacencies())
        pair_source.extend(self._extra_edges)
        for left, right in pair_source:
            l_idx = indexer.index_or_none(left)
            r_idx = indexer.index_or_none(right)
            if l_idx is not None and r_idx is not None:
                edges.append((l_idx, r_idx))
        self._closure = ReachabilityClosure(len(indexer), edges)

    def apply_delta(self, delta: RIBDelta) -> None:
        """Rebuild the closure when the adjacency set or the AS set
        moved; any other delta leaves every cone as it was."""
        if (delta.rebuild_required or delta.added_adjacencies
                or delta.removed_adjacencies):
            self._build()

    @property
    def column_kind(self) -> str:
        """Validity rows are indexed by origin-AS column (not prefix)."""
        return "origin"

    @property
    def closure(self) -> ReachabilityClosure:
        """The provider-to-customer reachability closure backing the map."""
        return self._closure

    def _n_columns(self) -> int:
        return len(self._rib.indexer)

    def packed_row(self, asn: int) -> np.ndarray | None:
        """Packed origin-validity bitmap for one AS (None if unknown)."""
        index = self._rib.indexer.index_or_none(asn)
        if index is None:
            return None
        return self._closure.row(index)

    def cone_asns(self, asn: int) -> set[int]:
        """The full cone (children closure) of ``asn``, incl. itself."""
        index = self._rib.indexer.index_or_none(asn)
        if index is None:
            return set()
        indexer = self._rib.indexer
        return {indexer.asn(i) for i in self._closure.reachable_set(index)}

    def cone_sizes(self) -> np.ndarray:
        """Cone size (AS count) per dense AS index."""
        return self._closure.counts()
