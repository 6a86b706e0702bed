"""The Customer Cone approach (Luckie et al., used by the paper as CC).

The customer cone of an AS is the set of ASes reachable over
provider→customer links. If AS ``A`` originates a prefix, every AS
whose customer cone contains ``A`` may source traffic from it. Peering
links are intentionally ignored — that is the approach's defining
property and the source of the false positives Figure 1c illustrates.
"""

from __future__ import annotations

import numpy as np

from repro.bgp.rib import GlobalRIB, RIBDelta
from repro.cones.base import ValidSpaceMap
from repro.cones.closure import ReachabilityClosure
from repro.cones.relationships import (
    InferredRelationship,
    RelationshipLedger,
    is_provider,
)


class CustomerConeValidSpace(ValidSpaceMap):
    """Valid space from customer cones over inferred relationships."""

    name = "cc"

    def __init__(self, rib: GlobalRIB) -> None:
        super().__init__(rib)
        self._build()

    @property
    def relationships(self) -> dict[tuple[int, int], InferredRelationship]:
        """The inferred relationship per observed link (see
        :func:`~repro.cones.relationships.infer_relationships`)."""
        return self._ledger.relationships

    def _build(self) -> None:
        self._ledger = RelationshipLedger(self._rib.paths())
        # Keep only provider→customer edges that are also observed
        # path adjacencies. Provider→customer export is what makes an
        # AS appear left of its customer on paths, so a true p2c link
        # always satisfies this; dropping the rest guarantees the
        # paper's observed containment (CC ⊆ Full Cone per AS) even
        # when relationship inference errs on a peering.
        self._edges = {
            edge for edge in self._rib.adjacencies()
            if is_provider(self.relationships, *edge)
        }
        self._close()

    def _close(self) -> None:
        """Rebuild the closure over the kept provider→customer edges."""
        indexer = self._rib.indexer
        edges = []
        for provider, customer in self._edges:
            p_idx = indexer.index_or_none(provider)
            c_idx = indexer.index_or_none(customer)
            if p_idx is not None and c_idx is not None:
                edges.append((p_idx, c_idx))
        self._closure = ReachabilityClosure(len(indexer), edges)

    def apply_delta(self, delta: RIBDelta) -> None:
        """Patch the relationship ledger; re-close only when the kept
        provider→customer edge set moved.

        The ledger re-votes only the paths the delta added or removed
        (plus every path through an AS whose transit degree moved) and
        reports the links whose relationship changed. An edge can enter
        or leave the kept set only on such a link or on an adjacency
        that appeared or vanished, so only those are re-checked. A
        change of the observed AS set shifts the dense index, so the
        closure is rebuilt then too.
        """
        relinked = self._ledger.apply(delta.added_paths, delta.removed_paths)
        candidates = {*delta.added_adjacencies, *delta.removed_adjacencies}
        for a, b in relinked:
            candidates.update(((a, b), (b, a)))
        edges_moved = False
        if candidates:
            observed = self._rib.adjacencies()
            kept = {
                edge for edge in candidates
                if edge in observed and is_provider(self.relationships, *edge)
            }
            before = candidates & self._edges
            if kept != before:
                self._edges = (self._edges - before) | kept
                edges_moved = True
        if edges_moved or delta.rebuild_required:
            self._close()

    @property
    def column_kind(self) -> str:
        """Validity rows are indexed by origin-AS column (not prefix)."""
        return "origin"

    @property
    def closure(self) -> ReachabilityClosure:
        """The customer-to-provider reachability closure backing the map."""
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
        """The inferred customer cone of ``asn`` (including itself)."""
        index = self._rib.indexer.index_or_none(asn)
        if index is None:
            return set()
        indexer = self._rib.indexer
        return {indexer.asn(i) for i in self._closure.reachable_set(index)}

    def cone_sizes(self) -> np.ndarray:
        """Cone size (AS count) per dense AS index."""
        return self._closure.counts()
