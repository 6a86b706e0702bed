"""The Naive baseline approach (Section 3.2).

An AS is a valid source for a prefix iff it appears on an observed AS
path of an announcement for that prefix. The approach ignores
asymmetric routing and selective announcement, which is exactly why it
overcounts Invalid traffic — the paper keeps it as the baseline.
"""

from __future__ import annotations

import numpy as np

from repro.bgp.rib import GlobalRIB, RIBDelta
from repro.cones.base import ValidSpaceMap


class NaiveValidSpace(ValidSpaceMap):
    """Per-AS valid prefixes from literal AS-path membership."""

    name = "naive"

    def __init__(self, rib: GlobalRIB) -> None:
        super().__init__(rib)
        self._build()

    def _build(self) -> None:
        rib = self._rib
        asns = np.asarray(rib.indexer.asns(), dtype=np.int64)
        prefix_ids, members = rib.path_member_pairs()
        rows = np.searchsorted(asns, members)
        known = rows < asns.size
        known[known] = asns[rows[known]] == members[known]
        rows, prefix_ids = rows[known], prefix_ids[known]
        row_bytes = (rib.num_prefixes + 7) // 8
        self._matrix = np.zeros((asns.size, row_bytes), dtype=np.uint8)
        np.bitwise_or.at(
            self._matrix.reshape(-1),
            rows * row_bytes + (prefix_ids >> 3),
            np.left_shift(1, prefix_ids & 7).astype(np.uint8),
        )

    def apply_delta(self, delta: RIBDelta) -> None:
        """Flip only the membership bits the delta names.

        Prefix ids are stable columns, so an announce sets and a
        withdraw clears individual (member, prefix) bits; new prefixes
        zero-pad the matrix on the right (little-endian packing keeps
        existing bit positions). Only a change to the observed AS set
        (new dense indexer) forces a rebuild.
        """
        if delta.rebuild_required:
            self._build()
            return
        width = (self._rib.num_prefixes + 7) // 8
        if width > self._matrix.shape[1]:
            grown = np.zeros(
                (self._matrix.shape[0], width), dtype=np.uint8
            )
            grown[:, : self._matrix.shape[1]] = self._matrix
            self._matrix = grown
        indexer = self._rib.indexer
        for prefix_id, asns in delta.members_added.items():
            byte = prefix_id >> 3
            mask = np.uint8(1 << (prefix_id & 7))
            for asn in asns:
                index = indexer.index_or_none(asn)
                if index is not None:
                    self._matrix[index, byte] |= mask
        for prefix_id, asns in delta.members_removed.items():
            byte = prefix_id >> 3
            keep = np.uint8(255 - (1 << (prefix_id & 7)))
            for asn in asns:
                index = indexer.index_or_none(asn)
                if index is not None:
                    self._matrix[index, byte] &= keep

    @property
    def column_kind(self) -> str:
        """Validity rows are indexed by announced-prefix column."""
        return "prefix"

    def _n_columns(self) -> int:
        return self._rib.num_prefixes

    def packed_row(self, asn: int) -> np.ndarray | None:
        """Packed prefix-validity bitmap for one AS (None if unknown)."""
        index = self._rib.indexer.index_or_none(asn)
        if index is None:
            return None
        return self._matrix[index]

    def valid_prefix_ids(self, asn: int) -> set[int]:
        """All prefix ids this AS may source, per the naive criterion."""
        return set(np.flatnonzero(self.row_bits(asn)).tolist())
