"""The common interface of the three valid-space inference approaches.

All approaches answer the same question the classifier asks (Figure 3,
last stage): *may member AS M legitimately source a packet whose
source address falls in routed prefix p originated by AS o?* The two
cone approaches answer per origin AS; Naive answers per prefix. Both
are backed by packed bit rows; :meth:`packed_matrix` stacks the rows
of many member ASes into one member×column bit matrix so the
classifier can test millions of flows with a single gather.
"""

from __future__ import annotations

import abc
from collections.abc import Sequence

import numpy as np

from repro.bgp.rib import GlobalRIB, RIBDelta


class ValidSpaceMap(abc.ABC):
    """Per-AS valid source address space, queryable in bulk."""

    #: Short approach identifier ("naive", "cc", "full", possibly with
    #: an "+orgs" suffix after the multi-AS-org merge).
    name: str

    def __init__(self, rib: GlobalRIB) -> None:
        self._rib = rib
        self._matrix_cache_key: bytes | None = None
        self._matrix_cache: np.ndarray | None = None

    @property
    def rib(self) -> GlobalRIB:
        """The global RIB this valid-space map was derived from."""
        return self._rib

    # -- subclass surface --------------------------------------------------

    @property
    @abc.abstractmethod
    def column_kind(self) -> str:
        """Either ``"origin"`` (cone approaches) or ``"prefix"`` (naive)."""

    @abc.abstractmethod
    def packed_row(self, asn: int) -> np.ndarray | None:
        """Packed uint8 validity row for ``asn`` (None if AS unknown)."""

    @abc.abstractmethod
    def _n_columns(self) -> int:
        """Number of bit columns in a row."""

    # -- shared queries ------------------------------------------------------

    @property
    def row_bytes(self) -> int:
        """Bytes per packed validity row."""
        return (self._n_columns() + 7) // 8

    def row_bits(self, asn: int) -> np.ndarray:
        """Boolean validity row for ``asn`` (all-False if unknown).

        Unpacks on every call — use :meth:`is_valid` / :meth:`valid_mask`
        (bit-sliced, no unpacking) on hot paths.
        """
        packed = self.packed_row(asn)
        n = self._n_columns()
        if packed is None:
            return np.zeros(n, dtype=bool)
        return np.unpackbits(packed, bitorder="little")[:n].astype(bool)

    def packed_matrix(self, member_asns: Sequence[int] | np.ndarray) -> np.ndarray:
        """Stacked member×column validity matrix for ``member_asns``.

        Row ``i`` is the packed validity row of ``member_asns[i]``
        (all-zero for ASes unknown to BGP, i.e. everything invalid).
        The last assembled matrix is memoised so streaming chunks with
        a stable member population pay assembly once; a route delta
        drops it (:meth:`invalidate_cache`).
        """
        members = np.asarray(member_asns, dtype=np.int64)
        key = members.tobytes()
        if key == self._matrix_cache_key and self._matrix_cache is not None:
            return self._matrix_cache
        matrix = np.zeros((members.size, self.row_bytes), dtype=np.uint8)
        for i, asn in enumerate(members.tolist()):
            row = self.packed_row(asn)
            if row is not None:
                matrix[i, : row.size] = row
        self._matrix_cache_key = key
        self._matrix_cache = matrix
        return matrix

    def is_valid(self, member_asn: int, prefix_id: int, origin_index: int) -> bool:
        """Scalar validity check for one routed source."""
        column = prefix_id if self.column_kind == "prefix" else origin_index
        if column < 0 or column >= self._n_columns():
            return False
        packed = self.packed_row(member_asn)
        if packed is None:
            return False
        return bool((packed[column >> 3] >> (column & 7)) & 1)

    def valid_mask(
        self,
        member_asn: int,
        prefix_ids: np.ndarray,
        origin_indices: np.ndarray,
    ) -> np.ndarray:
        """Vectorised validity for many routed sources of one member."""
        columns = prefix_ids if self.column_kind == "prefix" else origin_indices
        columns = np.asarray(columns, dtype=np.int64)
        mask = np.zeros(columns.shape, dtype=bool)
        packed = self.packed_row(member_asn)
        if packed is None:
            return mask
        in_range = (columns >= 0) & (columns < self._n_columns())
        cols = columns[in_range]
        mask[in_range] = ((packed[cols >> 3] >> (cols & 7)) & 1) != 0
        return mask

    def valid_slash24s(self, asn: int) -> float:
        """Size of the AS's valid address space in /24 equivalents.

        Coverage is counted on LPM-winning (exclusive) space so that
        overlapping announcements are not double counted; the number is
        consistent with what the classifier would accept.
        """
        bits = self.row_bits(asn)
        if self.column_kind == "prefix":
            weights = self._rib.exclusive_slash24s_per_prefix()
        else:
            weights = self._rib.exclusive_slash24s_per_origin()
        return float(weights[bits[: weights.size]].sum())

    def invalidate_cache(self) -> None:
        """Drop the packed validity-matrix cache (after RIB mutation)."""
        self._matrix_cache_key = None
        self._matrix_cache = None

    def state_digest(self, member_asns: Sequence[int] | np.ndarray) -> str:
        """SHA-256 over exactly what classification consumes.

        Hashes the packed validity matrix for ``member_asns`` (building
        it if not yet memoised) plus the column kind and width, so a
        checkpoint-restored map can be verified bit-for-bit against the
        digest recorded at save time — if this matches, every
        subsequent ``classify`` answer matches too.
        """
        import hashlib

        matrix = self.packed_matrix(member_asns)
        digest = hashlib.sha256()
        digest.update(
            f"{self.column_kind}:{self._n_columns()}:{matrix.shape}".encode()
        )
        digest.update(np.ascontiguousarray(matrix).tobytes())
        return digest.hexdigest()

    # -- online (delta) surface --------------------------------------------

    def apply_delta(self, delta: RIBDelta) -> None:
        """Bring this map up to date after one applied RIB delta.

        Afterwards the map answers queries against the RIB's current
        state, bit-equal to a from-scratch construction. The memoised
        packed matrix is not touched: the caller drops it with
        :meth:`invalidate_cache`. Maps without an online story keep
        this default and raise.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support online deltas"
        )
