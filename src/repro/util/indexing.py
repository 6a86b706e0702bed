"""Dense integer indexing for ASNs.

Cone computation and bulk classification work on packed numpy bit
matrices, which need dense 0-based indices rather than sparse ASNs.
:class:`AsnIndexer` is the bidirectional mapping used everywhere.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np


def int_bincount(
    indices: np.ndarray, weights: np.ndarray, minlength: int = 0
) -> np.ndarray:
    """Exact count-weighted bincount with an int64 accumulator.

    ``np.bincount(..., weights=...)`` accumulates into a float64
    temporary — an extra full-size allocation, and silent loss of
    exactness past 2**53 (RL304 flags the round-trip). Folding the
    integer weights with ``np.add.at`` is bit-exact and measurably
    faster (no float conversion, no ``astype`` copy back).
    """
    length = int(minlength)
    if indices.size:
        length = max(length, int(indices.max()) + 1)
    out = np.zeros(length, dtype=np.int64)
    np.add.at(out, indices.astype(np.intp, copy=False), weights)
    return out


def distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct ``values``: ``np.unique(values)``.

    ``np.unique`` without a ``return_*`` flag takes a hash path that is
    many times slower than this sort on int64 keys (numpy 2.4).
    """
    values = np.sort(values)
    keep = np.ones(values.size, dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def csr_positions(offsets: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Flat positions of rows ``rows`` of a CSR table, row after row.

    Row ``i`` spans ``offsets[i]:offsets[i + 1]``; ``rows`` may repeat.
    """
    starts = offsets[rows]
    lengths = offsets[rows + 1] - starts
    before = np.cumsum(lengths) - lengths
    return np.repeat(starts - before, lengths) + np.arange(
        int(lengths.sum()), dtype=np.int64
    )


class AsnIndexer:
    """Bidirectional dense-index mapping for a fixed set of ASNs."""

    def __init__(self, asns: Iterable[int]) -> None:
        self._asns = sorted(set(asns))
        self._index = {asn: i for i, asn in enumerate(self._asns)}

    def __len__(self) -> int:
        return len(self._asns)

    def __contains__(self, asn: int) -> bool:
        return asn in self._index

    def index(self, asn: int) -> int:
        """Dense index of ``asn`` (KeyError if unknown)."""
        return self._index[asn]

    def index_or_none(self, asn: int) -> int | None:
        return self._index.get(asn)

    def asn(self, index: int) -> int:
        """ASN at dense ``index``."""
        return self._asns[index]

    def asns(self) -> list[int]:
        """All ASNs in index order."""
        return list(self._asns)

    def indices_of(self, asns: Iterable[int]) -> np.ndarray:
        """Vector of dense indices for ``asns`` (unknown ASNs → -1)."""
        return np.array([self._index.get(a, -1) for a in asns], dtype=np.int64)
