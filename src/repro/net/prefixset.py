"""Compressed, immutable sets of IPv4 address space.

A :class:`PrefixSet` stores address space as sorted, merged, disjoint
half-open integer intervals ``[start, end)``. This representation

* merges adjacent/overlapping prefixes automatically,
* answers single membership in O(log n) via binary search,
* answers bulk membership for numpy arrays via ``searchsorted``,
* supports union/intersection/difference by interval sweeps, and
* reports sizes in addresses or /24 equivalents (the paper's unit).

All cone-based per-AS valid-space maps bottom out in this type.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from repro.net.prefix import Prefix


def _merge_intervals(intervals: list[tuple[int, int]]) -> list[tuple[int, int]]:
    if not intervals:
        return []
    intervals.sort()
    merged: list[tuple[int, int]] = []
    cur_start, cur_end = intervals[0]
    for start, end in intervals[1:]:
        if start <= cur_end:
            cur_end = max(cur_end, end)
        else:
            merged.append((cur_start, cur_end))
            cur_start, cur_end = start, end
    merged.append((cur_start, cur_end))
    return merged


class PrefixSet:
    """An immutable set of IPv4 addresses stored as merged intervals."""

    __slots__ = ("_starts", "_ends")

    def __init__(self, prefixes: Iterable[Prefix] = ()) -> None:
        intervals = [(p.first, p.last + 1) for p in prefixes]
        merged = _merge_intervals(intervals)
        self._starts = np.array([s for s, _ in merged], dtype=np.uint64)
        self._ends = np.array([e for _, e in merged], dtype=np.uint64)

    @classmethod
    def from_intervals(cls, intervals: Iterable[tuple[int, int]]) -> PrefixSet:
        """Build from half-open ``[start, end)`` integer intervals."""
        merged = _merge_intervals([(s, e) for s, e in intervals if e > s])
        out = cls.__new__(cls)
        out._starts = np.array([s for s, _ in merged], dtype=np.uint64)
        out._ends = np.array([e for _, e in merged], dtype=np.uint64)
        return out

    @classmethod
    def universe(cls) -> PrefixSet:
        """The full IPv4 address space."""
        return cls.from_intervals([(0, 2**32)])

    # -- size / inspection ------------------------------------------------

    @property
    def num_intervals(self) -> int:
        """Number of disjoint intervals after merging."""
        return int(self._starts.size)

    @property
    def num_addresses(self) -> int:
        """Total number of addresses covered."""
        return int((self._ends - self._starts).sum())

    @property
    def slash24_equivalents(self) -> float:
        """Covered space expressed in /24 equivalents."""
        return self.num_addresses / 256.0

    def __bool__(self) -> bool:
        return self.num_intervals > 0

    def __len__(self) -> int:
        return self.num_addresses

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PrefixSet):
            return NotImplemented
        return np.array_equal(self._starts, other._starts) and np.array_equal(
            self._ends, other._ends
        )

    def __hash__(self) -> int:
        return hash((self._starts.tobytes(), self._ends.tobytes()))

    def intervals(self) -> Iterator[tuple[int, int]]:
        """Iterate the merged half-open intervals."""
        for start, end in zip(self._starts.tolist(), self._ends.tolist()):
            yield int(start), int(end)

    def prefixes(self) -> Iterator[Prefix]:
        """Decompose back into a minimal list of CIDR prefixes."""
        for start, end in self.intervals():
            yield from _interval_to_prefixes(start, end)

    # -- membership --------------------------------------------------------

    def __contains__(self, addr: int) -> bool:
        if self._starts.size == 0:
            return False
        idx = int(np.searchsorted(self._starts, addr, side="right")) - 1
        return idx >= 0 and addr < int(self._ends[idx])

    def contains_many(self, addrs: np.ndarray) -> np.ndarray:
        """Vectorised membership test for an array of address ints."""
        addrs = np.asarray(addrs, dtype=np.uint64)
        if self._starts.size == 0:
            return np.zeros(addrs.shape, dtype=bool)
        idx = np.searchsorted(self._starts, addrs, side="right") - 1
        valid = idx >= 0
        result = np.zeros(addrs.shape, dtype=bool)
        # idx[valid] is non-negative by construction, so gather the
        # ends once for just the valid rows instead of a full-size
        # gather followed by a second masked copy (RL304).
        result[valid] = addrs[valid] < self._ends[idx[valid]]
        return result

    def contains_prefix(self, prefix: Prefix) -> bool:
        """True iff the whole of ``prefix`` is covered."""
        if self._starts.size == 0:
            return False
        idx = int(np.searchsorted(self._starts, prefix.first, side="right")) - 1
        return idx >= 0 and prefix.last < int(self._ends[idx])

    def issubset(self, other: PrefixSet) -> bool:
        """True iff every address here is also in ``other``."""
        return (self & other).num_addresses == self.num_addresses

    # -- set algebra ---------------------------------------------------------

    def __or__(self, other: PrefixSet) -> PrefixSet:
        return PrefixSet.from_intervals(
            list(self.intervals()) + list(other.intervals())
        )

    def __and__(self, other: PrefixSet) -> PrefixSet:
        out: list[tuple[int, int]] = []
        a = list(self.intervals())
        b = list(other.intervals())
        i = j = 0
        while i < len(a) and j < len(b):
            start = max(a[i][0], b[j][0])
            end = min(a[i][1], b[j][1])
            if start < end:
                out.append((start, end))
            if a[i][1] < b[j][1]:
                i += 1
            else:
                j += 1
        return PrefixSet.from_intervals(out)

    def __sub__(self, other: PrefixSet) -> PrefixSet:
        out: list[tuple[int, int]] = []
        b = list(other.intervals())
        j = 0
        for start, end in self.intervals():
            cursor = start
            while j < len(b) and b[j][1] <= cursor:
                j += 1
            k = j
            while k < len(b) and b[k][0] < end:
                if b[k][0] > cursor:
                    out.append((cursor, b[k][0]))
                cursor = max(cursor, b[k][1])
                if cursor >= end:
                    break
                k += 1
            if cursor < end:
                out.append((cursor, end))
        return PrefixSet.from_intervals(out)

    def __repr__(self) -> str:
        return (
            f"PrefixSet({self.num_intervals} intervals, "
            f"{self.slash24_equivalents:.1f} /24s)"
        )


def _interval_to_prefixes(start: int, end: int) -> Iterator[Prefix]:
    """Greedy CIDR decomposition of a half-open interval."""
    while start < end:
        # Largest power-of-two block aligned at `start` that fits.
        max_align = start & -start if start else 1 << 32
        span = end - start
        block = min(max_align, 1 << (span.bit_length() - 1))
        length = 32 - (block.bit_length() - 1)
        yield Prefix(start, length)
        start += block


def union_all(sets: Iterable[PrefixSet]) -> PrefixSet:
    """Union an iterable of :class:`PrefixSet` in one merge pass."""
    intervals: list[tuple[int, int]] = []
    for prefix_set in sets:
        intervals.extend(prefix_set.intervals())
    return PrefixSet.from_intervals(intervals)
