"""Vectorised sampling of addresses from member source pools.

Every pool is flattened once into a :class:`PoolTable`: its entry CDFs,
origins, hidden flags and every entry's address intervals as flat
arrays. A draw is then a handful of whole-array numpy calls, whatever
the number of entries or pools involved. Draws consume the generator
exactly as one ``Generator.choice(p=...)`` over the entries followed by
one uniform draw per picked entry (in ascending entry order) would,
so the generated traffic does not depend on how it is computed. Two
numpy facts make that possible (``tests/test_traffic_poolsampler.py``
pins both):

* ``Generator.choice(k, size=n, p=p)`` is
  ``cdf.searchsorted(random(n), side="right")`` with
  ``cdf = p.cumsum(); cdf /= cdf[-1]``;
* ``random(a)`` followed by ``random(b)`` equals one ``random(a + b)``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.traffic.forwarding import SourcePool

#: Bits an entry index is shifted by in an interval search key. An
#: entry's cumulative interval sizes are integers at most ``2**32``
#: (the IPv4 space), so ``(entry << 34) + floor(offset)`` is exact.
_ENTRY_SHIFT = 34

#: Destination addresses for a member without a source pool: uniform
#: over 1.0.0.0 – 222.255.255.255.
_POOLLESS_LOW, _POOLLESS_HIGH = 1 << 24, 223 << 24


def _choice_cdf(weights: np.ndarray) -> np.ndarray:
    """The CDF ``Generator.choice`` builds from probabilities ``weights``."""
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    return cdf


class PoolTable:
    """Flattened sampling tables of a sequence of pools ("groups").

    Group ``g``'s entries are ``entry_start[g]:entry_start[g + 1]``
    (none for a pool-less group, whose rows fall back to uniform
    addresses). Entry choice is weighted by
    ``entry.weight * sqrt(address_space_size)`` so that bigger customers
    emit proportionally more traffic, then an address is drawn
    uniformly inside the chosen entry's prefixes.
    """

    def __init__(
        self,
        pools: Sequence[SourcePool | None],
        entry_start: np.ndarray,
        cdf: np.ndarray,
        visible_cdf: np.ndarray,
        has_visible: np.ndarray,
        origins: np.ndarray,
        hidden: np.ndarray,
        totals: np.ndarray,
        iv_entry: np.ndarray,
        iv_cum: np.ndarray,
        iv_start: np.ndarray,
        iv_base: np.ndarray,
    ) -> None:
        self.pools = tuple(pools)
        self.entry_start = entry_start
        self.cdf = cdf
        self.visible_cdf = visible_cdf
        self.has_visible = has_visible
        self.origins = origins
        self.hidden = hidden
        self.totals = totals
        self.iv_entry = iv_entry
        self.iv_cum = iv_cum
        self.iv_start = iv_start
        self.iv_base = iv_base
        self.pooled = np.diff(entry_start) > 0
        self._iv_keys = (iv_entry << _ENTRY_SHIFT) + iv_cum
        entry_group = np.repeat(
            np.arange(len(self.pools), dtype=np.int64), np.diff(entry_start)
        )
        self._rank_shift = int(cdf.size + 1).bit_length()
        self._all = self._cdf_keys(cdf, entry_group)
        self._visible = self._cdf_keys(visible_cdf, entry_group)

    def _cdf_keys(
        self, cdf: np.ndarray, entry_group: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact integer keys for a segmented search over per-group CDFs.

        Each CDF value is replaced by its rank among the distinct values
        (``c <= u`` iff ``rank(c) <= rank(u)``), so no float arithmetic
        touches a comparison; the group goes in the high bits.
        """
        values = np.unique(cdf)
        ranks = values.searchsorted(cdf, side="right")
        return values, (entry_group << self._rank_shift) + ranks

    @classmethod
    def from_pool(cls, pool: SourcePool) -> PoolTable:
        """The one-group table of ``pool``."""
        entries = pool.entries
        if not entries:
            raise ValueError(f"member AS{pool.member} has an empty source pool")
        weights = np.array(
            [
                entry.weight
                * sum(p.num_addresses for p in entry.prefixes) ** 0.5
                for entry in entries
            ]
        )
        if not (np.isfinite(weights).all() and (weights >= 0).all()
                and weights.sum() > 0):
            raise ValueError(
                f"AS{pool.member}: pool entry weights must be finite, "
                "non-negative and not all zero"
            )
        weights /= weights.sum()
        hidden = np.array([entry.hidden for entry in entries])
        visible = np.where(hidden, 0.0, weights)
        has_visible = bool(visible.sum() > 0)
        visible_cdf = (
            _choice_cdf(visible / visible.sum())
            if has_visible
            else np.ones(len(entries))
        )
        iv_entry, iv_cum, iv_start, iv_base, totals = _entry_intervals(pool)
        return cls(
            (pool,),
            np.array([0, len(entries)], dtype=np.int64),
            _choice_cdf(weights),
            visible_cdf,
            np.array([has_visible]),
            np.array([entry.origin for entry in entries], dtype=np.int64),
            hidden,
            totals,
            iv_entry,
            iv_cum,
            iv_start,
            iv_base,
        )

    @classmethod
    def concat(cls, tables: Sequence[PoolTable | None]) -> PoolTable:
        """One table spanning ``tables`` in order (``None``: pool-less)."""
        parts = [t for t in tables if t is not None]
        sizes = [0 if t is None else t.cdf.size for t in tables]
        offsets = np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))
        part_offsets = offsets[:-1][[t is not None for t in tables]]

        def cat(name: str, dtype: type) -> np.ndarray:
            return np.concatenate(
                [getattr(t, name) for t in parts] or [np.empty(0, dtype)]
            )

        return cls(
            [None if t is None else t.pools[0] for t in tables],
            offsets,
            cat("cdf", np.float64),
            cat("visible_cdf", np.float64),
            np.array(
                [t is not None and bool(t.has_visible[0]) for t in tables],
                dtype=bool,
            ),
            cat("origins", np.int64),
            cat("hidden", bool),
            cat("totals", np.float64),
            np.concatenate(
                [t.iv_entry + off for t, off in zip(parts, part_offsets)]
                or [np.empty(0, np.int64)]
            ),
            cat("iv_cum", np.int64),
            cat("iv_start", np.float64),
            cat("iv_base", np.float64),
        )

    def draw(
        self,
        rng: np.random.Generator,
        groups: np.ndarray,
        visible_only: bool = False,
    ) -> tuple[np.ndarray, np.ndarray]:
        """One address per row of ``groups`` (group indices).

        Returns ``(entries, addrs)``; ``entries`` is -1 for rows of a
        pool-less group. The generator advances exactly as a loop over
        the present groups in ascending order would: per pooled group of
        ``c`` rows, ``choice`` over its entries, then ``random(c)`` for
        the addresses in ascending entry order; per pool-less group,
        ``integers`` over 1.0.0.0/8 – 222.255.255.255. The uniform draws
        are batched into one ``random`` call, split only around the
        pool-less groups.
        """
        groups = np.asarray(groups, dtype=np.int64)
        n = groups.size
        counts = np.bincount(groups, minlength=len(self.pools))
        present = counts > 0
        if visible_only:
            empty = np.flatnonzero(present & self.pooled & ~self.has_visible)
            if empty.size:
                member = self.pools[int(empty[0])].member
                raise ValueError(f"AS{member}: no visible pool entries")
        pooled_counts = np.where(self.pooled, counts, 0)
        first = np.cumsum(pooled_counts) - pooled_counts
        order = np.argsort(groups, kind="stable")
        rows = order[self.pooled[groups[order]]]
        row_group = groups[rows]
        m = rows.size

        addrs = np.empty(n, dtype=np.uint64)
        uniforms = np.empty(2 * m)
        drawn = 0
        for group in np.flatnonzero(present & ~self.pooled):
            stop = 2 * int(first[group])
            uniforms[drawn:stop] = rng.random(stop - drawn)
            drawn = stop
            addrs[groups == group] = rng.integers(
                _POOLLESS_LOW, _POOLLESS_HIGH, size=int(counts[group]),
                dtype=np.uint64,
            )
        uniforms[drawn:] = rng.random(2 * m - drawn)

        # A group's 2c uniforms: c entry picks in row order, then c
        # address offsets in (entry, row) order.
        position = np.arange(m)
        entry = self._pick(
            row_group, uniforms[first[row_group] + position], visible_only
        )
        by_entry = np.argsort(entry, kind="stable")
        entry = entry[by_entry]
        row_group = row_group[by_entry]
        rows = rows[by_entry]
        addrs[rows] = self._address(
            entry,
            uniforms[first[row_group] + counts[row_group] + position],
        )
        entries = np.full(n, -1, dtype=np.int64)
        entries[rows] = entry
        return entries, addrs

    def _pick(
        self, group: np.ndarray, uniforms: np.ndarray, visible_only: bool
    ) -> np.ndarray:
        """Entry index per row: ``cdf.searchsorted(u, side="right")`` in
        the row's group, as one exact segmented search."""
        values, keys = self._visible if visible_only else self._all
        ranks = values.searchsorted(uniforms, side="right")
        return keys.searchsorted(
            (group << self._rank_shift) + ranks, side="right"
        )

    def _address(self, entry: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
        """A uniform address inside each row's entry, computed as
        :class:`~repro.net.sampling.IntervalSampler` does."""
        offsets = uniforms * self.totals[entry]
        slots = self._iv_keys.searchsorted(
            (entry << _ENTRY_SHIFT) + offsets.astype(np.int64), side="right"
        )
        return (self.iv_start[slots] + (offsets - self.iv_base[slots])).astype(
            np.uint64
        )


def _entry_intervals(
    pool: SourcePool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every entry's merged address intervals, flattened.

    Merges each entry's prefixes the way
    :class:`~repro.net.prefixset.PrefixSet` does (overlapping and
    adjacent ranges join). Returns ``(iv_entry, iv_cum, iv_start,
    iv_base, totals)``: per interval its entry, the entry's cumulative
    size up to its end, its start and the cumulative size before it;
    per entry its total size.
    """
    entry_of, firsts, ends = [], [], []
    for index, entry in enumerate(pool.entries):
        for prefix in entry.prefixes:
            entry_of.append(index)
            firsts.append(prefix.first)
            ends.append(prefix.last + 1)
    base = np.array(entry_of, dtype=np.int64) << _ENTRY_SHIFT
    lo = base + np.array(firsts, dtype=np.int64)
    hi = base + np.array(ends, dtype=np.int64)
    order = np.argsort(lo, kind="stable")
    lo, hi = lo[order], hi[order]
    reach = np.maximum.accumulate(hi)
    opens = np.ones(lo.size, dtype=bool)
    opens[1:] = lo[1:] > reach[:-1]
    starts = lo[opens]
    closes = np.append(np.flatnonzero(opens)[1:] - 1, lo.size - 1)
    iv_entry = starts >> _ENTRY_SHIFT
    sizes = reach[closes] - starts
    iv_cum = np.cumsum(sizes)
    entry_first = np.flatnonzero(np.diff(iv_entry, prepend=-1))
    iv_cum -= np.repeat(iv_cum[entry_first] - sizes[entry_first],
                        np.diff(np.append(entry_first, iv_cum.size)))
    entry_last = np.append(entry_first[1:] - 1, iv_cum.size - 1)
    totals = np.zeros(len(pool.entries))
    totals[iv_entry[entry_last]] = iv_cum[entry_last]
    return (
        iv_entry,
        iv_cum,
        (starts - (iv_entry << _ENTRY_SHIFT)).astype(np.float64),
        (iv_cum - sizes).astype(np.float64),
        totals,
    )


class PoolAddressSampler:
    """Draws (address, origin, hidden) tuples from member pools.

    Holds one :class:`PoolTable` per pool. A table is reused only for
    the pool object it was built from (the cache keeps that pool): a
    different pool of the same member gets a table of its own.
    """

    def __init__(self) -> None:
        self._tables: dict[int, tuple[SourcePool, PoolTable]] = {}

    def table(self, pool: SourcePool) -> PoolTable:
        """The cached one-group table of ``pool``."""
        cached = self._tables.get(pool.member)
        if cached is None or cached[0] is not pool:
            cached = (pool, PoolTable.from_pool(pool))
            self._tables[pool.member] = cached
        return cached[1]

    def span(self, pools: Sequence[SourcePool | None]) -> PoolTable:
        """One table over ``pools`` in order; ``None`` or an empty pool
        makes a pool-less group."""
        return PoolTable.concat(
            [self.table(pool) if pool is not None and pool.entries else None
             for pool in pools]
        )

    def sample(
        self,
        rng: np.random.Generator,
        pool: SourcePool,
        n: int,
        visible_only: bool = False,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Draw ``n`` sources: returns (addrs, origin_asns, hidden_mask)."""
        table = self.table(pool)
        if visible_only and not table.has_visible[0]:
            raise ValueError(f"AS{pool.member}: no visible pool entries")
        entries, addrs = table.draw(
            rng, np.zeros(n, dtype=np.int64), visible_only
        )
        return addrs, table.origins[entries], table.hidden[entries]

    def destinations(
        self,
        rng: np.random.Generator,
        groups: np.ndarray,
        pools: Sequence[SourcePool | None],
    ) -> np.ndarray:
        """An address in the visible pool of each row's destination.

        ``groups`` indexes ``pools``; a destination without a pool gets
        a uniform address instead.
        """
        return self.span(pools).draw(rng, groups, visible_only=True)[1]
