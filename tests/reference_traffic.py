"""Reference pool sampling: the per-entry, per-target implementation.

These are ``PoolAddressSampler``, ``regular._draw_destinations`` and
``stray._destination_addrs`` as they were before pool draws became
whole-array kernels over a flattened
:class:`~repro.traffic.poolsampler.PoolTable`, kept unchanged as an
independent oracle: one ``Generator.choice`` per pool draw, one
:class:`~repro.net.sampling.IntervalSampler` per entry and one Python
iteration per destination member. The kernels must return equal arrays
and leave the generator in an equal state.

The pool cache here is keyed by ``pool.member`` (the historical
behaviour): give every sampler instance at most one pool per member.
"""

from __future__ import annotations

import numpy as np

from repro.net.prefixset import PrefixSet
from repro.traffic.addressing import IntervalSampler
from repro.traffic.forwarding import SourceEntry, SourcePool


class PoolAddressSampler:
    """Draws (address, origin, hidden) tuples from member pools.

    Entry choice is weighted by ``entry.weight * address_space_size``
    so that bigger customers emit proportionally more traffic, then an
    address is drawn uniformly inside the chosen entry's prefixes.
    """

    def __init__(self) -> None:
        self._entry_samplers: dict[int, IntervalSampler] = {}
        self._pool_cache: dict[int, tuple[list[SourceEntry], np.ndarray]] = {}

    def _pool_distribution(
        self, pool: SourcePool
    ) -> tuple[list[SourceEntry], np.ndarray]:
        cached = self._pool_cache.get(pool.member)
        if cached is not None:
            return cached
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
        weights /= weights.sum()
        self._pool_cache[pool.member] = (entries, weights)
        return entries, weights

    def _sampler_for(self, entry: SourceEntry) -> IntervalSampler:
        sampler = self._entry_samplers.get(id(entry))
        if sampler is None:
            sampler = IntervalSampler(PrefixSet(entry.prefixes))
            self._entry_samplers[id(entry)] = sampler
        return sampler

    def sample(
        self,
        rng: np.random.Generator,
        pool: SourcePool,
        n: int,
        visible_only: bool = False,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Draw ``n`` sources: returns (addrs, origin_asns, hidden_mask)."""
        entries, weights = self._pool_distribution(pool)
        if visible_only:
            visible = np.array([not e.hidden for e in entries])
            if not visible.any():
                raise ValueError(f"AS{pool.member}: no visible pool entries")
            weights = np.where(visible, weights, 0.0)
            weights = weights / weights.sum()
        picks = rng.choice(len(entries), size=n, p=weights)
        addrs = np.empty(n, dtype=np.uint64)
        origins = np.empty(n, dtype=np.int64)
        hidden = np.zeros(n, dtype=bool)
        for entry_index in np.unique(picks):
            entry = entries[entry_index]
            mask = picks == entry_index
            count = int(mask.sum())
            addrs[mask] = self._sampler_for(entry).sample(rng, count)
            origins[mask] = entry.origin
            hidden[mask] = entry.hidden
        return addrs, origins, hidden


def draw_destinations(
    rng: np.random.Generator,
    member: int,
    member_list: list[int],
    weights: np.ndarray,
    pools: dict[int, SourcePool],
    pool_sampler: PoolAddressSampler,
    n: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Destination member (weighted, != ingress) and an address inside
    that member's visible pool."""
    probs = weights.copy()
    self_index = member_list.index(member)
    probs[self_index] = 0.0
    probs = probs / probs.sum()
    picks = rng.choice(len(member_list), size=n, p=probs)
    dst = np.empty(n, dtype=np.uint64)
    dst_member = np.empty(n, dtype=np.int64)
    for index in np.unique(picks):
        mask = picks == index
        count = int(mask.sum())
        target = member_list[index]
        dst_member[mask] = target
        pool = pools.get(target)
        if pool is None or not pool.entries:
            dst[mask] = rng.integers(1 << 24, 223 << 24, size=count, dtype=np.uint64)
            continue
        addrs, _origins, _hidden = pool_sampler.sample(
            rng, pool, count, visible_only=True
        )
        dst[mask] = addrs
    return dst, dst_member


def destination_addrs(
    rng: np.random.Generator,
    dst_member: np.ndarray,
    pools: dict[int, SourcePool],
    pool_sampler: PoolAddressSampler,
) -> np.ndarray:
    """Addresses inside each destination member's visible pool."""
    dst = np.empty(dst_member.size, dtype=np.uint64)
    for target in np.unique(dst_member):
        mask = dst_member == target
        count = int(mask.sum())
        pool = pools.get(int(target))
        if pool is None or not pool.entries:
            dst[mask] = rng.integers(1 << 24, 223 << 24, size=count, dtype=np.uint64)
            continue
        addrs, _origins, _hidden = pool_sampler.sample(
            rng, pool, count, visible_only=True
        )
        dst[mask] = addrs
    return dst
