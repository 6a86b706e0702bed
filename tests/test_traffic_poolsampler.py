"""Batched pool draws: equal to the per-entry, per-target reference.

:class:`~repro.traffic.poolsampler.PoolTable` replaces one
``Generator.choice`` per pool draw, one interval sampler per entry and
one Python iteration per destination member with whole-array kernels.
The generated traffic must not change, so the differential tests here
check that every draw returns arrays equal to the reference
implementation in ``tests/reference_traffic.py`` and leaves the
generator in an equal state. The two numpy facts the kernels rest on
are pinned in named tests of their own, so a numpy release that breaks
either fails there first.
"""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import WorldConfig, build_world
from repro.net.prefix import Prefix
from repro.traffic.forwarding import SourceEntry, SourceKind, SourcePool
from repro.traffic.poolsampler import PoolAddressSampler
from repro.traffic.regular import _draw_destinations
from repro.traffic.stray import _destination_addrs
from tests import reference_traffic as reference

# -- the numpy equivalences -------------------------------------------------


def test_numpy_choice_is_cdf_searchsorted():
    """``choice(k, size=n, p=p)`` == ``cdf.searchsorted(random(n), "right")``."""
    cases = np.random.default_rng(2024)
    for _ in range(500):
        k = int(cases.integers(1, 40))
        p = cases.random(k) * (cases.random(k) < 0.8)
        p[cases.integers(0, k)] += 0.1
        p /= p.sum()
        n = int(cases.integers(0, 200))
        seed = int(cases.integers(0, 2**32))
        via_choice = np.random.default_rng(seed)
        via_search = np.random.default_rng(seed)
        picks = via_choice.choice(k, size=n, p=p)
        cdf = p.cumsum()
        cdf /= cdf[-1]
        searched = cdf.searchsorted(via_search.random(n), side="right")
        np.testing.assert_array_equal(picks, searched)
        assert via_choice.bit_generator.state == via_search.bit_generator.state


def test_numpy_random_calls_concatenate():
    """``random(a)`` then ``random(b)`` == one ``random(a + b)``."""
    cases = np.random.default_rng(7)
    for _ in range(200):
        a, b = (int(x) for x in cases.integers(0, 300, size=2))
        seed = int(cases.integers(0, 2**32))
        split = np.random.default_rng(seed)
        whole = np.random.default_rng(seed)
        parts = np.concatenate([split.random(a), split.random(b)])
        np.testing.assert_array_equal(parts, whole.random(a + b))
        assert split.bit_generator.state == whole.bit_generator.state


# -- strategies -------------------------------------------------------------


@st.composite
def prefixes(draw):
    """Prefixes packed into two /8s, so entries overlap and touch."""
    length = draw(st.integers(8, 32))
    host = draw(st.integers(0, (1 << 24) - 1)) & ~((1 << (32 - length)) - 1)
    return Prefix((draw(st.sampled_from((10, 11))) << 24) | host, length)


entries = st.builds(
    SourceEntry,
    origin=st.integers(1, 50),
    prefixes=st.lists(prefixes(), min_size=1, max_size=4).map(tuple),
    kind=st.just(SourceKind.OWN),
    weight=st.floats(0.01, 10.0),
    hidden=st.booleans(),
)


def pools_for(members):
    """A pool (or none, or an empty one) for each member."""
    return st.tuples(
        *[
            st.one_of(
                st.none(),
                st.just([]),
                st.lists(entries, min_size=1, max_size=6),
            )
            for _ in members
        ]
    ).map(
        lambda lists: {
            asn: SourcePool(member=asn, entries=entry_list)
            for asn, entry_list in zip(members, lists)
            if entry_list is not None
        }
    )


def assert_same_draw(new, old, new_rng, old_rng):
    for mine, theirs in zip(new, old):
        assert mine.dtype == theirs.dtype
        np.testing.assert_array_equal(mine, theirs)
    assert new_rng.bit_generator.state == old_rng.bit_generator.state


def run_both(new_call, old_call, seed):
    """Run both with equal generators; both raise ValueError or neither."""
    new_rng = np.random.default_rng(seed)
    old_rng = np.random.default_rng(seed)
    try:
        old = old_call(old_rng)
    except ValueError:
        with pytest.raises(ValueError):
            new_call(new_rng)
        return
    assert_same_draw(new_call(new_rng), old, new_rng, old_rng)


MEMBERS = [101, 102, 103, 104, 105, 106]


# -- differential tests ------------------------------------------------------


class TestMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(
        pool_entries=st.lists(entries, min_size=1, max_size=8),
        n=st.integers(0, 300),
        visible_only=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_sample(self, pool_entries, n, visible_only, seed):
        pool = SourcePool(member=7, entries=pool_entries)
        run_both(
            lambda rng: PoolAddressSampler().sample(rng, pool, n, visible_only),
            lambda rng: reference.PoolAddressSampler().sample(
                rng, pool, n, visible_only
            ),
            seed,
        )

    @settings(max_examples=150, deadline=None)
    @given(
        pools=pools_for(MEMBERS),
        member=st.sampled_from(MEMBERS),
        weights=st.lists(
            st.floats(0.01, 5.0), min_size=len(MEMBERS), max_size=len(MEMBERS)
        ),
        n=st.integers(0, 400),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_draw_destinations(self, pools, member, weights, n, seed):
        weight_vector = np.array(weights)
        targets = PoolAddressSampler().span([pools.get(m) for m in MEMBERS])
        run_both(
            lambda rng: _draw_destinations(
                rng, member, MEMBERS, weight_vector, targets, n
            ),
            lambda rng: reference.draw_destinations(
                rng, member, MEMBERS, weight_vector, pools,
                reference.PoolAddressSampler(), n,
            ),
            seed,
        )

    @settings(max_examples=100, deadline=None)
    @given(
        pools=pools_for(MEMBERS),
        dst_member=st.lists(st.sampled_from(MEMBERS), max_size=200),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stray_destination_addrs(self, pools, dst_member, seed):
        dst = np.array(dst_member, dtype=np.int64)
        run_both(
            lambda rng: (
                _destination_addrs(rng, dst, pools, PoolAddressSampler()),
            ),
            lambda rng: (
                reference.destination_addrs(
                    rng, dst, pools, reference.PoolAddressSampler()
                ),
            ),
            seed,
        )


# -- regressions -------------------------------------------------------------


def _pool(member, origin, prefix, hidden=False):
    return SourcePool(
        member=member,
        entries=[
            SourceEntry(
                origin, (Prefix.parse(prefix),), SourceKind.OWN, 1.0,
                hidden=hidden,
            )
        ],
    )


def test_second_pool_of_a_member_gets_its_own_table():
    sampler = PoolAddressSampler()
    rng = np.random.default_rng(1)
    sampler.sample(rng, _pool(10, 10, "60.0.0.0/16"), 3)
    addrs, origins, _hidden = sampler.sample(
        rng, _pool(10, 99, "70.0.0.0/16"), 3
    )
    assert (origins == 99).all()
    assert ((addrs >> 16) == (70 << 8)).all()


def test_all_hidden_pool_rejected_for_visible_draws():
    pool = _pool(10, 88, "62.0.0.0/24", hidden=True)
    sampler = PoolAddressSampler()
    with pytest.raises(ValueError, match="no visible pool entries"):
        sampler.sample(np.random.default_rng(0), pool, 4, visible_only=True)
    with pytest.raises(ValueError, match="no visible pool entries"):
        sampler.destinations(
            np.random.default_rng(0), np.zeros(4, dtype=np.int64), [pool]
        )


def test_zero_weight_pool_rejected():
    pool = _pool(10, 10, "60.0.0.0/16")
    pool.entries[0] = dataclasses.replace(pool.entries[0], weight=0.0)
    with pytest.raises(ValueError, match="not all zero"):
        PoolAddressSampler().sample(np.random.default_rng(0), pool, 4)


def test_one_member_ixp_rejected_before_any_draw():
    config = dataclasses.replace(WorldConfig.tiny(42), n_members=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="at least two members"):
            build_world(config)
