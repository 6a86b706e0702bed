"""Tests for the three valid-space approaches and the org merge."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bgp.messages import RouteObservation
from repro.bgp.rib import GlobalRIB
from repro.cones.customer_cone import CustomerConeValidSpace
from repro.cones.full_cone import FullConeValidSpace
from repro.cones.naive import NaiveValidSpace
from repro.cones.orgs import apply_org_merge
from repro.net.prefix import Prefix


def obs(prefix, *path):
    return RouteObservation(Prefix.parse(prefix), tuple(path), "rrc00")


@pytest.fixture()
def toy_rib():
    """Two chains meeting at a T1 pair:

    paths as observed (monitor-first, origin-last):
      (10, 1, 2, 20, 200)   — origin 200 behind 20 behind T1b=2
      (20, 2, 1, 10, 100)   — origin 100 behind 10 behind T1a=1
    Prefixes: 100 → 10.0.0.0/16, 200 → 20.0.0.0/16,
              10 → 30.0.0.0/16, 20 → 40.0.0.0/16.

    Note the stubs (100, 200) are never used as monitors: a monitor
    peer is, by the method's definition, upstream of everything it
    observes, which would make a stub monitor valid for everything.
    """
    rib = GlobalRIB()
    rib.add(obs("10.0.0.0/16", 20, 2, 1, 10, 100))
    rib.add(obs("20.0.0.0/16", 10, 1, 2, 20, 200))
    rib.add(obs("30.0.0.0/16", 20, 2, 1, 10))
    rib.add(obs("40.0.0.0/16", 10, 1, 2, 20))
    return rib


class TestFullCone:
    def test_own_prefix_always_valid(self, toy_rib):
        full = FullConeValidSpace(toy_rib)
        pid, oidx = toy_rib.lookup(Prefix.parse("10.0.0.0/16").first)
        assert full.is_valid(100, pid, oidx)

    def test_upstream_valid_for_downstream(self, toy_rib):
        full = FullConeValidSpace(toy_rib)
        pid, oidx = toy_rib.lookup(Prefix.parse("10.0.0.0/16").first)
        # AS10 is upstream of origin 100 on observed paths.
        assert full.is_valid(10, pid, oidx)
        assert full.is_valid(1, pid, oidx)

    def test_unrelated_stub_invalid(self, toy_rib):
        full = FullConeValidSpace(toy_rib)
        pid, oidx = toy_rib.lookup(Prefix.parse("10.0.0.0/16").first)
        assert not full.is_valid(200, pid, oidx)

    def test_cone_asns(self, toy_rib):
        full = FullConeValidSpace(toy_rib)
        assert full.cone_asns(10) >= {10, 100}
        assert full.cone_asns(100) == {100}

    def test_extra_edges_extend_cone(self, toy_rib):
        plain = FullConeValidSpace(toy_rib)
        extended = FullConeValidSpace(toy_rib, extra_edges=[(200, 100)])
        pid, oidx = toy_rib.lookup(Prefix.parse("10.0.0.0/16").first)
        assert not plain.is_valid(200, pid, oidx)
        assert extended.is_valid(200, pid, oidx)

    def test_unknown_member_nothing_valid(self, toy_rib):
        full = FullConeValidSpace(toy_rib)
        pid, oidx = toy_rib.lookup(Prefix.parse("10.0.0.0/16").first)
        assert not full.is_valid(999, pid, oidx)
        assert full.valid_slash24s(999) == 0.0


class TestCustomerCone:
    def test_provider_valid_for_customer(self, toy_rib):
        cc = CustomerConeValidSpace(toy_rib)
        pid, oidx = toy_rib.lookup(Prefix.parse("10.0.0.0/16").first)
        assert cc.is_valid(10, pid, oidx)

    def test_cc_contained_in_full(self, toy_rib):
        cc = CustomerConeValidSpace(toy_rib)
        full = FullConeValidSpace(toy_rib)
        for asn in (1, 2, 10, 20, 100, 200):
            assert cc.valid_slash24s(asn) <= full.valid_slash24s(asn) + 1e-9

    def test_peering_not_in_customer_cone(self, toy_rib):
        # T1a (1) peers with T1b (2): 2's customers are not in 1's CC
        # ... unless inference called the link p2c; with symmetric
        # traffic in both directions it must be PEER here.
        cc = CustomerConeValidSpace(toy_rib)
        from repro.cones.relationships import InferredRelationship

        assert cc.relationships[(1, 2)] is InferredRelationship.PEER
        assert 200 not in cc.cone_asns(1)


class TestNaive:
    def test_on_path_means_valid(self, toy_rib):
        naive = NaiveValidSpace(toy_rib)
        pid = toy_rib.prefix_id(Prefix.parse("10.0.0.0/16"))
        for asn in (100, 10, 1, 2, 20):
            assert naive.is_valid(asn, pid, -1)

    def test_off_path_invalid(self, toy_rib):
        naive = NaiveValidSpace(toy_rib)
        pid = toy_rib.prefix_id(Prefix.parse("30.0.0.0/16"))
        # 100 and 200 never appear on 30/16's paths.
        assert not naive.is_valid(100, pid, -1)
        assert not naive.is_valid(200, pid, -1)

    def test_valid_prefix_ids(self, toy_rib):
        naive = NaiveValidSpace(toy_rib)
        ids = naive.valid_prefix_ids(100)
        assert toy_rib.prefix_id(Prefix.parse("10.0.0.0/16")) in ids

    def test_empty_rib(self):
        naive = NaiveValidSpace(GlobalRIB())
        assert naive._matrix.shape == (0, 0)
        assert not naive.is_valid(1, 0, -1)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 20),
                st.lists(st.sampled_from((1, 2, 3, 2**31, 2**32 - 1)),
                         min_size=1, max_size=4).map(tuple),
            ),
            max_size=40,
        ),
        st.lists(st.integers(0, 39), max_size=8),
    )
    @example([], [])
    @example([(i, (1, 2)) for i in range(9)], [])
    def test_every_bit_is_path_membership(self, routes, withdrawn):
        """Prefix counts of any width (not only multiples of 8), and
        members after withdrawals have emptied prefixes."""
        rib = GlobalRIB()
        rib.add_all(obs(f"10.{i}.0.0/16", *path) for i, path in routes)
        for j in withdrawn:
            if j < len(routes):
                i, path = routes[j]
                rib.apply(RouteObservation(
                    Prefix.parse(f"10.{i}.0.0/16"), path, "rrc00",
                    withdrawal=True,
                ))
        naive = NaiveValidSpace(rib)
        asns = rib.indexer.asns()
        assert naive._matrix.shape == (len(asns), (rib.num_prefixes + 7) // 8)
        for asn in asns:
            bits = np.unpackbits(naive.packed_row(asn), bitorder="little")
            expected = [
                asn in rib.path_members(pid) for pid in range(rib.num_prefixes)
            ]
            assert bits[: rib.num_prefixes].tolist() == expected
            assert not bits[rib.num_prefixes:].any()

    def test_naive_contained_in_full_sizes(self, toy_rib):
        naive = NaiveValidSpace(toy_rib)
        full = FullConeValidSpace(toy_rib)
        for asn in (1, 2, 10, 20, 100, 200):
            assert naive.valid_slash24s(asn) <= full.valid_slash24s(asn) + 1e-9


class TestOrgMerge:
    def test_merged_row_is_union(self, toy_rib):
        full = FullConeValidSpace(toy_rib)
        merged = apply_org_merge(full, {100: 1, 200: 1})
        pid_a, oidx_a = toy_rib.lookup(Prefix.parse("10.0.0.0/16").first)
        pid_b, oidx_b = toy_rib.lookup(Prefix.parse("20.0.0.0/16").first)
        assert merged.is_valid(100, pid_b, oidx_b)
        assert merged.is_valid(200, pid_a, oidx_a)

    def test_singleton_orgs_unchanged(self, toy_rib):
        full = FullConeValidSpace(toy_rib)
        merged = apply_org_merge(full, {100: 1, 200: 2})
        pid_b, oidx_b = toy_rib.lookup(Prefix.parse("20.0.0.0/16").first)
        assert not merged.is_valid(100, pid_b, oidx_b)

    def test_name_suffix(self, toy_rib):
        full = FullConeValidSpace(toy_rib)
        merged = apply_org_merge(full, {})
        assert merged.name == "full+orgs"

    def test_merge_never_shrinks(self, toy_rib):
        full = FullConeValidSpace(toy_rib)
        merged = apply_org_merge(full, {10: 1, 20: 1, 100: 2, 200: 2})
        for asn in (1, 2, 10, 20, 100, 200):
            assert merged.valid_slash24s(asn) >= full.valid_slash24s(asn) - 1e-9

    def test_merge_works_on_naive(self, toy_rib):
        naive = NaiveValidSpace(toy_rib)
        merged = apply_org_merge(naive, {100: 1, 200: 1})
        pid_b = toy_rib.prefix_id(Prefix.parse("20.0.0.0/16"))
        assert merged.is_valid(100, pid_b, -1)


class TestBulkConsistency:
    def test_valid_mask_matches_scalar(self, toy_rib):
        full = FullConeValidSpace(toy_rib)
        addrs = np.array(
            [
                Prefix.parse("10.0.0.0/16").first,
                Prefix.parse("20.0.0.0/16").first,
                Prefix.parse("30.0.0.0/16").first,
            ],
            dtype=np.uint64,
        )
        pids, oidx = toy_rib.lookup_many(addrs)
        for member in (1, 10, 100, 200):
            mask = full.valid_mask(member, pids, oidx)
            for i in range(len(addrs)):
                assert mask[i] == full.is_valid(member, int(pids[i]), int(oidx[i]))

    def test_negative_ids_invalid(self, toy_rib):
        full = FullConeValidSpace(toy_rib)
        mask = full.valid_mask(
            1, np.array([-1, -1]), np.array([-1, -1])
        )
        assert not mask.any()
