"""Randomized delta-vs-rebuild parity for the online pipeline state.

The incremental path's contract is exact: after any sequence of
announce/withdraw deltas, the patched finalized RIB views, the
reachability closure, and every cone approach's packed validity
matrix must be *bit-equal* to a from-scratch rebuild over the same
live routes. These tests drive random adversarial event sequences
(route kills, resurrections, duplicate withdrawals, MOAS origin
flips, org-sibling churn) and compare at every step.
"""

from __future__ import annotations

from itertools import groupby

import numpy as np
import pytest

from repro.bgp.messages import RouteObservation
from repro.bgp.rib import GlobalRIB, _FinalizedRIB
from repro.cones.customer_cone import CustomerConeValidSpace
from repro.cones.full_cone import FullConeValidSpace
from repro.cones.naive import NaiveValidSpace
from repro.cones.orgs import apply_org_merge
from repro.net.prefix import Prefix
from repro.stream import OnlineValidState


def obs(prefix, *path, withdrawal=False):
    return RouteObservation(
        prefix=Prefix.parse(prefix),
        path=tuple(path),
        source="rrc00",
        from_update=True,
        withdrawal=withdrawal,
    )


def assert_finalized_parity(rib: GlobalRIB) -> None:
    """The (possibly patched) finalized view == a from-scratch build."""
    patched = rib._final()
    fresh = _FinalizedRIB(rib)
    assert patched.indexer.asns() == fresh.indexer.asns()
    np.testing.assert_array_equal(patched._seg_starts, fresh._seg_starts)
    np.testing.assert_array_equal(patched._seg_prefix, fresh._seg_prefix)
    np.testing.assert_array_equal(
        patched._origin_index_per_prefix, fresh._origin_index_per_prefix
    )
    np.testing.assert_array_equal(
        patched.exclusive_per_prefix, fresh.exclusive_per_prefix
    )
    np.testing.assert_array_equal(
        patched.exclusive_per_origin, fresh.exclusive_per_origin
    )
    np.testing.assert_array_equal(
        patched.routed_space._starts, fresh.routed_space._starts
    )
    np.testing.assert_array_equal(
        patched.routed_space._ends, fresh.routed_space._ends
    )


#: Prefixes nested in and around the fuzzer's /16s: a covering /8 and
#: /24s at the start, end and middle of a /16 and outside any /16, so
#: deltas move address space between covering and more-specific
#: prefixes.
NESTED_PREFIXES = (
    "10.0.0.0/8", "10.0.0.0/24", "10.0.255.0/24", "10.200.3.0/24",
    "11.0.7.0/24",
)


class EventFuzzer:
    """Random announce/withdraw generator over a small AS/prefix pool:
    ``n_prefixes`` disjoint /16s plus :data:`NESTED_PREFIXES`."""

    def __init__(self, rng, n_asns=24, n_prefixes=14):
        self.rng = rng
        self.asns = list(range(1, n_asns + 1))
        self.prefixes = [
            f"{10 + i}.0.0.0/16" for i in range(n_prefixes)
        ] + list(NESTED_PREFIXES)
        self.live: list[tuple[str, tuple[int, ...]]] = []

    def random_path(self) -> tuple[int, ...]:
        """A loop-free path, sometimes a live one's hops again; a
        quarter of the hops are prepended, so distinct raw paths
        collapse to one."""
        if self.live and self.rng.random() < 0.3:
            live_path = self.live[int(self.rng.integers(len(self.live)))][1]
            hops = [asn for asn, _ in groupby(live_path)]
        else:
            length = int(self.rng.integers(2, 5))
            picked = self.rng.choice(len(self.asns), size=length, replace=False)
            hops = [self.asns[i] for i in picked]
        prepend = self.rng.random(len(hops)) < 0.25
        times = np.where(prepend, self.rng.integers(2, 4, len(hops)), 1)
        return tuple(
            asn for asn, n in zip(hops, times.tolist()) for _ in range(n)
        )

    def next_event(self) -> RouteObservation:
        roll = self.rng.random()
        if roll < 0.40 or not self.live:
            # Fresh announcement (sometimes a duplicate of a live one).
            prefix = self.prefixes[self.rng.integers(len(self.prefixes))]
            path = self.random_path()
            self.live.append((prefix, path))
            return obs(prefix, *path)
        if roll < 0.80:
            # Withdraw a live route (may already be gone: duplicates
            # in self.live model duplicate withdrawals).
            index = int(self.rng.integers(len(self.live)))
            prefix, path = self.live.pop(index)
            return obs(prefix, *path, withdrawal=True)
        # Withdrawal of a route that may never have been announced.
        prefix = self.prefixes[self.rng.integers(len(self.prefixes))]
        return obs(prefix, *self.random_path(), withdrawal=True)


class TestFinalizedRIBParity:
    @pytest.mark.parametrize("seed", [7, 19, 311])
    def test_random_event_sequence(self, seed):
        rng = np.random.default_rng(seed)
        fuzzer = EventFuzzer(rng)
        rib = GlobalRIB()
        rib._final()  # build once, then keep patching it
        applied = 0
        for _ in range(120):
            delta = rib.apply(fuzzer.next_event())
            applied += int(delta.applied)
            assert_finalized_parity(rib)
            assert rib.num_withdrawals == (
                rib.num_withdrawals_applied + rib.num_withdrawals_ignored
            )
            assert (
                rib.num_accepted - rib.num_withdrawals_applied
                == rib.num_live_routes
            )
        assert applied > 40, "fuzzer should exercise the delta path"

    def test_kill_and_resurrect_every_prefix(self):
        rib = GlobalRIB()
        routes = [
            ("10.0.0.0/16", (1, 2, 3)),
            ("10.0.0.0/17", (1, 4)),  # more-specific carve-out
            ("10.0.128.0/17", (2, 3)),
            ("20.0.0.0/16", (4, 2, 3)),
        ]
        for prefix, path in routes:
            rib.apply(obs(prefix, *path))
        rib._final()
        for prefix, path in routes:
            rib.apply(obs(prefix, *path, withdrawal=True))
            assert_finalized_parity(rib)
        assert rib.num_live_routes == 0
        assert rib.routed_space().num_addresses == 0
        for prefix, path in routes:
            rib.apply(obs(prefix, *path))
            assert_finalized_parity(rib)


def build_approaches(rib, org_mapping):
    naive = NaiveValidSpace(rib)
    cc = CustomerConeValidSpace(rib)
    full = FullConeValidSpace(rib)
    return {
        "naive": naive,
        "cc": cc,
        "full": full,
        "naive+orgs": apply_org_merge(naive, org_mapping),
        "cc+orgs": apply_org_merge(cc, org_mapping),
        "full+orgs": apply_org_merge(full, org_mapping),
    }


class TestConeDeltaParity:
    """All six approaches stay bit-equal to from-scratch maps."""

    @pytest.mark.parametrize("seed", [11, 97])
    def test_random_stream(self, seed):
        rng = np.random.default_rng(seed)
        fuzzer = EventFuzzer(rng, n_asns=24, n_prefixes=12)
        # Org siblings: groups of three consecutive ASNs share an org.
        org_mapping = {asn: (asn - 1) // 3 for asn in fuzzer.asns}
        members = tuple(fuzzer.asns[::2]) + (999,)  # incl. unknown AS

        rib = GlobalRIB()
        for _ in range(30):  # seed state before the maps exist
            rib.apply(fuzzer.next_event())
        approaches = build_approaches(rib, org_mapping)
        state = OnlineValidState(rib, approaches)
        for approach in approaches.values():
            approach.packed_matrix(members)  # warm the caches

        checked = 0
        for step in range(150):
            state.apply_route(fuzzer.next_event())
            if step % 5:
                continue
            fresh = build_approaches(rib, org_mapping)
            assert approaches["cc"].relationships == fresh["cc"].relationships
            for name, approach in approaches.items():
                np.testing.assert_array_equal(
                    approach.packed_matrix(members),
                    fresh[name].packed_matrix(members),
                    err_msg=f"approach {name} diverged at step {step}",
                )
            checked += 1
        assert checked >= 30
        assert state.n_applied > 50

    def test_ignored_event_touches_nothing(self):
        rib = GlobalRIB()
        rib.apply(obs("10.0.0.0/16", 1, 2, 3))
        approaches = build_approaches(rib, {1: 1, 2: 1, 3: 2})
        state = OnlineValidState(rib, approaches)
        members = (1, 2, 3)
        matrices = {
            name: approach.packed_matrix(members)
            for name, approach in approaches.items()
        }
        delta = state.apply_route(obs("99.0.0.0/16", 1, 2, withdrawal=True))
        assert not delta.applied
        assert state.n_ignored == 1 and state.n_applied == 0
        for name, approach in approaches.items():
            # Identity: the memoised matrix must not even be rebuilt.
            assert approach.packed_matrix(members) is matrices[name]

    def test_org_sibling_patch_propagates(self):
        # AS 5 and AS 6 share an org; a delta touching only AS 6's
        # row must refresh AS 5's merged row too.
        rib = GlobalRIB()
        rib.apply(obs("10.0.0.0/16", 5, 1))
        rib.apply(obs("20.0.0.0/16", 6, 2))
        mapping = {5: 77, 6: 77, 1: 1, 2: 2}
        approaches = build_approaches(rib, mapping)
        state = OnlineValidState(rib, approaches)
        members = (5, 6)
        merged = approaches["full+orgs"]
        merged.packed_matrix(members)
        state.apply_route(obs("20.0.0.0/16", 6, 1))  # grow AS 6's cone
        fresh = build_approaches(rib, mapping)["full+orgs"]
        np.testing.assert_array_equal(
            merged.packed_matrix(members), fresh.packed_matrix(members)
        )
        # Sibling symmetry really holds: 5's row covers 6's space.
        np.testing.assert_array_equal(
            merged.packed_matrix(members)[0], merged.packed_matrix(members)[1]
        )
