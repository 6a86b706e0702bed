"""Tests for the global RIB."""

import numpy as np
import pytest

from repro.bgp.messages import RouteObservation
from repro.bgp.rib import MAX_PLEN, MIN_PLEN, GlobalRIB
from repro.net.addr import addr_to_int
from repro.net.prefix import Prefix


def obs(prefix: str, *path: int, source="rrc00", ts=0, update=False):
    return RouteObservation(
        prefix=Prefix.parse(prefix),
        path=tuple(path),
        source=source,
        timestamp=ts,
        from_update=update,
    )


def wd(prefix: str, *path: int, source="rrc00", ts=0):
    return RouteObservation(
        prefix=Prefix.parse(prefix),
        path=tuple(path),
        source=source,
        timestamp=ts,
        from_update=True,
        withdrawal=True,
    )


@pytest.fixture()
def rib():
    r = GlobalRIB()
    r.add(obs("10.0.0.0/16", 100, 200, 300))
    r.add(obs("10.0.0.0/16", 101, 200, 300))
    r.add(obs("10.0.128.0/17", 100, 400))  # more specific, other origin
    r.add(obs("20.0.0.0/16", 100, 200))
    return r


class TestLengthFilter:
    def test_too_specific_dropped(self):
        r = GlobalRIB()
        assert not r.add(obs("10.0.0.0/25", 1, 2))
        assert r.num_prefixes == 0
        assert r.num_discarded == 1

    def test_too_coarse_dropped(self):
        r = GlobalRIB()
        assert not r.add(obs("10.0.0.0/7", 1, 2))
        assert r.num_discarded == 1

    def test_boundaries_accepted(self):
        r = GlobalRIB()
        assert r.add(obs("10.0.0.0/8", 1, 2))
        assert r.add(obs("10.0.0.0/24", 1, 2))
        assert MIN_PLEN == 8 and MAX_PLEN == 24


class TestAccumulation:
    def test_num_prefixes(self, rib):
        assert rib.num_prefixes == 3

    def test_duplicate_routes_deduped(self, rib):
        before = rib.num_paths
        rib.add(obs("10.0.0.0/16", 100, 200, 300))
        assert rib.num_paths == before

    def test_duplicate_routes_not_accepted(self, rib):
        # Regression: duplicates used to bump the accepted counter and
        # return True, so add_all over-reported.
        before = rib.num_accepted
        assert not rib.add(obs("10.0.0.0/16", 100, 200, 300))
        assert rib.num_accepted == before
        assert rib.add_all([obs("10.0.0.0/16", 100, 200, 300)]) == 0

    def test_duplicate_keeps_finalized_cache(self, rib):
        # Regression: a duplicate/no-op observation must not clear the
        # finalized vectorised views (identity, not just equality).
        rib.lookup(addr_to_int("10.0.1.1"))  # build the finalized view
        finalized = rib._final()
        rib.add(obs("10.0.0.0/16", 100, 200, 300))  # duplicate
        assert rib._final() is finalized
        rib.add(obs("10.0.0.0/25", 1, 2))  # length-filtered no-op
        assert rib._final() is finalized
        rib.add(obs("10.0.0.0/16", 55, 300))  # genuinely new route
        assert rib._final() is not finalized

    def test_withdrawal_keeps_finalized_cache(self, rib):
        rib.lookup(addr_to_int("10.0.1.1"))
        finalized = rib._final()
        withdrawal = RouteObservation(
            prefix=Prefix.parse("10.0.0.0/16"),
            path=(100, 200, 300),
            source="rrc00",
            withdrawal=True,
        )
        assert not rib.add(withdrawal)
        assert rib._final() is finalized

    def test_new_path_same_prefix_accepted(self, rib):
        before = rib.num_accepted
        assert rib.add(obs("10.0.0.0/16", 102, 200, 300))
        assert rib.num_accepted == before + 1

    def test_origin_majority_vote(self, rib):
        pid = rib.prefix_id(Prefix.parse("10.0.0.0/16"))
        assert rib.origin_of(pid) == 300

    def test_moas_origins(self):
        r = GlobalRIB()
        r.add(obs("10.0.0.0/16", 1, 2))
        r.add(obs("10.0.0.0/16", 1, 3))
        pid = r.prefix_id(Prefix.parse("10.0.0.0/16"))
        assert r.origins_of(pid) == {2, 3}

    def test_path_members(self, rib):
        pid = rib.prefix_id(Prefix.parse("10.0.0.0/16"))
        assert rib.path_members(pid) == {100, 101, 200, 300}

    def test_adjacencies_are_directed(self, rib):
        adj = rib.adjacencies()
        assert (100, 200) in adj
        assert (200, 300) in adj
        assert (300, 200) not in adj

    def test_prepending_collapses(self):
        r = GlobalRIB()
        r.add(obs("10.0.0.0/16", 1, 2, 2, 2, 3))
        assert (2, 2) not in r.adjacencies()
        assert (2, 3) in r.adjacencies()

    def test_observed_asns(self, rib):
        assert rib.observed_asns() == {100, 101, 200, 300, 400}


class TestLookup:
    def test_lpm_prefers_more_specific(self, rib):
        pid, origin_index = rib.lookup(addr_to_int("10.0.200.1"))
        assert rib.prefix_by_id(pid) == Prefix.parse("10.0.128.0/17")
        assert rib.indexer.asn(origin_index) == 400

    def test_lookup_covering(self, rib):
        pid, origin_index = rib.lookup(addr_to_int("10.0.1.1"))
        assert rib.prefix_by_id(pid) == Prefix.parse("10.0.0.0/16")
        assert rib.indexer.asn(origin_index) == 300

    def test_lookup_unrouted(self, rib):
        pid, origin_index = rib.lookup(addr_to_int("9.9.9.9"))
        assert pid == -1
        assert origin_index == -1

    def test_lookup_many_matches_scalar(self, rib):
        addrs = np.array(
            [
                addr_to_int("10.0.200.1"),
                addr_to_int("10.0.1.1"),
                addr_to_int("9.9.9.9"),
                addr_to_int("20.0.50.1"),
            ],
            dtype=np.uint64,
        )
        pids, origins = rib.lookup_many(addrs)
        for i, addr in enumerate(addrs):
            s_pid, s_origin = rib.lookup(int(addr))
            assert pids[i] == s_pid
            assert origins[i] == s_origin

    def test_routed_space(self, rib):
        space = rib.routed_space()
        assert addr_to_int("10.0.0.1") in space
        assert addr_to_int("20.0.0.1") in space
        assert addr_to_int("30.0.0.1") not in space

    def test_lookup_after_mutation_refreshes(self, rib):
        # Finalized views must invalidate when new routes arrive.
        assert rib.lookup(addr_to_int("30.0.0.1"))[0] == -1
        rib.add(obs("30.0.0.0/16", 1, 2))
        assert rib.lookup(addr_to_int("30.0.0.1"))[0] != -1


class TestDeltaWithdrawals:
    """Delta-mode (``apply``) route removal and cache coherence."""

    def test_withdraw_removes_live_route(self):
        r = GlobalRIB()
        r.apply(obs("10.0.0.0/16", 1, 2, 3))
        pid = r.prefix_id(Prefix.parse("10.0.0.0/16"))
        assert r.is_live(pid)
        delta = r.apply(wd("10.0.0.0/16", 1, 2, 3))
        assert delta.applied and delta.withdrawal
        assert not r.is_live(pid)
        assert r.num_live_routes == 0
        assert r.lookup(addr_to_int("10.0.1.1"))[0] == -1

    def test_dead_prefix_keeps_stable_id(self):
        r = GlobalRIB()
        r.apply(obs("10.0.0.0/16", 1, 2))
        r.apply(obs("20.0.0.0/16", 1, 3))
        pid_20 = r.prefix_id(Prefix.parse("20.0.0.0/16"))
        r.apply(wd("10.0.0.0/16", 1, 2))
        assert r.prefix_id(Prefix.parse("20.0.0.0/16")) == pid_20
        assert r.live_prefix_ids() == [pid_20]
        with pytest.raises(ValueError):
            r.origin_of(r.prefix_id(Prefix.parse("10.0.0.0/16")))

    def test_path_member_cache_evicted_on_path_death(self):
        # Regression: a withdrawn path's members survived as a stale
        # entry, so a later re-announcement through another path could
        # resurrect outdated member sets. The interned path outlives
        # its routes; its members must not.
        r = GlobalRIB()
        r.apply(obs("10.0.0.0/16", 1, 2, 3))
        pid = r.prefix_id(Prefix.parse("10.0.0.0/16"))
        assert r.path_members(pid) == {1, 2, 3}
        delta = r.apply(wd("10.0.0.0/16", 1, 2, 3))
        assert delta.removed_paths == [(1, 2, 3)]
        assert r.path_members(pid) == set()
        assert list(r.paths()) == []
        r.apply(obs("10.0.0.0/16", 1, 4))
        assert r.path_members(pid) == {1, 4}
        assert r.observed_asns() == {1, 4}

    def test_shared_path_cache_survives_partial_withdraw(self):
        # Two prefixes share a path: withdrawing one must keep the
        # cache entry (the path is still live for the other prefix).
        r = GlobalRIB()
        r.apply(obs("10.0.0.0/16", 1, 2, 3))
        r.apply(obs("20.0.0.0/16", 1, 2, 3))
        r.apply(wd("10.0.0.0/16", 1, 2, 3))
        assert list(r.paths()) == [(1, 2, 3)]
        pid = r.prefix_id(Prefix.parse("20.0.0.0/16"))
        assert r.path_members(pid) == {1, 2, 3}
        assert r.observed_asns() == {1, 2, 3}

    def test_reannounce_after_withdraw_round_trips(self):
        r = GlobalRIB()
        r.apply(obs("10.0.0.0/16", 1, 2, 3))
        r.apply(wd("10.0.0.0/16", 1, 2, 3))
        delta = r.apply(obs("10.0.0.0/16", 1, 2, 3))
        assert delta.applied
        pid = r.prefix_id(Prefix.parse("10.0.0.0/16"))
        assert r.is_live(pid)
        assert r.path_members(pid) == {1, 2, 3}
        assert r.origin_of(pid) == 3
        assert r.lookup(addr_to_int("10.0.1.1"))[0] == pid

    def test_withdraw_shrinks_member_set_not_counters_only(self):
        # Interleaved add/withdraw/query: member sets must be
        # recomputed from live paths, not left as unions.
        r = GlobalRIB()
        r.apply(obs("10.0.0.0/16", 1, 2, 9))
        r.apply(obs("10.0.0.0/16", 5, 6, 9))
        pid = r.prefix_id(Prefix.parse("10.0.0.0/16"))
        assert r.path_members(pid) == {1, 2, 5, 6, 9}
        delta = r.apply(wd("10.0.0.0/16", 1, 2, 9))
        assert delta.members_removed[pid] == {1, 2}
        assert r.path_members(pid) == {5, 6, 9}
        assert r.observed_asns() == {5, 6, 9}
        assert (1, 2) not in r.adjacencies()

    def test_withdraw_moas_origin_flip(self):
        r = GlobalRIB()
        r.apply(obs("10.0.0.0/16", 1, 7))
        r.apply(obs("10.0.0.0/16", 2, 7))
        r.apply(obs("10.0.0.0/16", 3, 8))
        pid = r.prefix_id(Prefix.parse("10.0.0.0/16"))
        assert r.origin_of(pid) == 7
        delta = r.apply(wd("10.0.0.0/16", 1, 7))
        assert not delta.origin_changes  # 7 still wins 1 vote vs 1, tie→min
        r.apply(wd("10.0.0.0/16", 2, 7))
        assert r.origin_of(pid) == 8
        assert r.origins_of(pid) == {8}

    def test_finalized_patched_in_place(self):
        r = GlobalRIB()
        r.apply(obs("10.0.0.0/16", 1, 2))
        r.apply(obs("20.0.0.0/16", 1, 2))  # keeps ASNs 1, 2 alive below
        r.lookup(addr_to_int("10.0.0.1"))  # build the finalized view
        finalized = r._final()
        delta = r.apply(wd("10.0.0.0/16", 1, 2))
        assert delta.finalize == "patched"
        assert r._final() is finalized  # patched, not rebuilt
        assert r.lookup(addr_to_int("10.0.0.1"))[0] == -1
        assert r.lookup(addr_to_int("20.0.0.1"))[0] != -1

    def test_new_asn_forces_rebuild(self):
        r = GlobalRIB()
        r.apply(obs("10.0.0.0/16", 1, 2))
        r.lookup(addr_to_int("10.0.0.1"))
        finalized = r._final()
        delta = r.apply(obs("20.0.0.0/16", 1, 99))
        assert delta.rebuild_required
        assert delta.finalize == "rebuild"
        assert r._final() is not finalized
        assert r.indexer.index(99) >= 0


class TestWithdrawalCounters:
    """Counter algebra under delta mode (and the union path)."""

    def test_never_announced_prefix_ignored(self):
        r = GlobalRIB()
        r.apply(obs("10.0.0.0/16", 1, 2))
        delta = r.apply(wd("99.0.0.0/16", 1, 2))
        assert not delta.applied
        assert r.num_withdrawals == 1
        assert r.num_withdrawals_ignored == 1
        assert r.num_withdrawals_applied == 0
        assert r.num_live_routes == 1

    def test_unknown_path_ignored(self):
        r = GlobalRIB()
        r.apply(obs("10.0.0.0/16", 1, 2))
        delta = r.apply(wd("10.0.0.0/16", 5, 2))
        assert not delta.applied
        assert r.num_withdrawals_ignored == 1
        assert r.num_live_routes == 1

    def test_duplicate_withdrawal_not_double_counted(self):
        # Regression: the second withdrawal of the same route used to
        # drive refcounts negative and double-count as applied.
        r = GlobalRIB()
        r.apply(obs("10.0.0.0/16", 1, 2))
        assert r.apply(wd("10.0.0.0/16", 1, 2)).applied
        assert not r.apply(wd("10.0.0.0/16", 1, 2)).applied
        assert r.num_withdrawals == 2
        assert r.num_withdrawals_applied == 1
        assert r.num_withdrawals_ignored == 1
        assert r.num_live_routes == 0
        # A third one after re-announce applies again, cleanly.
        r.apply(obs("10.0.0.0/16", 1, 2))
        assert r.apply(wd("10.0.0.0/16", 1, 2)).applied
        assert r.num_withdrawals_applied == 2

    def test_union_mode_counts_withdrawals_as_ignored(self, rib):
        assert not rib.add(wd("10.0.0.0/16", 100, 200, 300))
        assert rib.num_withdrawals == 1
        assert rib.num_withdrawals_ignored == 1
        assert rib.num_withdrawals_applied == 0
        # Union semantics: the route is still installed.
        pid = rib.prefix_id(Prefix.parse("10.0.0.0/16"))
        assert rib.is_live(pid)

    def test_counter_algebra_random_sequence(self):
        rng = np.random.default_rng(4242)
        r = GlobalRIB()
        prefixes = [f"{10 + i}.0.0.0/16" for i in range(6)]
        paths = [(1, 2, 3), (4, 5, 3), (1, 6), (7, 8, 9)]
        for _ in range(400):
            prefix = prefixes[rng.integers(len(prefixes))]
            path = paths[rng.integers(len(paths))]
            if rng.random() < 0.45:
                r.apply(wd(prefix, *path))
            else:
                r.apply(obs(prefix, *path))
            assert r.num_withdrawals == (
                r.num_withdrawals_applied + r.num_withdrawals_ignored
            )
            assert (
                r.num_accepted - r.num_withdrawals_applied
                == r.num_live_routes
            )

    def test_counters_match_quarantine_report(self, tmp_path):
        from repro.errors import Quarantine
        from repro.io import load_route_dump, write_route_dump

        events = [
            obs("10.0.0.0/16", 1, 2, 3, update=True),
            obs("10.0.0.0/16", 1, 2, 3, update=True),  # duplicate
            obs("20.0.0.0/16", 4, 5, update=True),
            wd("20.0.0.0/16", 4, 5),
            wd("20.0.0.0/16", 4, 5),  # duplicate withdrawal
            wd("30.0.0.0/16", 4, 5),  # never announced
            obs("40.0.0.0/28", 1, 2, update=True),  # length-filtered
        ]
        path = tmp_path / "updates.dump"
        written = write_route_dump(events, path)
        with open(path, "a") as handle:
            handle.write("TABLE_DUMP2|0|A|rrc00|1|garbage|1 2\n")
            handle.write("not a record at all\n")
        quarantine = Quarantine(source=str(path))
        r = GlobalRIB()
        n_loaded = 0
        for event in load_route_dump(
            path, on_error="quarantine", quarantine=quarantine
        ):
            n_loaded += 1
            r.apply(event)
        # Every line is accounted for exactly once: parsed or
        # quarantined, and every parsed record lands in exactly one
        # RIB counter bucket.
        assert len(quarantine) == 2
        assert n_loaded == written
        assert (
            r.num_accepted
            + r.num_duplicates
            + r.num_discarded
            + r.num_withdrawals
            == n_loaded
        )
        assert r.num_withdrawals == 3
        assert r.num_withdrawals_applied == 1
        assert r.num_withdrawals_ignored == 2
        assert r.num_accepted - r.num_withdrawals_applied == r.num_live_routes


class TestExclusiveCoverage:
    def test_sums_to_routed_space(self, rib):
        per_prefix = rib.exclusive_slash24s_per_prefix()
        assert per_prefix.sum() == pytest.approx(
            rib.routed_space().slash24_equivalents
        )

    def test_more_specific_claims_space(self, rib):
        pid_16 = rib.prefix_id(Prefix.parse("10.0.0.0/16"))
        pid_17 = rib.prefix_id(Prefix.parse("10.0.128.0/17"))
        per_prefix = rib.exclusive_slash24s_per_prefix()
        assert per_prefix[pid_17] == 128  # the /17's own half
        assert per_prefix[pid_16] == 128  # the /16 minus the /17

    def test_per_origin_aggregation(self, rib):
        per_origin = rib.exclusive_slash24s_per_origin()
        idx_200 = rib.indexer.index(200)  # origin of 20.0.0.0/16
        idx_300 = rib.indexer.index(300)  # origin of 10.0.0.0/16
        idx_400 = rib.indexer.index(400)  # origin of 10.0.128.0/17
        assert per_origin[idx_200] == 256
        assert per_origin[idx_300] == 128
        assert per_origin[idx_400] == 128

    def test_empty_rib(self):
        r = GlobalRIB()
        assert r.routed_space().num_addresses == 0
        pids, origins = r.lookup_many(np.array([1, 2], dtype=np.uint64))
        assert (pids == -1).all()
