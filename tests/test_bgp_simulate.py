"""Tests for collectors, the route server, and the BGP simulation."""

import numpy as np
import pytest

from repro.bgp.collector import CollectorConfig, CollectorSystem
from repro.bgp.rib import GlobalRIB
from repro.bgp.routeserver import RouteServer
from repro.bgp.simulate import simulate_bgp
from repro.topology.generator import TopologyConfig, generate_topology
from repro.topology.policies import build_policies


@pytest.fixture(scope="module")
def sim_world():
    topo = generate_topology(TopologyConfig(n_ases=200, seed=31))
    rng = np.random.default_rng(8)
    policies = build_policies(topo, rng)
    collectors = CollectorSystem(
        topo, CollectorConfig(n_ris=4, n_routeviews=4, mean_peers=3), rng
    )
    rs = RouteServer(sorted(topo.ases)[:60])
    observations = list(simulate_bgp(topo, policies, collectors, rs, rng).observations())
    return topo, policies, collectors, rs, observations


class TestCollectorSystem:
    def test_collector_count_and_names(self, sim_world):
        _t, _p, collectors, _rs, _o = sim_world
        assert len(collectors.collectors) == 8
        names = [c.name for c in collectors.collectors]
        assert "rrc00" in names
        assert "route-views0" in names

    def test_peers_are_real_ases(self, sim_world):
        topo, _p, collectors, _rs, _o = sim_world
        for asn in collectors.all_peer_asns:
            assert asn in topo

    def test_collectors_peering_with(self, sim_world):
        _t, _p, collectors, _rs, _o = sim_world
        some_peer = next(iter(collectors.all_peer_asns))
        hits = collectors.collectors_peering_with(some_peer)
        assert hits
        assert all(some_peer in c.peer_asns for c in hits)


class TestRouteServer:
    def test_participation_cutoff(self):
        rs = RouteServer([1, 2, 3, 4], participation=0.5)
        assert rs.member_asns == (1, 2)
        assert len(rs) == 2
        assert 1 in rs and 3 not in rs

    def test_full_participation(self):
        rs = RouteServer([3, 1, 2])
        assert rs.member_asns == (1, 2, 3)


class TestSimulation:
    def test_observation_paths_end_at_origin(self, sim_world):
        topo, policies, _c, _rs, observations = sim_world
        for observation in observations[:500]:
            origin = observation.origin
            assert observation.prefix in set(
                policies[origin].all_prefixes()
            )

    def test_monitor_peer_is_collector_peer_or_member(self, sim_world):
        _t, _p, collectors, rs, observations = sim_world
        peers = collectors.all_peer_asns
        members = set(rs.member_asns)
        for observation in observations[:500]:
            if observation.source == RouteServer.SOURCE_NAME:
                assert observation.monitor_peer in members
            else:
                assert observation.monitor_peer in peers

    def test_restricted_groups_only_via_first_hop(self, sim_world):
        topo, policies, _c, _rs, observations = sim_world
        restricted = {}
        for asn, policy in policies.items():
            for group in policy.groups:
                if group.first_hops is not None:
                    for prefix in group.prefixes:
                        restricted[prefix] = (asn, set(group.first_hops))
        checked = 0
        for observation in observations:
            entry = restricted.get(observation.prefix)
            if entry is None:
                continue
            origin, first_hops = entry
            if observation.path[-1] != origin or len(observation.path) < 2:
                continue
            assert observation.path[-2] in first_hops
            checked += 1
        assert checked > 0

    def test_rs_observations_are_customer_routes(self, sim_world):
        topo, _p, _c, rs, observations = sim_world
        for observation in observations[:2000]:
            if observation.source != RouteServer.SOURCE_NAME:
                continue
            member = observation.monitor_peer
            origin = observation.origin
            if member != origin:
                assert origin in topo.customer_cone(member)

    def test_churn_produces_updates(self, sim_world):
        _t, _p, _c, _rs, observations = sim_world
        updates = [o for o in observations if o.from_update]
        dumps = [o for o in observations if not o.from_update]
        assert updates and dumps
        assert all(o.timestamp > 0 for o in updates)

    def test_failover_exposes_backup_links(self):
        topo = generate_topology(TopologyConfig(n_ases=200, seed=31))
        rng_a = np.random.default_rng(8)
        rng_b = np.random.default_rng(8)
        policies = build_policies(topo, rng_a)
        policies_b = build_policies(topo, rng_b)
        collectors_a = CollectorSystem(
            topo, CollectorConfig(n_ris=4, n_routeviews=4, mean_peers=3), rng_a
        )
        collectors_b = CollectorSystem(
            topo, CollectorConfig(n_ris=4, n_routeviews=4, mean_peers=3), rng_b
        )
        rib_with = GlobalRIB.from_observations(
            simulate_bgp(topo, policies, collectors_a, None, rng_a,
                         failover_prob=0.9)
        )
        rib_without = GlobalRIB.from_observations(
            simulate_bgp(topo, policies_b, collectors_b, None, rng_b,
                         failover_prob=0.0)
        )
        assert len(rib_with.adjacencies()) >= len(rib_without.adjacencies())
        assert rib_with.num_paths > rib_without.num_paths


class TestWithdrawals:
    def test_withdrawals_present_and_ignored(self):
        """Withdrawal messages appear in the stream but never shrink
        the window RIB (the paper's union semantics)."""
        topo = generate_topology(TopologyConfig(n_ases=200, seed=31))
        rng = np.random.default_rng(8)
        policies = build_policies(topo, rng)
        collectors = CollectorSystem(
            topo, CollectorConfig(n_ris=4, n_routeviews=4, mean_peers=3), rng
        )
        observations = list(
            simulate_bgp(topo, policies, collectors, None, rng,
                         failover_prob=0.9).observations()
        )
        withdrawals = [o for o in observations if o.withdrawal]
        assert withdrawals
        assert all(o.from_update for o in withdrawals)
        rib = GlobalRIB.from_observations(observations)
        assert rib.num_withdrawals == len(withdrawals)
        # Union semantics: adding the withdrawals changed nothing.
        rib_without = GlobalRIB.from_observations(
            o for o in observations if not o.withdrawal
        )
        assert rib.num_prefixes == rib_without.num_prefixes
        assert rib.adjacencies() == rib_without.adjacencies()

    def test_withdrawal_precedes_failover_announcement(self):
        topo = generate_topology(TopologyConfig(n_ases=200, seed=31))
        rng = np.random.default_rng(8)
        policies = build_policies(topo, rng)
        collectors = CollectorSystem(
            topo, CollectorConfig(n_ris=4, n_routeviews=4, mean_peers=3), rng
        )
        observations = list(
            simulate_bgp(topo, policies, collectors, None, rng,
                         failover_prob=0.9).observations()
        )
        by_origin = {}
        for o in observations:
            if o.withdrawal:
                by_origin.setdefault(o.origin, []).append(o.timestamp)
        assert by_origin
        announcements = {}
        for o in observations:
            if o.from_update and not o.withdrawal:
                announcements.setdefault(o.origin, []).append(o.timestamp)
        for origin, w_times in by_origin.items():
            later = [t for t in announcements.get(origin, []) if t > max(w_times)]
            assert later, f"no announcement after withdrawal for AS{origin}"
