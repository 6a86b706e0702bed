"""Tests for the future-work extensions: WHOIS-augmented cones,
support-pruned cones, stray recognition, filter lists, temporal study."""

import numpy as np
import pytest

from repro.analysis.temporal import temporal_study
from repro.bgp.simulate import simulate_bgp
from repro.cones.pruned import PrunedFullCone, adjacency_support
from repro.cones.whois_augmented import WhoisAugmentedFullCone, whois_policy_edges
from repro.core import (
    TrafficClass,
    build_ingress_acl,
    classify_strays,
    evaluate_acl,
    evaluate_against_truth,
    evaluate_stray_detection,
)
from repro.core.classifier import SpoofingClassifier
from repro.core.straydetect import STRAY_NAT, STRAY_NONE, STRAY_ROUTER
from repro.datasets.ark import run_ark_campaign
from repro.datasets.whois import build_whois
from repro.ixp.flows import TruthLabel


class TestWhoisAugmentedCone:
    def test_policy_edges_bidirectional(self, bgp_only_world):
        whois = build_whois(bgp_only_world.topo)
        edges = set(whois_policy_edges(whois, bgp_only_world.rib))
        for a, b in list(edges)[:50]:
            assert (b, a) in edges

    def test_augmented_cone_is_superset(self, bgp_only_world):
        world = bgp_only_world
        whois = build_whois(world.topo)
        augmented = WhoisAugmentedFullCone(world.rib, whois)
        plain = world.approaches["full"]
        for asn in world.rib.indexer.asns()[:80]:
            assert augmented.valid_slash24s(asn) >= plain.valid_slash24s(asn) - 1e-9

    def test_augmented_reduces_invalid(self, tiny_world):
        whois = build_whois(tiny_world.topo)
        augmented = WhoisAugmentedFullCone(tiny_world.rib, whois)
        classifier = SpoofingClassifier(
            tiny_world.rib,
            {"full": tiny_world.approaches["full"], "full+whois": augmented},
        )
        result = classifier.classify(tiny_world.scenario.flows)
        plain_invalid = result.flows.packets[
            result.class_mask("full", TrafficClass.INVALID)
        ].sum()
        aug_invalid = result.flows.packets[
            result.class_mask("full+whois", TrafficClass.INVALID)
        ].sum()
        assert aug_invalid <= plain_invalid

    def test_augmented_keeps_recall(self, tiny_world):
        whois = build_whois(tiny_world.topo)
        augmented = WhoisAugmentedFullCone(tiny_world.rib, whois)
        classifier = SpoofingClassifier(
            tiny_world.rib, {"full+whois": augmented}
        )
        result = classifier.classify(tiny_world.scenario.flows)
        quality = evaluate_against_truth(result, "full+whois")
        assert quality.recall > 0.8

    def test_mutuality_filter(self, bgp_only_world):
        whois = build_whois(bgp_only_world.topo)
        # Forge a one-sided (stale) policy entry.
        some_asn = next(iter(whois.aut_nums))
        whois.aut_nums[some_asn].imports.add(999_999)
        strict = set(whois_policy_edges(whois, bgp_only_world.rib, True))
        assert (some_asn, 999_999) not in strict


class TestPrunedCone:
    def test_adjacency_support_counts_paths(self, bgp_only_world):
        support = adjacency_support(bgp_only_world.rib)
        assert support
        assert all(count >= 1 for count in support.values())

    def test_pruning_monotone(self, bgp_only_world):
        rib = bgp_only_world.rib
        loose = PrunedFullCone(rib, min_support=1)
        tight = PrunedFullCone(rib, min_support=5)
        assert tight.kept_edges <= loose.kept_edges
        for asn in rib.indexer.asns()[:60]:
            assert tight.valid_slash24s(asn) <= loose.valid_slash24s(asn) + 1e-9

    def test_min_support_one_equals_full(self, bgp_only_world):
        rib = bgp_only_world.rib
        pruned = PrunedFullCone(rib, min_support=1)
        full = bgp_only_world.approaches["full"]
        for asn in rib.indexer.asns()[:60]:
            assert pruned.valid_slash24s(asn) == pytest.approx(
                full.valid_slash24s(asn)
            )

    def test_own_space_survives_pruning(self, bgp_only_world):
        rib = bgp_only_world.rib
        pruned = PrunedFullCone(rib, min_support=10_000)
        assert pruned.kept_edges == 0
        # Reflexivity: every origin remains valid for itself.
        some_origin = rib.origin_of(0)
        pid, oidx = rib.lookup(rib.prefix_by_id(0).first)
        assert pruned.is_valid(some_origin, pid, oidx)


class TestStrayDetection:
    def test_router_strays_recognised(self, tiny_world, rng):
        ark = run_ark_campaign(tiny_world.topo, rng)
        flows = tiny_world.scenario.flows
        strays = flows.select(flows.truth == int(TruthLabel.STRAY_ROUTER))
        verdicts = classify_strays(strays, ark)
        # Most ICMP router strays should be caught (ark coverage < 1).
        assert (verdicts == STRAY_ROUTER).mean() > 0.4

    def test_nat_strays_recognised(self, tiny_world, rng):
        ark = run_ark_campaign(tiny_world.topo, rng)
        flows = tiny_world.scenario.flows
        nat = flows.select(flows.truth == int(TruthLabel.STRAY_NAT))
        verdicts = classify_strays(nat, ark)
        assert (verdicts == STRAY_NAT).mean() > 0.5

    def test_legit_traffic_untouched(self, tiny_world, rng):
        ark = run_ark_campaign(tiny_world.topo, rng)
        flows = tiny_world.scenario.flows
        legit = flows.select(flows.truth == int(TruthLabel.LEGIT))
        verdicts = classify_strays(legit, ark)
        assert (verdicts == STRAY_NONE).all()

    def test_evaluation_quality(self, tiny_world, rng):
        ark = run_ark_campaign(tiny_world.topo, rng)
        quality = evaluate_stray_detection(
            tiny_world.result, "full+orgs", ark
        )
        assert 0.0 <= quality.stray_recall <= 1.0
        assert quality.stray_precision > 0.5
        assert quality.spoofed_retention > 0.8


class TestFilterLists:
    def test_acl_covers_own_space(self, tiny_world):
        world = tiny_world
        member = world.ixp.member_asns[0]
        acl = build_ingress_acl(world.approaches["full+orgs"], member)
        for prefix in world.topo.node(member).prefixes:
            assert acl.contains_prefix(prefix) or prefix.first in acl

    def test_naive_acl_uses_prefix_granularity(self, tiny_world):
        world = tiny_world
        member = world.ixp.member_asns[0]
        acl = build_ingress_acl(world.approaches["naive"], member)
        assert acl.num_addresses > 0

    def test_acl_drops_spoofed_keeps_legit(self, tiny_world):
        world = tiny_world
        flows = world.scenario.flows
        members, counts = np.unique(flows.member, return_counts=True)
        busiest = int(members[np.argmax(counts)])
        acl = build_ingress_acl(world.approaches["full+orgs"], busiest)
        report = evaluate_acl(acl, busiest, flows)
        assert report.flows_seen > 0
        # A big member's conservative cone still drops most spoofed
        # traffic (random sources land inside a large cone sometimes —
        # the paper's "conservative overestimation" caveat) while
        # passing effectively all visible-arrangement legit traffic.
        assert report.spoofed_dropped > 0.5
        assert report.legit_dropped < 0.05

    def test_small_member_acl_is_sharp(self, tiny_world):
        """For a stub member the ACL is small and drops nearly all
        spoofed traffic."""
        world = tiny_world
        flows = world.scenario.flows
        stub_members = [
            asn
            for asn in np.unique(flows.member)
            if world.topo.node(int(asn)).is_stub
        ]
        assert stub_members
        stub = int(stub_members[0])
        acl = build_ingress_acl(world.approaches["full+orgs"], stub)
        report = evaluate_acl(acl, stub, flows)
        routed = world.rib.routed_space().slash24_equivalents
        assert report.acl_slash24s < 0.2 * routed
        if report.flows_seen and report.spoofed_dropped > 0:
            assert report.spoofed_dropped > 0.8

    def test_report_renders(self, tiny_world):
        world = tiny_world
        member = world.ixp.member_asns[0]
        acl = build_ingress_acl(world.approaches["full+orgs"], member)
        report = evaluate_acl(acl, member, world.scenario.flows)
        assert f"AS{member}" in report.render()


class TestTemporalStudy:
    @pytest.fixture(scope="class")
    def observations(self, bgp_only_world):
        world = bgp_only_world
        rng = np.random.default_rng(world.config.seed)
        return list(
            simulate_bgp(
                world.topo, world.policies, world.collectors,
                world.ixp.route_server, rng,
            ).observations()
        )

    def test_windows_grow_monotonically(self, observations):
        study = temporal_study(observations, n_windows=3, sample_asns=50)
        adjacency_counts = [s.num_adjacencies for s in study.snapshots]
        assert adjacency_counts == sorted(adjacency_counts)
        prefix_counts = [s.num_prefixes for s in study.snapshots]
        assert prefix_counts == sorted(prefix_counts)

    def test_valid_space_grows(self, observations):
        study = temporal_study(observations, n_windows=3, sample_asns=50)
        means = [s.mean_valid_slash24s for s in study.snapshots]
        assert means[-1] >= means[0]

    def test_growth_and_convergence_metrics(self, observations):
        study = temporal_study(observations, n_windows=4, sample_asns=50)
        assert study.adjacency_growth() >= 1.0
        assert isinstance(study.converged(), bool)
        assert "Temporal growth" in study.render()

    def test_empty_observations_rejected(self):
        with pytest.raises(ValueError):
            temporal_study([])
