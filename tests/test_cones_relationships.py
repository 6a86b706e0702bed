"""Tests for AS relationship inference."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cones.relationships import (
    InferredRelationship,
    RelationshipLedger,
    _collapse,
    infer_relationships,
    is_provider,
)
from tests import reference_relationships as reference


class TestCollapse:
    def test_removes_prepending(self):
        assert _collapse((1, 2, 2, 2, 3)) == (1, 2, 3)

    def test_keeps_plain_paths(self):
        assert _collapse((1, 2, 3)) == (1, 2, 3)

    def test_single_hop(self):
        assert _collapse((7,)) == (7,)


class TestTransitDegree:
    def test_endpoints_do_not_count(self):
        rank = RelationshipLedger([(1, 2, 3)]).transit_degree()
        assert rank[2] == 2
        assert rank[1] == 0
        assert rank[3] == 0

    def test_distinct_neighbors(self):
        rank = RelationshipLedger(
            [(1, 2, 3), (4, 2, 3), (1, 2, 5)]
        ).transit_degree()
        assert rank[2] == 4  # neighbors {1, 3, 4, 5}


def _hierarchy_paths():
    """Paths over: T1a(1)-T1b(2) peer clique; 3,4 their customers;
    5..10 edge customers of 3/4. Observation points below everyone."""
    paths = []
    # Announcements from each edge AS observed at peers of other edges.
    # Structure: [observer-side ..., top, ..., origin]
    edges_of = {3: [5, 6, 7], 4: [8, 9, 10]}
    for provider, customers in edges_of.items():
        t1 = 1 if provider == 3 else 2
        other_t1 = 2 if t1 == 1 else 1
        other_prov = 4 if provider == 3 else 3
        for origin in customers:
            # Observed at a customer of the same provider.
            for observer in customers:
                if observer != origin:
                    paths.append((observer, provider, origin))
            # Observed across the T1 peering.
            for observer in edges_of[other_prov]:
                paths.append(
                    (observer, other_prov, other_t1, t1, provider, origin)
                )
    # Direct T1 prefixes.
    for origin, provider in ((1, None), (2, None)):
        pass
    return paths


class TestInference:
    def test_simple_hierarchy(self):
        rels = infer_relationships(_hierarchy_paths())
        # Edge-provider links inferred as c2p from the edge side.
        for edge, provider in ((5, 3), (6, 3), (8, 4)):
            key = (min(edge, provider), max(edge, provider))
            rel = rels[key]
            if key[0] == edge:
                assert rel is InferredRelationship.C2P
            else:
                assert rel is InferredRelationship.P2C

    def test_t1_peering_detected(self):
        rels = infer_relationships(_hierarchy_paths())
        assert rels[(1, 2)] is InferredRelationship.PEER

    def test_provider_to_customer_edges(self):
        rels = {
            (1, 2): InferredRelationship.P2C,
            (3, 4): InferredRelationship.C2P,
            (5, 6): InferredRelationship.PEER,
        }
        pairs = [(a, b) for a in range(1, 8) for b in range(1, 8) if a != b]
        edges = {(p, c) for p, c in pairs if is_provider(rels, p, c)}
        assert edges == {(1, 2), (4, 3)}

    def test_empty_paths(self):
        assert infer_relationships([]) == {}

    def test_two_as_path(self):
        rels = infer_relationships([(1, 2)] * 3)
        assert (1, 2) in rels


class TestOnSyntheticWorld:
    def test_transit_accuracy(self, bgp_only_world):
        """≥90% of true transit links present in the inference are
        recovered with the right direction."""
        world = bgp_only_world
        cc = world.approaches["cc"]
        correct = 0
        total = 0
        for (a, b), inferred in cc.relationships.items():
            true = world.topo.relationship(a, b)
            if true is None:
                continue
            if true.value not in ("p2c", "c2p"):
                continue
            total += 1
            expected = (
                InferredRelationship.P2C
                if true.value == "p2c"
                else InferredRelationship.C2P
            )
            if inferred is expected:
                correct += 1
        assert total > 50
        assert correct / total >= 0.90

    def test_no_inverted_transit(self, bgp_only_world):
        """Reversed transit directions must be very rare (they poison
        customer cones)."""
        world = bgp_only_world
        cc = world.approaches["cc"]
        inverted = 0
        total = 0
        for (a, b), inferred in cc.relationships.items():
            true = world.topo.relationship(a, b)
            if true is None or true.value not in ("p2c", "c2p"):
                continue
            total += 1
            wrong = (
                InferredRelationship.C2P
                if true.value == "p2c"
                else InferredRelationship.P2C
            )
            if inferred is wrong:
                inverted += 1
        assert inverted <= max(2, 0.02 * total)


# A small AS pool, so paths share links and transit degrees tie and
# flip; every hop repeats 1-3 times, so distinct raw paths collapse to
# one, and 1- and 2-AS paths are common.
_hops = st.lists(
    st.tuples(st.integers(1, 7), st.integers(1, 3)), min_size=1, max_size=5
)
raw_paths = _hops.map(
    lambda hops: tuple(asn for asn, times in hops for _ in range(times))
)


def assert_matches_reference(ledger, live):
    """The ledger equals the reference inference and a cold build."""
    assert ledger.relationships == reference.infer_relationships(live)
    unique = list({reference._collapse(p) for p in live if p})
    assert ledger.transit_degree() == reference.transit_degree(unique)
    assert vars(ledger) == vars(RelationshipLedger(live))


class TestLedgerAgainstReference:
    """Differential test: the refcounted ledger, cold and patched,
    against the one-shot reference inference kept under ``tests/``."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(raw_paths, max_size=25))
    def test_cold_build(self, paths):
        assert_matches_reference(RelationshipLedger(paths), paths)

    @settings(max_examples=120, deadline=None)
    @given(st.lists(raw_paths, max_size=12), st.data())
    def test_add_remove_sequences(self, paths, data):
        live = list(paths)
        ledger = RelationshipLedger(live)
        for _ in range(data.draw(st.integers(1, 12), label="steps")):
            added = data.draw(st.lists(raw_paths, max_size=2), label="added")
            removed = []
            if live:
                picks = data.draw(
                    st.sets(st.integers(0, len(live) - 1), max_size=2),
                    label="removed",
                )
                removed = [live[i] for i in picks]
                live = [p for i, p in enumerate(live) if i not in picks]
            before = dict(ledger.relationships)
            changed = ledger.apply(added, removed)
            live += added
            after = ledger.relationships
            assert changed == {
                link for link in before.keys() | after.keys()
                if before.get(link) is not after.get(link)
            }
            assert_matches_reference(ledger, live)

    def test_degree_flip_redecides_links_off_the_delta(self):
        """Adding a path that raises AS 3's transit degree re-votes the
        live paths through AS 3 and flips a link the new path does not
        cross."""
        live = [(1, 3, 4), (2, 4, 3)]
        ledger = RelationshipLedger(live)
        assert ledger.relationships == reference.infer_relationships(live)
        added = [(5, 3, 6)]
        changed = ledger.apply(added, [])
        assert (3, 4) in changed
        assert ledger.relationships == reference.infer_relationships(live + added)

    def test_prepended_variants_share_one_collapsed_path(self):
        ledger = RelationshipLedger([(1, 2, 3)])
        cold = dict(ledger.relationships)
        assert ledger.apply([(1, 1, 2, 3), (1, 2, 2, 2, 3)], []) == set()
        assert ledger.apply([], [(1, 2, 3), (1, 1, 2, 3)]) == set()
        assert ledger.relationships == cold
        assert ledger.apply([], [(1, 2, 2, 2, 3)]) == set(cold)
        assert ledger.relationships == {}


# ASNs at and above 2**31 make any packing of raw ASN pairs into one
# int64 key overflow; the small ones make degrees tie.
_asns = st.sampled_from((1, 2, 3, 4, 5, 6, 2**31 - 1, 2**31, 2**32 - 1))
# Empty and 1-AS paths, prepending, and paths that collapse to one AS.
_cold_path = st.lists(
    st.tuples(_asns, st.integers(1, 3)), max_size=6
).map(lambda hops: tuple(asn for asn, times in hops for _ in range(times)))


@st.composite
def _path_lists(draw):
    """Raw paths, some repeated verbatim."""
    paths = draw(st.lists(_cold_path, max_size=30))
    if paths:
        paths += draw(st.lists(st.sampled_from(paths), max_size=5))
    return paths


_CONTAINERS = ("_refs", "_pairs", "_rank", "_c2p", "_peer", "relationships")


class TestColdBuild:
    """The array-fold cold build against the per-path delta path run
    from an empty ledger, and against the one-shot reference."""

    @settings(max_examples=300, deadline=None)
    @given(_path_lists())
    @example([])
    @example([(7,)])
    @example([(5, 5, 5)])
    @example([(1, 2, 3), (1, 1, 2, 3), (1, 2, 2, 3), (1, 2, 3)])
    @example([(1, 2, 3), (3, 2, 1), (4, 2, 5), (5, 3, 4)])
    @example([(2**32 - 1, 2**31, 1), (1, 2**31, 2**32 - 1, 2)])
    def test_equals_apply_from_empty(self, paths):
        assert_cold_equals_apply(paths)

    @settings(max_examples=200, deadline=None)
    @given(
        _path_lists(),
        st.sampled_from((0.3, 0.75, 1.0)),
        # At 0.5 and above equal directional votes are no conflict, so
        # the reach tie-break decides.
        st.sampled_from((0.0, 0.25, 0.6)),
        st.sampled_from((0, 1, 2, 5)),
    )
    # Link (3, 4) gets one vote each way between equal-degree ends, so
    # the reach tie-break decides it.
    @example([(5, 2, 4, 3), (5, 1, 3, 4)], 0.75, 0.6, 2)
    def test_parameters(self, paths, ratio, threshold, weight):
        assert_cold_equals_apply(
            paths,
            peer_reach_ratio=ratio,
            conflict_threshold=threshold,
            interior_weight=weight,
        )


def assert_cold_equals_apply(paths, **params):
    """Every container of the cold build equals the delta path's from
    an empty ledger, and the relationships the reference's."""
    cold = RelationshipLedger(paths, **params)
    delta = RelationshipLedger(**params)
    delta.apply(paths, ())
    for name in _CONTAINERS:
        assert getattr(cold, name) == getattr(delta, name), name
    # Plain ints, not numpy scalars, as the delta path stores.
    counts = (cold._refs, cold._pairs, cold._rank, cold._c2p, cold._peer)
    assert {type(v) for d in counts for v in d.values()} <= {int}
    assert {type(asn) for asn in cold._rank} <= {int}
    if params.get("interior_weight", 1):
        # With weightless interior votes the reference, unlike the
        # ledger, still decides links that hold no vote.
        assert cold.relationships == reference.infer_relationships(
            paths, **params
        )


class TestEmptyPaths:
    def test_apply_skips_empty_paths(self):
        cold = RelationshipLedger([(1, 2, 3), ()])
        patched = RelationshipLedger()
        patched.apply([(1, 2, 3), ()], [])
        assert vars(patched) == vars(cold)
        assert () not in patched._refs

    def test_removing_an_empty_path_is_a_no_op(self):
        ledger = RelationshipLedger([(1, 2, 3), ()])
        assert ledger.apply([], [()]) == set()
        assert vars(ledger) == vars(RelationshipLedger([(1, 2, 3)]))
