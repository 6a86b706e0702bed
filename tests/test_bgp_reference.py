"""Differential tests of the BGP layers against their seed implementations.

The lean propagator must reproduce the seed deque BFS
(``tests/reference_propagation.py``) exactly, ``parent`` and ``rtype``
arrays included, on generated topologies under random first-hop
restrictions. The batch union ingest must leave a RIB identical to the
seed per-observation ingest (``tests/reference_rib.py``): the same
counters, digest, prefix order, per-prefix origins and members, and
the same path, adjacency and AS sets, however the stream is cut into
``add_all`` batches.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.messages import RouteObservation
from repro.bgp.propagation import RoutePropagator
from repro.bgp.rib import GlobalRIB
from repro.net.prefix import Prefix
from repro.topology.model import ASNode, ASTopology, BusinessType, Relationship
from tests.reference_propagation import ReferencePropagator
from tests.reference_rib import ReferenceUnionRIB

_RELATIONSHIPS = list(Relationship)


def _asn(i: int) -> int:
    """Sparse ASNs, so dense indices and ASNs never coincide."""
    return 64_500 + 7 * i


@st.composite
def topologies(draw):
    n = draw(st.integers(min_value=1, max_value=24))
    links = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.sampled_from(_RELATIONSHIPS),
            ),
            min_size=n,
            max_size=4 * n,
        )
    )
    topo = ASTopology()
    for i in range(n):
        topo.add_as(ASNode(_asn(i), BusinessType.ISP, tier=3, org_id=i))
    for a, b, rel in links:
        if a != b:
            topo.add_link(_asn(a), _asn(b), rel)
    return topo


@st.composite
def propagation_cases(draw):
    topo = draw(topologies())
    asns = sorted(topo.ases)
    origin = draw(st.sampled_from(asns))
    # First hops: all neighbors (None), or any subset of the ASNs,
    # neighbors or not, plus possibly an ASN outside the topology.
    first_hops = draw(
        st.none()
        | st.sets(st.sampled_from([*asns, _asn(len(asns) + 5)]), max_size=8)
    )
    return topo, origin, first_hops


class TestPropagationMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(propagation_cases())
    def test_parent_and_rtype_arrays_equal(self, case):
        topo, origin, first_hops = case
        expected_parent, expected_rtype = ReferencePropagator(topo).propagate(
            origin, first_hops
        )
        outcome = RoutePropagator(topo).propagate(origin, first_hops)
        assert outcome.parent == expected_parent
        assert outcome.rtype == expected_rtype

    @settings(max_examples=100, deadline=None)
    @given(propagation_cases())
    def test_memoised_paths_follow_parents(self, case):
        topo, origin, first_hops = case
        propagator = RoutePropagator(topo)
        outcome = propagator.propagate(origin, first_hops)
        for asn in topo.ases:
            path = outcome.path_from(asn)
            assert outcome.path_from(asn) is path  # memoised
            if not outcome.has_route(asn):
                assert path is None
                continue
            assert path[0] == asn and path[-1] == origin
            index = propagator.indexer.index(asn)
            for hop in path[1:]:
                index = outcome.parent[index]
                assert propagator.indexer.asn(index) == hop
            assert outcome.parent[index] == -1


# -- RIB --------------------------------------------------------------------

#: In-range prefixes, plus a /6 and a /28 the length filter discards.
_PREFIXES = [
    Prefix(0x0A000000, 8),
    Prefix(0x0A000000, 16),
    Prefix(0x0A010000, 16),
    Prefix(0x0A010100, 24),
    Prefix(0xC0A80000, 24),
    Prefix(0x04000000, 6),
    Prefix(0x0A010110, 28),
]

_paths = st.lists(
    st.integers(min_value=1, max_value=9), min_size=1, max_size=6
).map(tuple)


@st.composite
def observation_batches(draw):
    path_pool = draw(st.lists(_paths, min_size=1, max_size=8))
    events = draw(
        st.lists(
            st.tuples(
                st.integers(0, len(_PREFIXES) - 1),
                st.integers(0, len(path_pool) - 1),
                st.booleans(),  # withdrawal
                st.booleans(),  # a fresh (equal, not identical) path object
            ),
            min_size=1,
            max_size=60,
        )
    )
    observations = []
    for prefix_index, path_index, withdrawal, fresh in events:
        path = path_pool[path_index]
        observations.append(
            RouteObservation(
                prefix=_PREFIXES[prefix_index],
                path=tuple(list(path)) if fresh else path,
                source="rrc00",
                withdrawal=withdrawal,
            )
        )
    cuts = sorted(
        draw(st.sets(st.integers(1, len(observations)), max_size=6))
        | {len(observations)}
    )
    batches, start = [], 0
    for cut in cuts:
        batches.append(observations[start:cut])
        start = cut
    return batches


def _rib_view(rib) -> dict:
    prefixes = rib.prefixes()
    live = [pid for pid in range(len(prefixes)) if rib.origins_of(pid)]
    return {
        "counters": (
            rib.num_accepted,
            rib.num_duplicates,
            rib.num_discarded,
            rib.num_withdrawals,
            rib.num_live_routes,
        ),
        "digest": rib.state_digest(),
        "prefixes": prefixes,
        # Contents, not iteration order: the columnar store builds
        # these from arrays, not in per-observation insertion order.
        # Prefixes stay ordered, because prefix ids are positional.
        "paths": set(rib.paths()),
        "adjacencies": set(rib.adjacencies()),
        "asns": set(rib.observed_asns()),
        "origins": [(rib.origin_of(pid), rib.origins_of(pid)) for pid in live],
        "members": [set(rib.path_members(pid)) for pid in live],
    }


class TestBatchIngestMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(observation_batches())
    def test_batches_equal_per_observation_ingest(self, batches):
        rib, reference = GlobalRIB(), ReferenceUnionRIB()
        for batch in batches:
            if len(batch) == 1:
                assert rib.add(batch[0]) == reference.add(batch[0])
            else:
                assert rib.add_all(batch) == reference.add_all(batch)
            assert _rib_view(rib) == _rib_view(reference)
        assert rib.num_withdrawals_ignored == rib.num_withdrawals
        assert rib.num_withdrawals_applied == 0

    def test_failing_stream_keeps_what_it_ingested(self):
        observations = [
            RouteObservation(_PREFIXES[0], (1, 2), "rrc00"),
            RouteObservation(_PREFIXES[0], (1, 2), "rrc00"),
            RouteObservation(_PREFIXES[5], (1, 2), "rrc00"),
            RouteObservation(_PREFIXES[0], (3,), "rrc00", withdrawal=True),
        ]

        def failing():
            yield from observations
            raise RuntimeError("feed broke")

        rib, reference = GlobalRIB(), ReferenceUnionRIB()
        with pytest.raises(RuntimeError):
            rib.add_all(failing())
        reference.add_all(observations)
        assert _rib_view(rib) == _rib_view(reference)
