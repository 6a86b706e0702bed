"""Differential tests of the columnar route ingest.

``GlobalRIB.add_all`` folds a :class:`~repro.bgp.messages.RouteBatch`
with numpy; observation objects are converted to a batch and take the
same fold. These tests hold that fold against two constructions that
share none of its array code: the per-observation oracle
(``tests/reference_rib.py``) and :meth:`GlobalRIB.apply`, the per-event
pure-Python path. The inputs carry out-of-range prefix lengths,
duplicates, withdrawals, repeated ``add_all`` calls onto a non-empty
RIB and streams that fail part-way.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.messages import RouteBatch, RouteObservation
from repro.bgp.rib import GlobalRIB
from tests.reference_rib import ReferenceUnionRIB
from tests.test_bgp_reference import _PREFIXES, _rib_view, observation_batches

_ADDRS = np.array(
    [p.first + offset for p in _PREFIXES for offset in (0, 255, 300)],
    dtype=np.uint64,
)


def _contents(rib) -> dict:
    """Every accessor's content, without the union-mode counters."""
    view = _rib_view(rib)
    del view["counters"]
    return view


def _member_pairs(rib: GlobalRIB) -> set[tuple[int, int]]:
    return set(zip(*(column.tolist() for column in rib.path_member_pairs())))


def _final_view(rib: GlobalRIB) -> tuple:
    prefix_ids, origins = rib.lookup_many(_ADDRS)
    return (
        rib.indexer.asns(),
        prefix_ids.tolist(),
        origins.tolist(),
        rib.exclusive_slash24s_per_prefix().tolist(),
        rib.exclusive_slash24s_per_origin().tolist(),
    )


def _failing(observations):
    yield from observations
    raise RuntimeError("feed broke")


class TestRouteBatch:
    @settings(max_examples=100, deadline=None)
    @given(observation_batches())
    def test_observations_round_trip_in_order(self, batches):
        observations = [o for batch in batches for o in batch]
        batch = RouteBatch.from_observations(observations)
        assert len(batch) == len(observations)
        assert list(batch.observations()) == observations

    def test_empty_batch(self):
        batch = RouteBatch.from_observations(())
        assert len(batch) == 0 and list(batch.observations()) == []
        rib = GlobalRIB()
        assert rib.add_all(batch) == 0
        assert rib.num_live_routes == 0 and list(rib.paths()) == []


class TestBatchIngestMatchesObjectsAndReference:
    @settings(max_examples=200, deadline=None)
    @given(observation_batches())
    def test_every_accessor_and_digest_agree(self, batches):
        by_batch, by_objects = GlobalRIB(), GlobalRIB()
        reference = ReferenceUnionRIB()
        for chunk in batches:
            accepted = reference.add_all(chunk)
            batch = RouteBatch.from_observations(chunk)
            assert by_batch.add_all(batch) == accepted
            assert by_objects.add_all(iter(chunk)) == accepted
            view = _rib_view(reference)
            assert _rib_view(by_batch) == view
            assert _rib_view(by_objects) == view
            pairs = {
                (pid, asn)
                for pid in range(by_batch.num_prefixes)
                for asn in reference.path_members(pid)
            }
            assert _member_pairs(by_batch) == pairs
            assert by_batch.num_paths == len(set(reference.paths()))

    @settings(max_examples=100, deadline=None)
    @given(observation_batches(), st.data())
    def test_failing_stream_keeps_what_it_delivered(self, batches, data):
        observations = [o for batch in batches for o in batch]
        cut = data.draw(st.integers(0, len(observations)))
        rib, reference = GlobalRIB(), ReferenceUnionRIB()
        reference.add_all(batches[0])
        rib.add_all(RouteBatch.from_observations(batches[0]))
        with pytest.raises(RuntimeError):
            rib.add_all(_failing(observations[:cut]))
        reference.add_all(observations[:cut])
        assert _rib_view(rib) == _rib_view(reference)

    @settings(max_examples=100, deadline=None)
    @given(observation_batches())
    def test_fold_equals_per_event_announcements(self, batches):
        """Without withdrawals, union and delta semantics coincide: the
        fold must leave what one ``apply`` per announcement leaves."""
        announcements = [
            o for batch in batches for o in batch if not o.withdrawal
        ]
        folded, applied = GlobalRIB(), GlobalRIB()
        folded.add_all(RouteBatch.from_observations(announcements))
        for observation in announcements:
            applied.apply(observation)
        assert _contents(folded) == _contents(applied)
        assert _member_pairs(folded) == _member_pairs(applied)
        assert folded.num_accepted == applied.num_accepted
        assert folded.num_duplicates == applied.num_duplicates
        assert folded.num_discarded == applied.num_discarded


@st.composite
def warm_up_and_events(draw):
    batches = draw(observation_batches())
    warm = [o for batch in batches for o in batch]
    paths = sorted({o.path for o in warm})
    events = draw(
        st.lists(
            st.builds(
                RouteObservation,
                prefix=st.sampled_from(_PREFIXES),
                path=st.sampled_from(paths),
                source=st.just("rrc00"),
                withdrawal=st.booleans(),
            ),
            max_size=30,
        )
    )
    return warm, events


class TestApplyAfterBatchIngest:
    @settings(max_examples=150, deadline=None)
    @given(warm_up_and_events())
    def test_deltas_and_views_equal_at_every_step(self, warm_and_events):
        warm, events = warm_and_events
        by_batch, by_objects = GlobalRIB(), GlobalRIB()
        by_batch.add_all(RouteBatch.from_observations(warm))
        for observation in warm:
            by_objects.add(observation)
        if by_batch.live_prefix_ids():
            by_batch.finalize()
            by_objects.finalize()
        for event in events:
            assert by_batch.apply(event) == by_objects.apply(event)
            assert _rib_view(by_batch) == _rib_view(by_objects)
            assert _member_pairs(by_batch) == _member_pairs(by_objects)
            if by_batch.live_prefix_ids():
                assert _final_view(by_batch) == _final_view(by_objects)
