"""Drive route propagation and produce the observed BGP dataset.

One propagation run per (origin, distinct first-hop set) feeds every
observation point at once: each collector records paths at its peers,
and the IXP route server records the customer routes its members
export. A small churn model stamps a slice of the observations as
mid-window updates and marks some routes as withdrawn-later, so the
RIB builder exercises the dump + update union the paper performs.

The result is one columnar :class:`~repro.bgp.messages.RouteBatch`.
Every observation point that holds a route adds one *block*: one path
and source over all of an announcement group's prefixes. The blocks
become columns once, at the end, so no per-observation object is made;
:meth:`~repro.bgp.messages.RouteBatch.observations` yields the rows in
the order a per-observation generator would.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import chain

import numpy as np

from repro.bgp.collector import CollectorSystem
from repro.bgp.messages import PathTable, RouteBatch
from repro.bgp.propagation import RoutePropagator, RouteType, RoutingOutcome
from repro.bgp.routeserver import RouteServer
from repro.net.prefix import Prefix
from repro.topology.model import ASTopology
from repro.topology.policies import AnnouncementGroup, AnnouncementPolicy
from repro.util.indexing import csr_positions
from repro.util.timeconst import MEASUREMENT_SECONDS

_CUSTOMER = int(RouteType.CUSTOMER)


class _Blocks:
    """The batch under construction: one block per observation point.

    A block is ``(group, path id, source id, timestamp, from_update,
    withdrawal)``; its rows are the announcement group's prefixes, in
    order. The blocks are kept as one flat list of ints, which becomes
    a ``(blocks, 6)`` array in one ``np.fromiter``.
    """

    def __init__(self, sources: list[str]) -> None:
        self.sources = sources
        self.source_ids = {name: i for i, name in enumerate(sources)}
        self.prefixes: list[Prefix] = []
        self._prefix_ids: dict[Prefix, int] = {}
        self._groups: list[list[int]] = []
        self.paths = PathTable()
        self.blocks: list[int] = []

    def group(self, prefixes: list[Prefix]) -> int:
        """Register one announcement group's prefixes; returns its id."""
        ids = self._prefix_ids
        for prefix in prefixes:
            if prefix not in ids:
                ids[prefix] = len(self.prefixes)
                self.prefixes.append(prefix)
        self._groups.append(list(map(ids.__getitem__, prefixes)))
        return len(self._groups) - 1

    def add(
        self,
        group: int,
        path: tuple[int, ...],
        source: int,
        timestamp: int,
        from_update: bool,
        withdrawal: bool = False,
    ) -> None:
        self.blocks.extend(
            (group, self.paths.intern(path), source,
             timestamp, from_update, withdrawal)
        )

    def batch(self) -> RouteBatch:
        group, path, source, timestamp, from_update, withdrawal = (
            np.fromiter(self.blocks, np.int64, len(self.blocks))
            .reshape(-1, 6).T
        )
        lengths = np.fromiter(
            map(len, self._groups), np.int64, len(self._groups)
        )
        offsets = np.zeros(lengths.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        members = np.fromiter(
            chain.from_iterable(self._groups), np.int64, int(offsets[-1])
        )
        sizes = lengths[group]
        return RouteBatch(
            prefixes=self.prefixes, paths=self.paths, sources=self.sources,
            prefix=members[csr_positions(offsets, group)],
            path=np.repeat(path, sizes), source=np.repeat(source, sizes),
            timestamp=np.repeat(timestamp, sizes),
            from_update=np.repeat(from_update.astype(bool), sizes),
            withdrawal=np.repeat(withdrawal.astype(bool), sizes),
        )


def simulate_bgp(
    topo: ASTopology,
    policies: dict[int, AnnouncementPolicy],
    collectors: CollectorSystem,
    route_server: RouteServer | None,
    rng: np.random.Generator,
    churn_fraction: float = 0.04,
    rs_export_fraction: float = 0.55,
    failover_prob: float = 0.6,
) -> RouteBatch:
    """Every route observation of the measurement window, as one batch.

    ``churn_fraction`` of origins are announced only from a random
    point mid-window (their observations carry ``from_update=True``).
    ``rs_export_fraction`` — probability that a member exports a given
    customer route to the route server at all: members commonly apply
    selective export policies at route servers, which is one of the
    visibility gaps that make the Naive approach overcount Invalid.
    ``failover_prob`` — probability that a multihomed edge origin
    experiences a primary-link failure sometime during the four weeks,
    briefly rerouting its *openly announced* prefixes over the backup
    providers. The resulting updates expose backup AS links (helping
    the origin-granularity cones) without ever exposing paths for the
    selectively announced prefixes (the Naive gap stays).
    """
    propagator = RoutePropagator(topo)
    blocks = _Blocks(
        [collector.name for collector in collectors.collectors]
        + [RouteServer.SOURCE_NAME]
    )
    rs_members = set(route_server.member_asns) if route_server else set()
    # Dense indices of the route-server members, in the set's order.
    rs_targets = [
        (member, propagator.indexer.index_or_none(member))
        for member in rs_members
    ]
    for origin in sorted(policies):
        policy = policies[origin]
        churned = rng.random() < churn_fraction
        timestamp = int(rng.integers(1, MEASUREMENT_SECONDS)) if churned else 0
        outcome_of = _OriginOutcomes(propagator, origin)
        groups = [
            (group, blocks.group(group.prefixes))
            for group in policy.groups
            if group.prefixes
        ]
        for group, group_id in groups:
            outcome = outcome_of(group.first_hops)
            _collector_blocks(
                blocks, collectors, outcome, group_id, timestamp, churned
            )
            if route_server is not None:
                _route_server_blocks(
                    blocks, rs_targets, outcome, group_id,
                    timestamp, churned, rng, rs_export_fraction,
                )
        _failover_blocks(
            blocks, topo, outcome_of, collectors, route_server, rs_targets,
            policy.origin, groups, rng, failover_prob, rs_export_fraction,
        )
    return blocks.batch()


class _OriginOutcomes:
    """One propagation per distinct first-hop set of one origin.

    Groups announced to the same neighbors, and the failover's
    pre-failure routes, share one :class:`RoutingOutcome` (and with it
    the outcome's memoised paths).
    """

    def __init__(self, propagator: RoutePropagator, origin: int) -> None:
        self._propagator = propagator
        self._origin = origin
        self._outcomes: dict[frozenset[int] | None, RoutingOutcome] = {}

    def __call__(self, first_hops: Iterable[int] | None = None) -> RoutingOutcome:
        key = None if first_hops is None else frozenset(first_hops)
        outcome = self._outcomes.get(key)
        if outcome is None:
            outcome = self._propagator.propagate(self._origin, first_hops)
            self._outcomes[key] = outcome
        return outcome


def _failover_blocks(
    blocks: _Blocks,
    topo: ASTopology,
    outcome_of: _OriginOutcomes,
    collectors: CollectorSystem,
    route_server: RouteServer | None,
    rs_targets: list[tuple[int, int | None]],
    origin: int,
    groups: list[tuple[AnnouncementGroup, int]],
    rng: np.random.Generator,
    failover_prob: float,
    rs_export_fraction: float,
) -> None:
    """Transient reroute of the open prefixes over backup providers."""
    node = topo.ases[origin]
    if len(node.providers) < 2 or rng.random() >= failover_prob:
        return
    open_ids = [
        group_id for group, group_id in groups if group.first_hops is None
    ]
    if not open_ids:
        return
    failed = int(rng.choice(sorted(node.providers)))
    surviving = set(node.neighbors) - {failed}
    if not surviving:
        return
    timestamp = int(rng.integers(2, MEASUREMENT_SECONDS))
    # The failing link first withdraws the old best routes...
    stable = outcome_of(None)
    for group_id in open_ids:
        for collector in collectors.collectors:
            source = blocks.source_ids[collector.name]
            for peer in collector.peer_asns:
                old_path = stable.path_from(peer)
                if old_path is None or failed not in old_path:
                    continue
                blocks.add(group_id, old_path, source, timestamp - 1,
                           True, True)
    # ...then the backup paths are announced.
    outcome = outcome_of(surviving)
    for group_id in open_ids:
        _collector_blocks(
            blocks, collectors, outcome, group_id, timestamp, True
        )
        if route_server is not None:
            _route_server_blocks(
                blocks, rs_targets, outcome, group_id,
                timestamp, True, rng, rs_export_fraction,
            )


def _collector_blocks(
    blocks: _Blocks,
    collectors: CollectorSystem,
    outcome: RoutingOutcome,
    group: int,
    timestamp: int,
    from_update: bool,
) -> None:
    for collector in collectors.collectors:
        source = blocks.source_ids[collector.name]
        for peer in collector.peer_asns:
            path = outcome.path_from(peer)
            if path is not None:
                blocks.add(group, path, source, timestamp, from_update)


def _route_server_blocks(
    blocks: _Blocks,
    rs_targets: list[tuple[int, int | None]],
    outcome: RoutingOutcome,
    group: int,
    timestamp: int,
    from_update: bool,
    rng: np.random.Generator,
    rs_export_fraction: float,
) -> None:
    """Customer routes the members export to the route server.

    One ``rng.random()`` draw per member holding a customer route other
    than the origin, in member order: the draw sequence is part of the
    simulated data.
    """
    source = blocks.source_ids[RouteServer.SOURCE_NAME]
    rtype = outcome.rtype
    for member, index in rs_targets:
        if member == outcome.origin:
            path: tuple[int, ...] | None = (member,)
        elif index is not None and rtype[index] == _CUSTOMER:
            if rng.random() >= rs_export_fraction:
                continue  # member's RS export policy skips this route
            path = outcome.path_from(member)
        else:
            continue
        blocks.add(group, path, source, timestamp, from_update)
