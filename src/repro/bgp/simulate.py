"""Drive route propagation and produce the observed BGP dataset.

One propagation run per (origin, distinct first-hop set) feeds every
observation point at once: each collector records paths at its peers,
and the IXP route server records the customer routes its members
export. A small churn model stamps a slice of the observations as
mid-window updates and marks some routes as withdrawn-later, so the
RIB builder exercises the dump + update union the paper performs.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from repro.bgp.collector import CollectorSystem
from repro.bgp.messages import RouteObservation
from repro.bgp.propagation import RoutePropagator, RouteType, RoutingOutcome
from repro.bgp.routeserver import RouteServer
from repro.net.prefix import Prefix
from repro.topology.model import ASTopology
from repro.topology.policies import AnnouncementPolicy
from repro.util.timeconst import MEASUREMENT_SECONDS

_CUSTOMER = int(RouteType.CUSTOMER)


def simulate_bgp(
    topo: ASTopology,
    policies: dict[int, AnnouncementPolicy],
    collectors: CollectorSystem,
    route_server: RouteServer | None,
    rng: np.random.Generator,
    churn_fraction: float = 0.04,
    rs_export_fraction: float = 0.55,
    failover_prob: float = 0.6,
) -> Iterator[RouteObservation]:
    """Yield every route observation of the measurement window.

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
        for group in policy.groups:
            if not group.prefixes:
                continue
            outcome = outcome_of(group.first_hops)
            yield from _collector_observations(
                collectors, outcome, group.prefixes, timestamp, churned
            )
            if route_server is not None:
                yield from _route_server_observations(
                    rs_targets, outcome, group.prefixes,
                    timestamp, churned, rng, rs_export_fraction,
                )
        yield from _failover_observations(
            topo, outcome_of, collectors, route_server, rs_targets,
            policy, rng, failover_prob, rs_export_fraction,
        )


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


def _failover_observations(
    topo: ASTopology,
    outcome_of: _OriginOutcomes,
    collectors: CollectorSystem,
    route_server: RouteServer | None,
    rs_targets: list[tuple[int, int | None]],
    policy: AnnouncementPolicy,
    rng: np.random.Generator,
    failover_prob: float,
    rs_export_fraction: float,
) -> Iterator[RouteObservation]:
    """Transient reroute of the open prefixes over backup providers."""
    origin = policy.origin
    node = topo.ases[origin]
    if len(node.providers) < 2 or rng.random() >= failover_prob:
        return
    open_groups = [g for g in policy.groups if g.first_hops is None and g.prefixes]
    if not open_groups:
        return
    failed = int(rng.choice(sorted(node.providers)))
    surviving = set(node.neighbors) - {failed}
    if not surviving:
        return
    timestamp = int(rng.integers(2, MEASUREMENT_SECONDS))
    # The failing link first withdraws the old best routes...
    stable = outcome_of(None)
    for group in open_groups:
        for collector in collectors.collectors:
            for peer in collector.peer_asns:
                old_path = stable.path_from(peer)
                if old_path is None or failed not in old_path:
                    continue
                for prefix in group.prefixes:
                    yield RouteObservation(
                        prefix=prefix,
                        path=old_path,
                        source=collector.name,
                        timestamp=timestamp - 1,
                        from_update=True,
                        withdrawal=True,
                    )
    # ...then the backup paths are announced.
    outcome = outcome_of(surviving)
    for group in open_groups:
        yield from _collector_observations(
            collectors, outcome, group.prefixes, timestamp, True
        )
        if route_server is not None:
            yield from _route_server_observations(
                rs_targets, outcome, group.prefixes,
                timestamp, True, rng, rs_export_fraction,
            )


def _collector_observations(
    collectors: CollectorSystem,
    outcome: RoutingOutcome,
    prefixes: list[Prefix],
    timestamp: int,
    from_update: bool,
) -> Iterator[RouteObservation]:
    for collector in collectors.collectors:
        source = collector.name
        for peer in collector.peer_asns:
            path = outcome.path_from(peer)
            if path is None:
                continue
            for prefix in prefixes:
                # Positional: keyword construction of this frozen
                # dataclass costs about 1.6× as much per observation.
                yield RouteObservation(prefix, path, source, timestamp, from_update)


def _route_server_observations(
    rs_targets: list[tuple[int, int | None]],
    outcome: RoutingOutcome,
    prefixes: list[Prefix],
    timestamp: int,
    from_update: bool,
    rng: np.random.Generator,
    rs_export_fraction: float,
) -> Iterator[RouteObservation]:
    """Customer routes the members export to the route server.

    One ``rng.random()`` draw per member holding a customer route other
    than the origin, in member order: the draw sequence is part of the
    simulated data.
    """
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
        for prefix in prefixes:
            yield RouteObservation(
                prefix, path, RouteServer.SOURCE_NAME, timestamp, from_update
            )
