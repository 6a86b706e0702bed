"""Scenario assembly: the full four-week synthetic trace.

``generate_traffic`` composes every traffic population into one
:class:`~repro.ixp.flows.FlowTable`:

1. per-member ground-truth source pools (incl. hidden arrangements),
2. member emission behaviours drawn from the Figure 5 Venn shape,
3. regular traffic (diurnal, heavy-tailed member volumes),
4. stray traffic (NAT leaks, router strays),
5. per-member baseline leaks (a trickle per emitting member, so that
   member-level class membership is observable at sampling scale),
6. attack events: spoofed floods and NTP amplification with partially
   visible amplifier responses.

Class volume fractions are configurable; defaults are roughly 10× the
paper's shares because the synthetic sampled volume is ~1000× smaller
than the real trace — the *relative* structure (which class is bigger,
by what order) is what the defaults preserve (see EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bgp.rib import GlobalRIB
from repro.datasets.zmap import NTPServerCensus, generate_ntp_census
from repro.ixp.flows import PROTO_TCP, PROTO_UDP, FlowTable, TruthLabel
from repro.ixp.model import IXP
from repro.obs.trace import trace
from repro.topology.model import ASTopology
from repro.traffic.addressing import (
    BogonSampler,
    IntervalSampler,
    build_unrouted_sampler,
)
from repro.traffic.attacks import (
    AmplificationEvent,
    AttackPlan,
    FloodEvent,
    _event_windows,
    emit_amplification,
    emit_flood,
)
from repro.traffic.behaviors import MemberBehavior, assign_behaviors
from repro.traffic.diurnal import DiurnalModel
from repro.traffic.forwarding import SourcePool, build_source_pools
from repro.traffic.poolsampler import PoolAddressSampler
from repro.traffic.regular import generate_regular, member_flow_counts
from repro.traffic.stray import generate_nat_leaks, generate_router_strays
from repro.util.timeconst import MEASUREMENT_SECONDS


@dataclass(slots=True)
class ScenarioConfig:
    """Knobs of the synthetic trace."""

    total_regular_rows: int = 200_000
    window_seconds: int = MEASUREMENT_SECONDS
    seed: int = 11

    #: Class budgets as fractions of total regular sampled packets.
    bogon_fraction: float = 0.002
    unrouted_fraction: float = 0.003
    invalid_flood_fraction: float = 0.0008
    ntp_trigger_fraction: float = 0.0045

    #: Split of the bogon budget between NAT leakage and bogon floods.
    nat_leak_share: float = 0.65
    #: Split of the unrouted budget that goes to gaming floods.
    gaming_share: float = 0.06
    #: Baseline leak volume as a multiple of volume × leak rate.
    baseline_rate_scale: float = 0.5
    #: Hard cap on baseline leak rows per member and class.
    baseline_max_rows: int = 60

    #: Router strays: fraction of a member's volume leaked by routers.
    router_stray_rate: float = 0.0022

    #: NTP amplification shape.
    ntp_attacker_count: int = 14
    dominant_ntp_share: float = 0.92
    ntp_events_per_attacker: float = 1.6
    amplifier_census_fraction: float = 0.16
    router_victim_fraction: float = 0.30
    response_visibility: float = 0.55
    n_ntp_servers: int = 2000

    #: Number of "hot" flood victims shared across attacks (Fig. 11a).
    hot_victim_count: int = 40
    flood_events_per_member: float = 1.3


@dataclass(slots=True)
class TrafficScenario:
    """The generated trace plus all ground truth the analyses need."""

    flows: FlowTable
    plan: AttackPlan
    behaviors: dict[int, MemberBehavior]
    pools: dict[int, SourcePool]
    census: NTPServerCensus
    diurnal: DiurnalModel
    config: ScenarioConfig


def generate_traffic(
    topo: ASTopology,
    ixp: IXP,
    rib: GlobalRIB,
    config: ScenarioConfig | None = None,
    census: NTPServerCensus | None = None,
    policies: dict | None = None,
    collector_peer_asns: set[int] | None = None,
) -> TrafficScenario:
    """Generate the full synthetic trace for one measurement window.

    ``policies`` (the announcement policies used for BGP simulation)
    align customer egress shares with announcements; without them all
    customers are treated as symmetric. ``collector_peer_asns`` are
    excluded from hosting attack traffic (see
    :func:`_small_cone_behaviors`).
    """
    config = config or ScenarioConfig()
    rng = np.random.default_rng(config.seed)
    members = list(ixp.member_asns)
    transit_members = {
        asn for asn in members if ixp.member(asn).transits_via_ixp
    }
    if policies:
        from repro.topology.policies import asymmetric_origins, primary_provider_map

        primaries = primary_provider_map(policies)
        asymmetric = asymmetric_origins(policies)
    else:
        primaries, asymmetric = {}, set()
    pools = build_source_pools(
        topo, members, transit_members,
        primary_providers=primaries, asymmetric_asns=asymmetric,
    )
    behaviors = assign_behaviors(rng, ixp)
    diurnal = DiurnalModel(rng, window_seconds=config.window_seconds)
    pool_sampler = PoolAddressSampler()

    routed_space = rib.routed_space()
    routed_sampler = IntervalSampler(routed_space)
    unrouted_sampler = build_unrouted_sampler(routed_space, rng)
    bogon_sampler = BogonSampler()
    if census is None:
        census = generate_ntp_census(
            rng, routed_space, n_servers=config.n_ntp_servers
        )

    with trace("world.traffic.regular", rows=config.total_regular_rows):
        regular = generate_regular(
            rng, ixp, pools, diurnal, config.total_regular_rows, pool_sampler
        )
    volumes = _member_packet_volumes(regular)
    total_packets = float(regular.packets.sum()) or 1.0
    member_array = np.array(members, dtype=np.int64)

    tables = [regular]
    with trace("world.traffic.stray"):
        tables.extend(
            _stray_tables(
                rng, topo, ixp, config, behaviors, volumes, total_packets,
                diurnal, pools, pool_sampler, member_array, bogon_sampler,
            )
        )
    with trace("world.traffic.leaks"):
        tables.append(
            _baseline_leaks(
                rng, config, behaviors, volumes, unrouted_sampler,
                routed_sampler, bogon_sampler, member_array, routed_space,
            )
        )

    with trace("world.traffic.attacks"):
        all_link_addrs = np.array(
            [addr for pair in topo.link_addresses.values() for addr in pair],
            dtype=np.uint64,
        )
        if all_link_addrs.size:
            routed_pids, _ = rib.lookup_many(all_link_addrs)
            routed_router_addrs = all_link_addrs[routed_pids >= 0]
        else:
            routed_router_addrs = all_link_addrs
        plan = _plan_attacks(
            rng, config, behaviors, volumes, total_packets, routed_sampler,
            census, topo, collector_peer_asns or set(), routed_router_addrs,
        )
        response_member_of = _response_member_map(rng, rib, pools)
        for event in plan.floods:
            dst_member = _other_member(rng, member_array, event.member)
            tables.append(
                emit_flood(
                    rng, event, unrouted_sampler, routed_sampler, bogon_sampler,
                    dst_member,
                )
            )
        for event in plan.amplifications:
            dst_member = _other_member(rng, member_array, event.member)
            trigger, response = emit_amplification(
                rng, event, dst_member, response_member_of,
                response_visibility=config.response_visibility,
            )
            tables.append(trigger)
            tables.append(response)

    flows = FlowTable.concat(tables).sort_by_time()
    return TrafficScenario(
        flows=flows,
        plan=plan,
        behaviors=behaviors,
        pools=pools,
        census=census,
        diurnal=diurnal,
        config=config,
    )


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _member_packet_volumes(regular: FlowTable) -> dict[int, float]:
    volumes: dict[int, float] = {}
    members, inverse = np.unique(regular.member, return_inverse=True)
    sums = np.zeros(members.size, dtype=np.float64)
    np.add.at(sums, inverse, regular.packets.astype(np.float64))
    for asn, total in zip(members.tolist(), sums.tolist()):
        volumes[int(asn)] = float(total)
    return volumes


def _other_member(
    rng: np.random.Generator, member_array: np.ndarray, member: int
) -> int:
    if member_array.size <= 1:
        return int(member_array[0]) if member_array.size else -1
    while True:
        candidate = int(rng.choice(member_array))
        if candidate != member:
            return candidate


def _stray_tables(
    rng, topo, ixp, config, behaviors, volumes, total_packets,
    diurnal, pools, pool_sampler, member_array, bogon_sampler,
) -> list[FlowTable]:
    tables: list[FlowTable] = []
    bogon_emitters = [b for b in behaviors.values() if b.emits_bogon]
    for behavior in bogon_emitters:
        volume = volumes.get(behavior.asn, 0.0)
        if volume < 20:
            continue  # would dominate a near-silent member's traffic
        expected = volume * behavior.bogon_rate * config.nat_leak_share
        n_rows = 1 + int(rng.poisson(max(0.5, expected)))
        n_rows = min(n_rows, max(2, int(volume * 0.10)))
        tables.append(
            generate_nat_leaks(
                rng, behavior.asn, n_rows, diurnal, pools, pool_sampler,
                member_array, bogon_sampler,
            )
        )
    for behavior in behaviors.values():
        if not behavior.router_stray:
            continue
        volume = volumes.get(behavior.asn, 0.0)
        n_rows = int(rng.poisson(max(1.0, volume * config.router_stray_rate)))
        tables.append(
            generate_router_strays(
                rng, behavior.asn, n_rows, topo, pools, pool_sampler,
                member_array, config.window_seconds,
            )
        )
    return tables


def _baseline_leaks(
    rng, config, behaviors, volumes, unrouted_sampler, routed_sampler,
    bogon_sampler, member_array, routed_space,
) -> FlowTable:
    """A trickle of single-packet spoofed rows per emitting member."""
    rows_src: list[np.ndarray] = []
    rows_member: list[np.ndarray] = []
    for behavior in behaviors.values():
        kinds = []
        if behavior.emits_unrouted:
            kinds.append(("unrouted", behavior.unrouted_rate))
        if behavior.emits_invalid:
            kinds.append(("invalid", behavior.invalid_rate))
        if behavior.emits_bogon:
            kinds.append(("bogon", behavior.bogon_rate))
        volume = volumes.get(behavior.asn, 0.0)
        if volume < 20:
            continue  # would dominate a near-silent member's traffic
        for kind, rate in kinds:
            expected = volume * rate * config.baseline_rate_scale
            n = 1 + int(rng.poisson(max(0.3, expected)))
            n = min(n, config.baseline_max_rows)
            if kind == "unrouted":
                src = unrouted_sampler.sample(rng, n)
            elif kind == "invalid":
                src = routed_sampler.sample(rng, n)
            else:
                src = bogon_sampler.sample(rng, n)
            rows_src.append(src)
            rows_member.append(np.full(n, behavior.asn, dtype=np.int64))
    if not rows_src:
        return FlowTable.empty()
    src = np.concatenate(rows_src)
    member = np.concatenate(rows_member)
    n = src.size
    is_tcp = rng.random(n) < 0.7
    proto = np.where(is_tcp, PROTO_TCP, PROTO_UDP).astype(np.uint8)
    dst_port = np.where(
        is_tcp,
        rng.choice(np.array([80, 443, 443], dtype=np.uint32), size=n),
        rng.integers(1024, 65536, size=n, dtype=np.uint32),
    ).astype(np.uint32)
    sizes = rng.normal(48, 6, size=n).clip(40, 90)
    packets = np.ones(n, dtype=np.int64)
    dst = routed_sampler.sample(rng, n)
    return FlowTable(
        src=src,
        dst=dst,
        proto=proto,
        src_port=rng.integers(1024, 65536, size=n, dtype=np.uint32),
        dst_port=dst_port,
        packets=packets,
        bytes=(packets * sizes).astype(np.int64),
        member=member,
        dst_member=rng.choice(member_array, size=n).astype(np.int64),
        time=rng.integers(0, config.window_seconds, size=n).astype(np.int64),
        truth=np.full(n, int(TruthLabel.SPOOF_FLOOD), dtype=np.uint8),
    )


def _small_cone_behaviors(behaviors, topo, avoid_asns=frozenset(), max_cone: int = 4) -> dict:
    """Members plausible as attack-traffic sources.

    Spoofed-source attacks originate from hosts inside edge networks
    (hosting boxes, compromised CPEs), not from the middle of a big
    carrier — and networks that feed route collectors are large,
    professionally run networks, not spoofing sources. Restricting
    routed-source attacks to small-cone, non-feeding members also
    keeps their triggers Invalid under every cone approach, as
    observed in the paper.
    """
    small = {
        asn: b
        for asn, b in behaviors.items()
        if len(topo.customer_cone(asn)) <= max_cone and asn not in avoid_asns
    }
    return small or behaviors


def _plan_attacks(
    rng, config, behaviors, volumes, total_packets, routed_sampler,
    census, topo, collector_peer_asns, router_addr_pool=None,
) -> AttackPlan:
    plan = AttackPlan()
    hot_victims = routed_sampler.sample(rng, config.hot_victim_count)
    edge_behaviors = _small_cone_behaviors(behaviors, topo, collector_peer_asns)

    def pick_victim() -> int:
        if hot_victims.size and rng.random() < 0.7:
            # Zipf over the hot list concentrates the top destinations.
            rank = min(
                int(rng.zipf(1.4)) - 1, hot_victims.size - 1
            )
            return int(hot_victims[rank])
        return int(routed_sampler.sample(rng, 1)[0])

    unrouted_budget = config.unrouted_fraction * total_packets
    invalid_budget = config.invalid_flood_fraction * total_packets
    bogon_flood_budget = (
        config.bogon_fraction * (1 - config.nat_leak_share) * total_packets
    )

    _plan_floods(
        rng, plan, config, behaviors, volumes, "unrouted",
        unrouted_budget * (1 - config.gaming_share), pick_victim,
        member_share_cap=0.08,
    )
    _plan_floods(
        rng, plan, config, behaviors, volumes, "unrouted",
        unrouted_budget * config.gaming_share, pick_victim,
        kind="gaming_flood", member_share_cap=0.08,
    )
    _plan_floods(
        rng, plan, config, behaviors, volumes, "bogon", bogon_flood_budget,
        pick_victim, member_share_cap=0.08,
    )
    _plan_floods(
        rng, plan, config, edge_behaviors, volumes, "routed_random",
        invalid_budget, pick_victim,
    )
    _plan_amplifications(
        rng, plan, config, edge_behaviors, total_packets, routed_sampler,
        census, topo, router_addr_pool,
    )
    return plan


def _plan_floods(
    rng, plan, config, behaviors, volumes, src_mode, budget, pick_victim,
    kind: str = "syn_flood",
    member_share_cap: float | None = None,
) -> None:
    flag = {
        "unrouted": "emits_unrouted",
        "bogon": "emits_bogon",
        "routed_random": "emits_invalid",
    }[src_mode]
    emitters = [b for b in behaviors.values() if getattr(b, flag)]
    if not emitters or budget < 1:
        return
    if member_share_cap is not None:
        sized = [b for b in emitters if volumes.get(b.asn, 0.0) >= 50]
        emitters = sized or emitters
    # Attack hosts are proportionally more likely in bigger networks.
    emitter_weights = np.array(
        [max(volumes.get(b.asn, 0.0), 1.0) for b in emitters]
    )
    emitter_probs = emitter_weights / emitter_weights.sum()
    # Heavy-tailed split of the budget over a handful of attack hosts.
    n_events = max(1, int(rng.poisson(config.flood_events_per_member * 3)))
    weights = rng.pareto(1.1, size=n_events) + 0.05
    packet_split = rng.multinomial(int(budget), weights / weights.sum())
    windows = _event_windows(rng, n_events, config.window_seconds)
    for (start, duration), packets in zip(windows, packet_split):
        if packets < 1:
            continue
        behavior = emitters[int(rng.choice(len(emitters), p=emitter_probs))]
        if member_share_cap is not None:
            # Keep the member's class share bounded (Fig. 4: bogon
            # tops out near 10%, unrouted near 9% in the paper).
            cap = int(volumes.get(behavior.asn, 0.0) * member_share_cap)
            packets = min(int(packets), max(cap, 1))
        plan.floods.append(
            FloodEvent(
                member=behavior.asn,
                victim_addr=pick_victim(),
                start=start,
                duration=duration,
                sampled_packets=int(packets),
                src_mode=src_mode,
                kind=kind,
            )
        )


def _plan_amplifications(
    rng, plan, config, behaviors, total_packets, routed_sampler, census,
    topo, router_addr_pool=None,
) -> None:
    emitters = [b for b in behaviors.values() if b.emits_invalid]
    if not emitters:
        return
    budget = int(config.ntp_trigger_fraction * total_packets)
    if budget < 10:
        return
    attackers = list(emitters)
    rng.shuffle(attackers)
    attackers = attackers[: config.ntp_attacker_count]
    dominant = attackers[0]
    shares = np.full(len(attackers), (1 - config.dominant_ntp_share) / max(1, len(attackers) - 1))
    shares[0] = config.dominant_ntp_share
    if router_addr_pool is not None and len(router_addr_pool):
        router_addrs = [int(a) for a in router_addr_pool]
    else:
        router_addrs = [
            addr
            for addrs in topo.link_addresses.values()
            for addr in addrs
        ]
    current_census = census.current()
    for attacker_rank, (behavior, share) in enumerate(zip(attackers, shares)):
        attacker_budget = int(budget * share)
        mean_events = config.ntp_events_per_attacker * (
            3.0 if attacker_rank == 0 else 1.0
        )
        n_events = max(1, int(rng.poisson(mean_events)))
        weights = rng.pareto(1.2, size=n_events) + 0.1
        split = rng.multinomial(attacker_budget, weights / weights.sum())
        windows = _event_windows(rng, n_events, config.window_seconds)
        for (start, duration), packets in zip(windows, split):
            if packets < 5:
                continue
            victim_is_router = (
                bool(router_addrs)
                and rng.random() < config.router_victim_fraction
            )
            victim = (
                int(router_addrs[int(rng.integers(0, len(router_addrs)))])
                if victim_is_router
                else int(routed_sampler.sample(rng, 1)[0])
            )
            # Alternate strategies so both Figure 11b shapes appear
            # even among the dominant attacker's events.
            strategy = (
                "concentrated"
                if len(plan.amplifications) % 2 == 0
                else "distributed"
            )
            if strategy == "concentrated":
                n_amp = int(rng.integers(5, 95))
            else:
                # Spray attacks contact thousands of amplifiers, but at
                # sampling scale each needs a chance to show up.
                n_amp = int(rng.integers(300, 3500))
                n_amp = min(n_amp, max(50, int(packets) * 2))
            amplifiers = _draw_amplifiers(
                rng, n_amp, current_census, routed_sampler,
                config.amplifier_census_fraction,
            )
            plan.amplifications.append(
                AmplificationEvent(
                    member=behavior.asn,
                    victim_addr=victim,
                    start=start,
                    duration=duration,
                    sampled_packets=int(packets),
                    amplifiers=amplifiers,
                    strategy=strategy,
                    victim_is_router=victim_is_router,
                )
            )
    del dominant


def _draw_amplifiers(
    rng, n_amp, census_addrs, routed_sampler, census_fraction
) -> np.ndarray:
    """Amplifier targets: partly census-known, mostly unknown servers."""
    n_known = int(n_amp * census_fraction)
    n_known = min(n_known, census_addrs.size)
    known = (
        rng.choice(census_addrs, size=n_known, replace=False)
        if n_known
        else np.zeros(0, dtype=np.uint64)
    )
    unknown = routed_sampler.sample(rng, n_amp - n_known)
    return np.unique(np.concatenate([known, unknown]).astype(np.uint64))


def _response_member_map(
    rng: np.random.Generator,
    rib: GlobalRIB,
    pools: dict[int, SourcePool],
) -> dict[int, int]:
    """Map each visible origin AS to one member that carries it.

    Used to route amplifier responses back across the fabric: an
    amplifier's responses are visible iff its origin AS appears in some
    member's visible pool. Returned keyed by *origin index-free* ASN
    lookup is done by the caller via the RIB.
    """
    from repro.traffic.forwarding import SourceKind

    # Prefer members that carry the origin as own/customer/sibling
    # space — a response forwarded by such a member is unambiguously
    # regular traffic; peer-cone carriers are a fallback.
    preferred_kinds = (SourceKind.OWN, SourceKind.CUSTOMER, SourceKind.SIBLING)
    origin_to_member: dict[int, int] = {}
    fallback: dict[int, int] = {}
    for member, pool in pools.items():
        for entry in pool.visible_entries():
            if entry.kind in preferred_kinds:
                origin_to_member.setdefault(entry.origin, member)
            else:
                fallback.setdefault(entry.origin, member)
    for origin, member in fallback.items():
        origin_to_member.setdefault(origin, member)
    # Translate to an address-level map lazily: the emitters look up
    # concrete amplifier addresses, so expose a resolver dict keyed by
    # address via a small proxy object.
    return _AmplifierMemberResolver(rib, origin_to_member)


class _AmplifierMemberResolver(dict):
    """dict-like: amplifier address → carrying member (via RIB origin)."""

    def __init__(self, rib: GlobalRIB, origin_to_member: dict[int, int]) -> None:
        super().__init__()
        self._rib = rib
        self._origin_to_member = origin_to_member

    def __contains__(self, addr: object) -> bool:  # type: ignore[override]
        return self._resolve(addr) is not None

    def __getitem__(self, addr):  # type: ignore[override]
        member = self._resolve(addr)
        if member is None:
            raise KeyError(addr)
        return member

    def _resolve(self, addr) -> int | None:
        cached = super().get(addr)  # type: ignore[arg-type]
        if cached is not None:
            return cached if cached >= 0 else None
        _prefix_id, origin_index = self._rib.lookup(int(addr))
        member: int | None = None
        if origin_index >= 0:
            origin = self._rib.indexer.asn(int(origin_index))
            member = self._origin_to_member.get(origin)
        super().__setitem__(addr, member if member is not None else -1)
        return member
