"""Generator for the synthetic tiered AS topology.

The generated topology reproduces the structural properties the paper's
measurements rest on:

* a small tier-1 clique providing transit to everyone,
* a regional-transit middle tier,
* a heavy-tailed edge (ISPs, hosters, content networks, enterprises)
  attaching to 1–3 providers via preferential attachment,
* settlement-free peering inside and across tiers,
* multi-AS organizations (some invisible to AS2Org, only in WHOIS),
* provider-assigned address space used across providers,
* partial-transit "peer" links and tunnels (the Section 4.4 cases),
* allocated-but-unannounced (dark) space, and
* numbered transit-link /30s (router interface addresses, Section 5.2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.net.prefix import Prefix
from repro.topology.model import ASNode, ASTopology, BusinessType, Relationship
from repro.topology.prefixalloc import PrefixAllocator

#: Edge business-type mix (tier-3 ASes). Tiers 1–2 are NSPs.
_EDGE_TYPE_MIX: tuple[tuple[BusinessType, float], ...] = (
    (BusinessType.ISP, 0.34),
    (BusinessType.HOSTING, 0.20),
    (BusinessType.CONTENT, 0.12),
    (BusinessType.OTHER, 0.34),
)

#: Prefix-length menus per business type: (lengths, weights).
_PREFIX_MENU: dict[BusinessType, tuple[tuple[int, ...], tuple[float, ...]]] = {
    BusinessType.NSP: ((13, 14, 15, 16, 17), (0.1, 0.2, 0.3, 0.25, 0.15)),
    BusinessType.ISP: ((15, 16, 17, 18, 19), (0.1, 0.25, 0.3, 0.2, 0.15)),
    BusinessType.HOSTING: ((18, 19, 20, 21, 22), (0.15, 0.25, 0.25, 0.2, 0.15)),
    BusinessType.CONTENT: ((18, 19, 20, 21), (0.2, 0.3, 0.3, 0.2)),
    BusinessType.OTHER: ((21, 22, 23, 24), (0.15, 0.3, 0.3, 0.25)),
}


@dataclass(slots=True)
class TopologyConfig:
    """Knobs of the synthetic topology generator."""

    n_ases: int = 2000
    n_tier1: int = 10
    tier2_fraction: float = 0.12
    #: Mean extra providers beyond the mandatory first (multihoming).
    mean_extra_providers: float = 0.8
    #: Probability of a peering link between two tier-2 ASes.
    tier2_peering_prob: float = 0.08
    #: Number of random edge–edge peering links per edge AS (mean).
    edge_peering_mean: float = 0.3
    #: Fraction of ASes pooled into multi-AS organizations.
    multi_as_fraction: float = 0.10
    #: Fraction of multi-AS orgs invisible to AS2Org (WHOIS-only).
    hidden_org_fraction: float = 0.25
    #: Fraction of sibling pairs with a BGP-visible link.
    visible_sibling_link_prob: float = 0.5
    #: Mean number of announced prefixes per AS (heavy-tailed around it).
    mean_prefixes: float = 2.2
    #: Probability an AS also holds dark (never-announced) space.
    dark_space_prob: float = 0.25
    #: Probability a multihomed edge AS gets provider-assigned space.
    pa_space_prob: float = 0.10
    #: Fraction of peer links that secretly carry partial transit.
    partial_transit_prob: float = 0.06
    #: Number of tunnel arrangements (Section 4.4 cloud case).
    n_tunnels: int = 3
    #: Fraction of edge ASes with a BGP-invisible backup transit link.
    backup_transit_fraction: float = 0.03
    #: Probability a transit link /30 comes from announced provider
    #: space (else from dark infrastructure space).
    numbered_from_announced_prob: float = 0.6
    seed: int = 7


def generate_topology(config: TopologyConfig | None = None) -> ASTopology:
    """Build a ground-truth :class:`ASTopology` from ``config``."""
    config = config or TopologyConfig()
    if config.n_ases < config.n_tier1 + 2:
        raise ValueError("n_ases too small for the requested tier-1 clique")
    rng = np.random.default_rng(config.seed)
    topo = ASTopology()

    asns = list(range(1, config.n_ases + 1))
    n_tier2 = max(2, int(config.tier2_fraction * config.n_ases))
    tier1 = asns[: config.n_tier1]
    tier2 = asns[config.n_tier1 : config.n_tier1 + n_tier2]
    edge = asns[config.n_tier1 + n_tier2 :]

    org_plan = _assign_organizations(rng, config, asns, topo)
    _create_nodes(rng, topo, tier1, tier2, edge, org_plan)
    _wire_transit(rng, config, topo, tier1, tier2, edge)
    _wire_peering(rng, config, topo, tier2, edge)
    _wire_siblings(rng, config, topo)
    allocator = PrefixAllocator(rng)
    _allocate_prefixes(rng, config, topo, allocator)
    _assign_pa_space(rng, config, topo)
    _mark_partial_transit(rng, config, topo)
    _mark_tunnels(rng, config, topo)
    _mark_backup_transit(rng, config, topo, tier2)
    _number_transit_links(rng, config, topo, allocator)
    return topo


# ---------------------------------------------------------------------------
# construction stages
# ---------------------------------------------------------------------------


def _assign_organizations(
    rng: np.random.Generator,
    config: TopologyConfig,
    asns: list[int],
    topo: ASTopology,
) -> dict[int, int]:
    """Pre-assign an org id to every ASN; returns asn → org_id."""
    pool = list(asns)
    rng.shuffle(pool)
    n_multi = int(config.multi_as_fraction * len(pool))
    multi_pool, single_pool = pool[:n_multi], pool[n_multi:]

    assignment: dict[int, int] = {}
    org_id = 1
    hidden: list[int] = []
    index = 0
    while index < len(multi_pool):
        size = 2 + int(rng.geometric(0.55))
        members = multi_pool[index : index + size]
        index += size
        if len(members) < 2:
            single_pool.extend(members)
            break
        for asn in members:
            assignment[asn] = org_id
        if rng.random() < config.hidden_org_fraction:
            hidden.append(org_id)
        org_id += 1
    for asn in single_pool:
        assignment[asn] = org_id
        org_id += 1

    topo._hidden_org_ids = set(hidden)  # consumed by datasets.as2org
    return assignment


def _create_nodes(
    rng: np.random.Generator,
    topo: ASTopology,
    tier1: list[int],
    tier2: list[int],
    edge: list[int],
    org_of: dict[int, int],
) -> None:
    for asn in tier1:
        topo.add_as(ASNode(asn, BusinessType.NSP, tier=1, org_id=org_of[asn]))
    for asn in tier2:
        topo.add_as(ASNode(asn, BusinessType.NSP, tier=2, org_id=org_of[asn]))
    types, weights = zip(*_EDGE_TYPE_MIX)
    choices = rng.choice(len(types), size=len(edge), p=np.array(weights))
    for asn, type_index in zip(edge, choices):
        topo.add_as(
            ASNode(asn, types[type_index], tier=3, org_id=org_of[asn])
        )
    # Mark hidden orgs on the Organization records created by add_as.
    for org_id in getattr(topo, "_hidden_org_ids", set()):
        if org_id in topo.orgs:
            topo.orgs[org_id].in_as2org = False


def _wire_transit(
    rng: np.random.Generator,
    config: TopologyConfig,
    topo: ASTopology,
    tier1: list[int],
    tier2: list[int],
    edge: list[int],
) -> None:
    # Tier-1 clique.
    for i, a in enumerate(tier1):
        for b in tier1[i + 1 :]:
            topo.add_link(a, b, Relationship.PEER)
    # Tier-2: customers of 1–3 tier-1s.
    for asn in tier2:
        n_prov = 1 + int(rng.poisson(config.mean_extra_providers))
        providers = rng.choice(tier1, size=min(n_prov, len(tier1)), replace=False)
        for provider in providers:
            topo.add_link(asn, int(provider), Relationship.CUSTOMER_OF)
    # Edge: preferential attachment to tier-2 (mostly) and tier-1 (rarely).
    attach_weight = {asn: 1.0 for asn in tier2}
    for asn in edge:
        n_prov = 1 + int(rng.poisson(config.mean_extra_providers))
        n_prov = min(n_prov, 3)
        chosen: set[int] = set()
        for _ in range(n_prov):
            if rng.random() < 0.20:
                provider = int(rng.choice(tier1))
            else:
                candidates = list(attach_weight)
                weights = np.array([attach_weight[c] for c in candidates])
                provider = int(
                    rng.choice(candidates, p=weights / weights.sum())
                )
            if provider in chosen or provider == asn:
                continue
            chosen.add(provider)
            topo.add_link(asn, provider, Relationship.CUSTOMER_OF)
            if provider in attach_weight:
                attach_weight[provider] += 1.0
        # A slice of edge ASes resell transit: make them attachable too.
        if topo.node(asn).business_type is BusinessType.ISP and rng.random() < 0.12:
            attach_weight[asn] = 0.5


def _wire_peering(
    rng: np.random.Generator,
    config: TopologyConfig,
    topo: ASTopology,
    tier2: list[int],
    edge: list[int],
) -> None:
    for i, a in enumerate(tier2):
        for b in tier2[i + 1 :]:
            if topo.relationship(a, b) is None and rng.random() < config.tier2_peering_prob:
                topo.add_link(a, b, Relationship.PEER)
    n_edge_peerings = int(config.edge_peering_mean * len(edge))
    if len(edge) >= 2:
        for _ in range(n_edge_peerings):
            a, b = (int(x) for x in rng.choice(edge, size=2, replace=False))
            if topo.relationship(a, b) is None:
                topo.add_link(a, b, Relationship.PEER)


def _wire_siblings(
    rng: np.random.Generator, config: TopologyConfig, topo: ASTopology
) -> None:
    for org in topo.orgs.values():
        members = sorted(org.asns)
        if len(members) < 2:
            continue
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                if topo.relationship(a, b) is not None:
                    continue
                if rng.random() < config.visible_sibling_link_prob:
                    topo.add_link(a, b, Relationship.SIBLING)
                # else: the org link stays invisible to BGP entirely —
                # only the AS2Org/WHOIS merge can recover it.


def _allocate_prefixes(
    rng: np.random.Generator,
    config: TopologyConfig,
    topo: ASTopology,
    allocator: PrefixAllocator,
) -> None:
    for asn in sorted(topo.ases):
        node = topo.node(asn)
        menu_lengths, menu_weights = _PREFIX_MENU[node.business_type]
        count = max(1, int(rng.poisson(config.mean_prefixes - 1)) + 1)
        if node.tier == 1:
            count += 2  # the core announces more space
        for _ in range(count):
            length = int(
                rng.choice(menu_lengths, p=np.array(menu_weights))
            )
            node.prefixes.append(allocator.allocate(length))
        if rng.random() < config.dark_space_prob:
            dark_length = int(rng.integers(19, 23))
            node.dark_prefixes.append(allocator.allocate(dark_length))


def _assign_pa_space(
    rng: np.random.Generator, config: TopologyConfig, topo: ASTopology
) -> None:
    for asn in sorted(topo.ases):
        node = topo.node(asn)
        if node.tier != 3 or len(node.providers) < 2:
            continue
        if rng.random() >= config.pa_space_prob:
            continue
        provider = int(rng.choice(sorted(node.providers)))
        parent = _largest_prefix(topo.node(provider))
        if parent is None or parent.length > 22:
            continue
        # Carve a /24 out of the provider's announced block.
        offset = int(rng.integers(0, parent.num_addresses // 256)) * 256
        pa_prefix = Prefix(parent.network + offset, 24)
        topo.pa_assignments.append((asn, provider, pa_prefix))


def _mark_partial_transit(
    rng: np.random.Generator, config: TopologyConfig, topo: ASTopology
) -> None:
    for a, b, rel in topo.all_links():
        if rel is not Relationship.PEER:
            continue
        if rng.random() >= config.partial_transit_prob:
            continue
        carrier, peer = (a, b) if rng.random() < 0.5 else (b, a)
        topo.partial_transit.add((carrier, peer))


def _mark_tunnels(
    rng: np.random.Generator, config: TopologyConfig, topo: ASTopology
) -> None:
    edge_asns = [asn for asn, node in topo.ases.items() if node.tier == 3]
    content = [
        asn
        for asn in edge_asns
        if topo.node(asn).business_type in (BusinessType.CONTENT, BusinessType.HOSTING)
    ]
    if len(edge_asns) < 2 or not content:
        return
    for _ in range(config.n_tunnels):
        carrier = int(rng.choice(edge_asns))
        origin = int(rng.choice(content))
        if carrier != origin:
            topo.tunnels.add((carrier, origin))


def _mark_backup_transit(
    rng: np.random.Generator,
    config: TopologyConfig,
    topo: ASTopology,
    tier2: list[int],
) -> None:
    """Backup transit that carries no routes during the window.

    The link is intentionally *not* wired into the relationship sets:
    route propagation never sees it, so no BGP path exposes it. Only
    WHOIS (and the ground-truth source pools) know about it.
    """
    if not tier2:
        return
    edge_asns = [asn for asn, node in topo.ases.items() if node.tier == 3]
    for asn in edge_asns:
        if rng.random() >= config.backup_transit_fraction:
            continue
        candidates = [p for p in tier2 if p not in topo.node(asn).providers]
        if not candidates:
            continue
        provider = int(rng.choice(candidates))
        topo.backup_transit.add((provider, asn))


def _number_transit_links(
    rng: np.random.Generator,
    config: TopologyConfig,
    topo: ASTopology,
    allocator: PrefixAllocator,
) -> None:
    infra_block: list[int] | None = None  # [cursor, end] into dark infra space
    for a, b, rel in topo.all_links():
        if rel not in (Relationship.CUSTOMER_OF, Relationship.PROVIDER_OF):
            continue
        provider, customer = (b, a) if rel is Relationship.CUSTOMER_OF else (a, b)
        if rng.random() < config.numbered_from_announced_prob:
            parent = _largest_prefix(topo.node(provider))
            if parent is None:
                continue
            slots = parent.num_addresses // 4
            slot = int(rng.integers(0, slots))
            base = parent.network + slot * 4
        else:
            if infra_block is None or infra_block[0] + 4 > infra_block[1]:
                infra = allocator.allocate(18)
                infra_block = [infra.first, infra.last + 1]
            base = infra_block[0]
            infra_block[0] += 4
        # .1 = provider side, .2 = customer side of the /30.
        topo.link_addresses[(provider, customer)] = (base + 1, base + 2)


def _largest_prefix(node: ASNode) -> Prefix | None:
    if not node.prefixes:
        return None
    return min(node.prefixes, key=lambda p: p.length)
