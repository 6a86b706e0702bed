"""World assembly: topology → BGP → cones → IXP → traffic → labels."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from repro.bgp.collector import CollectorSystem
from repro.bgp.rib import GlobalRIB
from repro.bgp.simulate import simulate_bgp
from repro.core.classifier import FailurePolicy, SpoofingClassifier
from repro.core.results import ClassificationResult, StreamClassificationResult
from repro.cones.base import ValidSpaceMap
from repro.cones.customer_cone import CustomerConeValidSpace
from repro.cones.full_cone import FullConeValidSpace
from repro.cones.naive import NaiveValidSpace
from repro.cones.orgs import apply_org_merge
from repro.datasets.as2org import As2OrgDataset, build_as2org
from repro.experiments.config import WorldConfig
from repro.ixp.model import IXP, select_members
from repro.obs.trace import trace
from repro.topology.generator import generate_topology
from repro.topology.model import ASTopology
from repro.topology.policies import AnnouncementPolicy, build_policies
from repro.traffic.scenario import TrafficScenario, generate_traffic

logger = logging.getLogger(__name__)

#: The approaches every world carries, in Table 1 column order.
APPROACHES = ("naive", "cc", "full", "naive+orgs", "cc+orgs", "full+orgs")

#: The approach all Section 5–7 analyses use (the paper's choice).
PRIMARY_APPROACH = "full+orgs"


@dataclass(slots=True)
class World:
    """One fully built synthetic measurement study."""

    config: WorldConfig
    topo: ASTopology
    policies: dict[int, AnnouncementPolicy]
    collectors: CollectorSystem
    ixp: IXP
    rib: GlobalRIB
    as2org: As2OrgDataset
    approaches: dict[str, ValidSpaceMap]
    classifier: SpoofingClassifier
    scenario: TrafficScenario | None = None
    result: ClassificationResult | None = None
    extras: dict = field(default_factory=dict)

    @property
    def primary(self) -> str:
        return PRIMARY_APPROACH


def build_valid_space_maps(
    rib: GlobalRIB, as2org: As2OrgDataset
) -> dict[str, ValidSpaceMap]:
    """All five inference variants of Figure 2 (plus naive+orgs)."""
    naive = NaiveValidSpace(rib)
    cc = CustomerConeValidSpace(rib)
    full = FullConeValidSpace(rib)
    mapping = as2org.asn_to_org()
    return {
        "naive": naive,
        "cc": cc,
        "full": full,
        "naive+orgs": apply_org_merge(naive, mapping),
        "cc+orgs": apply_org_merge(cc, mapping),
        "full+orgs": apply_org_merge(full, mapping),
    }


def build_world(
    config: WorldConfig | None = None,
    with_traffic: bool = True,
    classify: bool = True,
    keep_observations: bool = False,
) -> World:
    """Build the full study. Set ``with_traffic=False`` for BGP-only
    experiments (e.g. Figure 2), which are much faster.

    ``keep_observations=True`` retains the raw BGP observation stream
    in ``world.extras["observations"]`` so the online pipeline
    (``repro watch``) can replay table dumps as warm-up state and
    updates as live route events.
    """
    config = config or WorldConfig.default()
    rng = np.random.default_rng(config.seed)

    logger.info("generating topology (%d ASes)", config.topology.n_ases)
    with trace("world.topology", n_ases=config.topology.n_ases):
        topo = generate_topology(config.topology)
        policies = build_policies(
            topo, rng, config.selective_fraction, config.deagg_fraction
        )
        collectors = CollectorSystem(topo, config.collectors, rng)
        ixp = select_members(
            topo, rng, config.n_members,
            rs_participation=config.rs_participation,
        )

    logger.info("propagating BGP and building the RIB")
    with trace("world.bgp"):
        observations = simulate_bgp(
            topo, policies, collectors, ixp.route_server, rng
        )
        retained: list | None = None
        if keep_observations:
            retained = list(observations)
            observations = iter(retained)
        rib = GlobalRIB.from_observations(observations)
        as2org = build_as2org(topo)
    logger.info("computing valid-space maps (%d prefixes)", rib.num_prefixes)
    with trace("world.cones", rows=rib.num_prefixes):
        approaches = build_valid_space_maps(rib, as2org)
    classifier = SpoofingClassifier(rib, approaches)

    world = World(
        config=config,
        topo=topo,
        policies=policies,
        collectors=collectors,
        ixp=ixp,
        rib=rib,
        as2org=as2org,
        approaches=approaches,
        classifier=classifier,
    )
    if retained is not None:
        world.extras["observations"] = retained
    if with_traffic:
        logger.info("generating traffic (%d regular rows)",
                    config.scenario.total_regular_rows)
        with trace("world.traffic"):
            world.scenario = generate_traffic(
                topo, ixp, rib, config.scenario, policies=policies,
                collector_peer_asns=collectors.all_peer_asns,
            )
        if classify:
            logger.info("classifying %d flows", len(world.scenario.flows))
            world.result = classifier.classify(world.scenario.flows)
    return world


def classify_world_stream(
    world: World,
    n_workers: int | None = None,
    chunk_rows: int = 262_144,
    policy: FailurePolicy | str | None = None,
) -> StreamClassificationResult:
    """Re-classify a built world's scenario through the streaming path.

    Multi-week scenarios whose flow tables no longer fit comfortably in
    one classification pass use this instead of ``world.result``: the
    flows are cut into ``chunk_rows`` slices and (optionally) fanned
    out over ``n_workers`` processes. ``policy`` (a
    :class:`~repro.core.FailurePolicy` or mode string such as
    ``"degrade"``) sets how the worker supervisor treats a failed
    chunk; ``None`` means ``"fail_fast"``. Returns the merged
    :class:`~repro.core.results.StreamClassificationResult`.
    """
    if world.scenario is None:
        raise ValueError("world was built with with_traffic=False")
    return world.classifier.classify_stream(
        world.scenario.flows,
        n_workers=n_workers,
        chunk_rows=chunk_rows,
        policy=policy,
    )
