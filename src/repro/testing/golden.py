"""Golden digests of a built world: the guard for the BGP and traffic layers.

:func:`world_digest` builds one world from a :class:`WorldConfig` and
fingerprints everything the cold build produces that a faster
propagation, RIB ingest or traffic generator must leave bit-identical:

* the route batch of :func:`~repro.bgp.simulate.simulate_bgp` (its
  length and a sha256 over every field of every row's observation, in
  order), and the RNG state it leaves behind;
* the union RIB (:meth:`~repro.bgp.rib.GlobalRIB.state_digest` and its
  ingest counters);
* every approach's :meth:`~repro.cones.base.ValidSpaceMap.state_digest`
  for the IXP's members;
* the generated flows (a sha256 over every :class:`~repro.ixp.flows.FlowTable`
  column, in order);
* the Table 1 counts.

The helper assembles the world from the same public steps, in the same
order and with the same RNG, as
:func:`~repro.experiments.runner.build_world`; it does them one by one
because ``build_world`` does not expose the RNG. The committed digests
live in ``tests/golden/world_digests.json``; regenerate an entry with
``python -m repro.testing.golden tiny 42`` and paste it in only when a
change to the simulated data is intended.
"""

from __future__ import annotations

import hashlib
import json
import sys
from collections.abc import Iterable
from typing import Any

import numpy as np

from repro.analysis.table1 import compute_table1
from repro.bgp.collector import CollectorSystem
from repro.bgp.messages import RouteObservation
from repro.bgp.rib import GlobalRIB
from repro.bgp.simulate import simulate_bgp
from repro.core.classifier import SpoofingClassifier
from repro.datasets.as2org import build_as2org
from repro.experiments.config import WorldConfig
from repro.experiments.runner import build_valid_space_maps
from repro.ixp.flows import FlowTable
from repro.ixp.model import select_members
from repro.topology.generator import generate_topology
from repro.topology.policies import build_policies
from repro.traffic.scenario import generate_traffic

#: Preset name → :class:`WorldConfig` factory.
PRESETS = {
    "tiny": WorldConfig.tiny,
    "small": WorldConfig.small,
    "default": WorldConfig.default,
    "paper_scale": WorldConfig.paper_scale,
}


def observation_digest(observations: Iterable[RouteObservation]) -> tuple[int, str]:
    """``(count, sha256)`` over every field of every observation, in order."""
    digest = hashlib.sha256()
    count = 0
    for obs in observations:
        digest.update(
            f"{obs.prefix}|{','.join(map(str, obs.path))}|{obs.source}"
            f"|{obs.timestamp}|{int(obs.from_update)}"
            f"|{int(obs.withdrawal)}\n".encode()
        )
        count += 1
    return count, digest.hexdigest()


def flows_digest(flows: FlowTable) -> str:
    """sha256 over every column of ``flows`` (name, dtype and bytes), in order."""
    digest = hashlib.sha256()
    for name in FlowTable.__slots__:
        column = np.ascontiguousarray(getattr(flows, name))
        digest.update(f"{name}|{column.dtype.str}|{column.size}\n".encode())
        digest.update(column.tobytes())
    return digest.hexdigest()


def _rng_digest(rng: np.random.Generator) -> str:
    state = json.dumps(rng.bit_generator.state, sort_keys=True, default=int)
    return hashlib.sha256(state.encode()).hexdigest()


def world_digest(config: WorldConfig) -> dict[str, Any]:
    """Fingerprint one world built from ``config`` (see module doc)."""
    rng = np.random.default_rng(config.seed)
    topo = generate_topology(config.topology)
    policies = build_policies(
        topo, rng, config.selective_fraction, config.deagg_fraction
    )
    collectors = CollectorSystem(topo, config.collectors, rng)
    ixp = select_members(
        topo, rng, config.n_members, rs_participation=config.rs_participation
    )
    routes = simulate_bgp(topo, policies, collectors, ixp.route_server, rng)
    count, obs_sha = observation_digest(routes.observations())
    rng_sha = _rng_digest(rng)

    # The batch itself, as build_world feeds it.
    rib = GlobalRIB.from_observations(routes)
    del routes
    approaches = build_valid_space_maps(rib, build_as2org(topo))
    scenario = generate_traffic(
        topo, ixp, rib, config.scenario, policies=policies,
        collector_peer_asns=collectors.all_peer_asns,
    )
    result = SpoofingClassifier(rib, approaches).classify(scenario.flows)
    table = compute_table1(result)
    members = list(ixp.member_asns)
    return {
        "observations": count,
        "observations_sha256": obs_sha,
        "rng_after_bgp_sha256": rng_sha,
        "rib": {
            "state_digest": rib.state_digest(),
            "accepted": rib.num_accepted,
            "duplicates": rib.num_duplicates,
            "discarded": rib.num_discarded,
            "withdrawals": rib.num_withdrawals,
        },
        "approaches": {
            name: approach.state_digest(members)
            for name, approach in approaches.items()
        },
        "flows_sha256": flows_digest(scenario.flows),
        "table1": {
            name: [cell.members, cell.packets, cell.bytes]
            for name, cell in table.columns.items()
        },
    }


def golden_key(preset: str, seed: int) -> str:
    """The key of one world in ``tests/golden/world_digests.json``."""
    return f"{preset}-{seed}"


def main(argv: list[str]) -> int:
    """``python -m repro.testing.golden PRESET SEED...``: print digests."""
    if len(argv) < 2 or argv[0] not in PRESETS:
        print(f"usage: golden {{{','.join(PRESETS)}}} SEED...", file=sys.stderr)
        return 2
    preset = argv[0]
    out = {
        golden_key(preset, int(seed)): world_digest(PRESETS[preset](int(seed)))
        for seed in argv[1:]
    }
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
