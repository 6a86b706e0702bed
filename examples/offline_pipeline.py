#!/usr/bin/env python3
"""An offline detection pipeline over files — the adoption story.

A downstream user does not start from our synthetic world: they have a
BGP dump, a bogon file, and flow exports. This example plays that role
end to end using the library's I/O boundaries:

1. simulate a world, then *export* its BGP observations (MRT-style
   dump), bogon list (Team Cymru format) and flows (CSV/NPZ),
2. throw the world away and rebuild the detector *purely from the
   files*,
3. classify the flows, print Table 1, and emit a deployable
   router-style filter list for the busiest peer.

Run:  python examples/offline_pipeline.py
"""

import pathlib
import tempfile

import numpy as np

from repro.analysis.table1 import compute_table1
from repro.bgp.rib import GlobalRIB
from repro.bgp.simulate import simulate_bgp
from repro.cones import FullConeValidSpace, apply_org_merge
from repro.core import SpoofingClassifier, build_ingress_acl
from repro.datasets.bogons import BOGON_PREFIXES
from repro.experiments import WorldConfig, build_world
from repro.io import (
    load_bogon_file,
    load_flows_npz,
    load_route_dump,
    save_flows_npz,
    write_bogon_file,
    write_filter_list,
    write_route_dump,
)
from repro.net.prefixset import PrefixSet


def export_world(workdir: pathlib.Path) -> dict[str, pathlib.Path]:
    """Phase 1: produce the input files a real deployment would have."""
    world = build_world(WorldConfig.tiny(), classify=False)
    rng = np.random.default_rng(world.config.seed)
    routes = simulate_bgp(
        world.topo, world.policies, world.collectors,
        world.ixp.route_server, rng,
    )
    paths = {
        "routes": workdir / "bgp.dump",
        "bogons": workdir / "bogons.txt",
        "flows": workdir / "flows.npz",
    }
    n_records = write_route_dump(routes.observations(), paths["routes"])
    write_bogon_file(BOGON_PREFIXES, paths["bogons"])
    save_flows_npz(world.scenario.flows, paths["flows"])
    print(
        f"exported {n_records} BGP records, {len(BOGON_PREFIXES)} bogon "
        f"prefixes, {len(world.scenario.flows)} flows → {workdir}"
    )
    return paths


def detect_from_files(paths: dict[str, pathlib.Path]) -> None:
    """Phase 2: rebuild everything from disk and classify."""
    rib = GlobalRIB.from_observations(load_route_dump(paths["routes"]))
    bogons = PrefixSet(load_bogon_file(paths["bogons"]))
    flows = load_flows_npz(paths["flows"])
    print(
        f"reloaded: {rib.num_prefixes} prefixes, "
        f"{len(rib.adjacencies())} AS links, {len(flows)} flows"
    )

    full_cone = FullConeValidSpace(rib)
    classifier = SpoofingClassifier(rib, {"full": full_cone}, bogons=bogons)
    result = classifier.classify(flows)
    print()
    print(compute_table1(result).render())

    members, counts = np.unique(flows.member, return_counts=True)
    busiest = int(members[np.argmax(counts)])
    acl = build_ingress_acl(full_cone, busiest)
    acl_path = paths["routes"].parent / f"as{busiest}-ingress.txt"
    lines = write_filter_list(acl, busiest, acl_path, approach="full")
    print(f"\nwrote {lines}-line ingress whitelist for AS{busiest} → {acl_path}")


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-offline-") as tmp:
        workdir = pathlib.Path(tmp)
        paths = export_world(workdir)
        detect_from_files(paths)


if __name__ == "__main__":
    main()
