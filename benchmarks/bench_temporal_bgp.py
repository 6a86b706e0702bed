"""Extension: temporal growth of the BGP-derived valid space.

The paper's future work: study how the completeness of the BGP view
depends on the observation window (archived data). Cumulative-window
RIBs are built from the simulated four-week observation stream.
"""

import numpy as np

from repro.analysis.temporal import temporal_study
from repro.bgp.simulate import simulate_bgp
from repro.experiments import WorldConfig, build_world


def bench_temporal_bgp_growth(benchmark, save_artefact):
    # A small world keeps the repeated RIB builds affordable.
    world = build_world(WorldConfig.small(seed=60), with_traffic=False)
    rng = np.random.default_rng(60)
    observations = list(
        simulate_bgp(
            world.topo, world.policies, world.collectors,
            world.ixp.route_server, rng,
        ).observations()
    )

    study = benchmark.pedantic(
        temporal_study, args=(observations,),
        kwargs={"n_windows": 4, "sample_asns": 150}, rounds=1, iterations=1,
    )
    save_artefact("temporal_bgp", study.render())
    counts = [snap.num_adjacencies for snap in study.snapshots]
    assert counts == sorted(counts)  # the union view only grows
    benchmark.extra_info["adjacency_growth"] = round(
        study.adjacency_growth(), 3
    )
