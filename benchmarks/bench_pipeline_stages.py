"""Stage-level throughput of the world-building pipeline."""

import numpy as np

from repro.bgp.propagation import RoutePropagator
from repro.bgp.rib import GlobalRIB
from repro.topology.generator import TopologyConfig, generate_topology


def bench_topology_generation(benchmark):
    topo = benchmark.pedantic(
        generate_topology,
        args=(TopologyConfig(n_ases=2000, seed=1),),
        rounds=3,
        iterations=1,
    )
    assert len(topo) == 2000


def bench_route_propagation(benchmark, world):
    """One full Gao–Rexford propagation per call (all ASes)."""
    propagator = RoutePropagator(world.topo)
    origins = sorted(world.topo.ases)[:50]

    def propagate_block():
        for origin in origins:
            propagator.propagate(origin)

    benchmark.pedantic(propagate_block, rounds=3, iterations=1)
    benchmark.extra_info["origins_per_call"] = len(origins)


def bench_rib_construction(benchmark, world):
    """Rebuild the RIB from the stored route batch."""
    from repro.bgp.simulate import simulate_bgp

    rng = np.random.default_rng(world.config.seed)
    batch = simulate_bgp(
        world.topo,
        world.policies,
        world.collectors,
        world.ixp.route_server,
        rng,
    )

    rib = benchmark.pedantic(
        GlobalRIB.from_observations, args=(batch,), rounds=2,
        iterations=1,
    )
    benchmark.extra_info["observations"] = len(observations)
    assert rib.num_prefixes > 0
