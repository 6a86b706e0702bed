"""Online pipeline: single-event delta apply vs full state rebuild.

The claim behind ``repro watch``: applying one BGP announce/withdraw
delta through the whole stack — RIB refcounts, patched finalized
LPM/origin views, the cone maps brought up to date, and the packed
validity matrices they drop restacked at the next read — must beat
rebuilding that state from scratch by at least an order of magnitude
on a paper-scale world (~700-member IXP), or the incremental machinery
isn't paying rent. Each timed loop of events ends with one restack of
every approach's member matrix, as a watch run's next flow chunk would.

Two kinds of delta are timed. A *membership-only* delta re-announces a
live path for another prefix: the path set does not change, so the
cone maps have nothing to re-infer. A *path-set* delta withdraws and
re-announces a route of the world's own update feed whose path no other
route carries, but whose ASes all stay observed: the customer cones'
relationship inference must absorb a path leaving and returning. About
a quarter of a natural update feed changes the path set.
"""

import dataclasses
import time

from repro.bgp.messages import RouteObservation
from repro.experiments import WorldConfig, build_world
from repro.experiments.runner import build_valid_space_maps
from repro.obs import RunManifest, manifest_path_for
from repro.stream import OnlineValidState
from repro.stream.events import update_stream

#: Timed single-event deltas per kind (withdraw/announce pairs return
#: the state to its starting point, so the loop is steady-state).
N_EVENTS = 30


def _pick_delta_route(rib):
    """A live path to re-announce for a prefix that doesn't carry it."""
    tuples = rib._path_table.tuples
    paths_by_prefix: dict[int, set] = {}
    for key in sorted(rib._routes):
        paths_by_prefix.setdefault(key >> 32, set()).add(tuples[key & 0xFFFFFFFF])
    for prefix_id, paths in paths_by_prefix.items():
        for other_id, other_paths in paths_by_prefix.items():
            if other_id == prefix_id:
                continue
            for path in sorted(other_paths):
                if path not in paths:
                    return rib.prefix_by_id(prefix_id), path
    raise RuntimeError("no re-announceable path found")


def _pick_path_change(rib, observations):
    """An update announcement whose withdrawal drops its path from the
    path set but no AS from the observed set.

    The world's RIB is the union of its dumps and updates, so every
    announcement of the feed is live.
    """
    for update in update_stream(observations):
        path = update.path
        path_id = rib._path_table.ids.get(path)
        if update.withdrawal or rib._routes_per_path[path_id] != 1:
            continue
        if all(rib._asn_support[asn] > 1 for asn in set(path)):
            return update.prefix, path
    raise RuntimeError("no path-set-changing update found")


def bench_online_delta(benchmark, artefact_dir):
    config = WorldConfig.paper_scale(seed=23)
    world = build_world(config, with_traffic=False, keep_observations=True)
    state = OnlineValidState(world.rib, world.approaches, world.classifier)
    members = list(world.ixp.member_asns)
    rib = world.rib
    rib.lookup_many(rib.routed_space()._starts[:1])  # build finalized
    for approach in world.approaches.values():
        approach.packed_matrix(members)  # warm every matrix cache

    membership_route = _pick_delta_route(rib)
    path_set_route = _pick_path_change(rib, world.extras.pop("observations"))

    def apply_deltas(route, path_set):
        """Mean seconds per event over withdraw/announce pairs (the
        membership route starts dead, so its pairs announce first)."""
        prefix, path = route
        began = time.perf_counter()
        for index in range(N_EVENTS):
            withdrawal = bool(index % 2) != path_set
            delta = state.apply_route(RouteObservation(
                prefix=prefix, path=path, source="rrc00",
                from_update=True, withdrawal=withdrawal,
            ))
            assert delta.applied and delta.finalize == "patched"
            assert bool(delta.added_paths or delta.removed_paths) == path_set
        for approach in world.approaches.values():
            approach.packed_matrix(members)
        return (time.perf_counter() - began) / N_EVENTS

    def full_rebuild():
        began = time.perf_counter()
        rib._finalized = None
        rib.routed_space()  # force the finalized rebuild
        maps = build_valid_space_maps(rib, world.as2org)
        for approach in maps.values():
            approach.packed_matrix(members)
        return time.perf_counter() - began

    def run():
        membership_seconds = apply_deltas(membership_route, path_set=False)
        path_set_seconds = apply_deltas(path_set_route, path_set=True)
        rebuild_seconds = min(full_rebuild() for _ in range(2))
        return {
            "delta_seconds": membership_seconds,
            "path_set_delta_seconds": path_set_seconds,
            "rebuild_seconds": rebuild_seconds,
            "speedup": rebuild_seconds / membership_seconds,
            "path_set_speedup": rebuild_seconds / path_set_seconds,
            "n_members": len(members),
            "n_prefixes": rib.num_prefixes,
            "n_asns": len(rib.observed_asns()),
        }

    outcome = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["delta_events_per_s"] = 1.0 / outcome["delta_seconds"]
    benchmark.extra_info["speedup"] = outcome["speedup"]
    benchmark.extra_info["path_set_speedup"] = outcome["path_set_speedup"]

    def row(label, seconds, speedup):
        return (f"  {label:<26}{seconds * 1e3:.3f} ms ({1.0 / seconds:.0f}"
                f" events/s, {speedup:.1f}x)\n")

    text = (
        "Online delta apply vs full rebuild (paper_scale, "
        f"{outcome['n_members']} IXP members, "
        f"{outcome['n_prefixes']} prefixes, {outcome['n_asns']} ASNs):\n"
        + row("membership-only delta:", outcome["delta_seconds"],
              outcome["speedup"])
        + row("path-set delta:", outcome["path_set_delta_seconds"],
              outcome["path_set_speedup"])
        + f"  full state rebuild:       {outcome['rebuild_seconds'] * 1e3:.1f} ms"
    )
    out = artefact_dir / "online_delta.txt"
    out.write_text(text + "\n")
    manifest = RunManifest.create(
        "bench:bench_online_delta",
        seed=config.seed,
        preset="paper_scale",
        config=dataclasses.asdict(config),
    )
    manifest.finish(extra={"artefact": str(out), "timings": outcome})
    manifest.write(manifest_path_for(out))

    for kind in ("speedup", "path_set_speedup"):
        assert outcome[kind] >= 10.0, (
            f"{kind}: delta apply only {outcome[kind]:.1f}x faster than rebuild"
        )
