"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one of the paper's tables or figures on the
default-preset world and times the analysis. The rendered artefact is
written to ``benchmarks/output/<name>.txt`` so the reproduced numbers
survive the run (pytest captures stdout); EXPERIMENTS.md records the
paper-vs-measured comparison. Next to every artefact,
``save_artefact`` also writes a ``<name>.manifest.json``
(:class:`repro.obs.RunManifest`) recording the seed, config, git SHA
and the spans of the shared world's build, so a number in
``benchmarks/output/`` can always be traced to its exact run.
"""

from __future__ import annotations

import dataclasses
import pathlib

import numpy as np
import pytest

from repro.datasets.ark import run_ark_campaign
from repro.datasets.peeringdb import build_peeringdb
from repro.datasets.spoofer import run_spoofer_campaign
from repro.datasets.whois import build_whois
from repro.experiments import WorldConfig, build_world
from repro.obs import (
    RunManifest,
    current_tracer,
    enable_tracing,
    manifest_path_for,
)

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"
#: Manifests name their artefact relative to this, so a committed
#: manifest does not carry the checkout's absolute path.
REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _repo_relative(path: pathlib.Path) -> str:
    return path.resolve().relative_to(REPO_ROOT).as_posix()


@pytest.fixture(scope="session")
def traced_world():
    """The default-preset world and the spans of its build.

    Tracing is on for the build only, so artefact manifests carry the
    world's phase and classify stage timings while every benchmark
    runs with tracing off.
    """
    enable_tracing()
    try:
        with current_tracer().capture() as spans:
            world = build_world(WorldConfig.default())
    finally:
        enable_tracing(False)
    return world, spans


@pytest.fixture(scope="session")
def world(traced_world):
    """The default-preset world shared by every benchmark."""
    return traced_world[0]


@pytest.fixture(scope="session")
def approach(world):
    return world.primary


@pytest.fixture(scope="session")
def datasets(world):
    """The external-dataset stand-ins the analyses consume."""
    rng = np.random.default_rng(99)
    return {
        "peeringdb": build_peeringdb(
            world.topo, rng, list(world.ixp.member_asns)
        ),
        "ark": run_ark_campaign(world.topo, rng),
        "whois": build_whois(world.topo),
        "spoofer": run_spoofer_campaign(
            rng, sorted(world.topo.ases), world.scenario.behaviors
        ),
    }


@pytest.fixture(scope="session")
def artefact_dir():
    OUTPUT_DIR.mkdir(exist_ok=True)
    return OUTPUT_DIR


@pytest.fixture(scope="session")
def repo_relative():
    """``path`` → its repository-relative name, as a manifest's
    ``artefact`` records it."""
    return _repo_relative


@pytest.fixture()
def save_artefact(artefact_dir, traced_world, request):
    """Write a rendered table/figure to benchmarks/output/.

    Every artefact also gets a run manifest
    (``<name>.manifest.json``) next to it: the world seed and full
    config, the repository SHA, versions, and the build spans and
    classify counters of the shared world — enough to re-run (or
    distrust) the artefact years later.
    """
    world, spans = traced_world

    def _save(name: str, text: str) -> None:
        out = artefact_dir / f"{name}.txt"
        out.write_text(text + "\n")
        manifest = RunManifest.create(
            f"bench:{request.node.name}",
            seed=world.config.seed,
            preset="default",
            config=dataclasses.asdict(world.config),
        )
        counters = (
            world.result.counters() if world.result is not None else {}
        )
        manifest.finish(
            spans=spans, extra={**counters, "artefact": _repo_relative(out)}
        )
        manifest.write(manifest_path_for(out))

    return _save
