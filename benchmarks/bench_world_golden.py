"""Golden digests of the default- and paper-scale worlds.

The tier-1 suite checks the tiny and small worlds against
``tests/golden/world_digests.json``; these checks cover the preset
every other benchmark builds and the paper's own size (727 members),
where id widths and packed keys are largest. The paper-scale world
peaks at about 1.6 GB of RSS. They are plain checks, not timings: run
them without ``--benchmark-only``, which skips functions that take no
``benchmark`` fixture::

    PYTHONPATH=src python -m pytest -q benchmarks/bench_world_golden.py
"""

import json
import pathlib

from repro.testing.golden import PRESETS, golden_key, world_digest

GOLDEN = pathlib.Path(__file__).parents[1] / "tests" / "golden" / "world_digests.json"


def _check(preset: str, seed: int) -> None:
    expected = json.loads(GOLDEN.read_text())[golden_key(preset, seed)]
    assert world_digest(PRESETS[preset](seed)) == expected


def bench_default_world_matches_golden_digest():
    _check("default", 42)


def bench_paper_scale_world_matches_golden_digest():
    _check("paper_scale", 42)
