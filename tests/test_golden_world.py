"""Golden world digests: the cold build stays bit-identical.

Each world's observation stream, post-BGP RNG state, union RIB, every
approach's validity matrices, generated flows and Table 1 counts must
match the digests committed in ``tests/golden/world_digests.json``. A
faster propagation, RIB ingest or traffic generator that changes any
of them has changed the study's data.
The default-preset world is checked by ``benchmarks/bench_world_golden.py``.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.testing.golden import PRESETS, golden_key, world_digest

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "world_digests.json").read_text()
)


@pytest.mark.parametrize(
    ("preset", "seed"), [("tiny", 42), ("tiny", 7), ("small", 42)]
)
def test_world_matches_golden_digest(preset, seed):
    expected = GOLDEN[golden_key(preset, seed)]
    assert world_digest(PRESETS[preset](seed)) == expected
