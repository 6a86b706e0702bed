"""Golden digest of the default-preset world (about 35 s).

The tier-1 suite checks the tiny and small worlds against
``tests/golden/world_digests.json``; this check covers the preset every
other benchmark builds. It is a plain check, not a timing: run it
without ``--benchmark-only``, which skips functions that take no
``benchmark`` fixture::

    PYTHONPATH=src python -m pytest -q benchmarks/bench_world_golden.py
"""

import json
import pathlib

from repro.testing.golden import PRESETS, golden_key, world_digest

GOLDEN = pathlib.Path(__file__).parents[1] / "tests" / "golden" / "world_digests.json"


def bench_default_world_matches_golden_digest():
    expected = json.loads(GOLDEN.read_text())[golden_key("default", 42)]
    assert world_digest(PRESETS["default"](42)) == expected
