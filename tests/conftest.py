"""Shared fixtures: deterministic RNGs, micro-topologies, built worlds."""

from __future__ import annotations

import os
import pathlib

import numpy as np
import pytest

from repro.experiments import WorldConfig, build_world
from repro.obs import current_metrics, current_tracer, enable_tracing, tracing_enabled
from repro.topology.model import ASNode, ASTopology, BusinessType, Relationship


@pytest.fixture(autouse=True)
def _protocol_sanitizer(request):
    """Opt-in runtime protocol sanitizer (``REPRO_SANITIZE=1``).

    Arms the ``wal-commit`` and ``supervised-pool`` interpositions for
    every test and fails the test — dumping the violations under
    ``REPRO_SANITIZE_ARTIFACTS`` — on any violation. See
    ``docs/CONCURRENCY.md``.
    """
    if os.environ.get("REPRO_SANITIZE") != "1":
        yield
        return
    if request.node.get_closest_marker("sanitizer_self_test"):
        # The sanitizer's own unit tests arm private monitor instances
        # and violate them on purpose; a session-level sanitizer would
        # double-report those staged violations as real ones.
        yield
        return
    from repro.testing.sanitizer import ProtocolSanitizer

    sanitizer = ProtocolSanitizer()
    sanitizer.install()
    try:
        yield
    finally:
        sanitizer.uninstall()
    violations = sanitizer.violations
    if violations:
        artifacts = pathlib.Path(
            os.environ.get("REPRO_SANITIZE_ARTIFACTS", "sanitizer-artifacts")
        )
        sanitizer.write_artifacts(artifacts)
        pytest.fail(
            f"protocol sanitizer: {len(violations)} violation(s); "
            f"artifacts in {artifacts}/ — first: {violations[0]}"
        )


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def make_micro_topology() -> ASTopology:
    """A hand-built 8-AS topology with every relationship kind.

    Layout::

        T1a (1) ---peer--- T1b (2)
         |                  |
        T2a (3)            T2b (4)
         |   \\            |
        C1 (5) C2 (6)      C3 (7)     S (8, sibling of C2 via org)

    C2 is multihomed to T2a and T2b. S shares C2's organization but has
    no BGP-visible link to it.
    """
    topo = ASTopology()
    nodes = [
        ASNode(1, BusinessType.NSP, tier=1, org_id=1),
        ASNode(2, BusinessType.NSP, tier=1, org_id=2),
        ASNode(3, BusinessType.NSP, tier=2, org_id=3),
        ASNode(4, BusinessType.NSP, tier=2, org_id=4),
        ASNode(5, BusinessType.ISP, tier=3, org_id=5),
        ASNode(6, BusinessType.HOSTING, tier=3, org_id=6),
        ASNode(7, BusinessType.CONTENT, tier=3, org_id=7),
        ASNode(8, BusinessType.OTHER, tier=3, org_id=6),  # C2's org
    ]
    for node in nodes:
        topo.add_as(node)
    topo.add_link(1, 2, Relationship.PEER)
    topo.add_link(3, 1, Relationship.CUSTOMER_OF)
    topo.add_link(4, 2, Relationship.CUSTOMER_OF)
    topo.add_link(5, 3, Relationship.CUSTOMER_OF)
    topo.add_link(6, 3, Relationship.CUSTOMER_OF)
    topo.add_link(6, 4, Relationship.CUSTOMER_OF)
    topo.add_link(7, 4, Relationship.CUSTOMER_OF)
    # AS8 intentionally has no visible link: hidden org sibling of 6.
    topo.add_link(8, 4, Relationship.CUSTOMER_OF)
    topo.orgs[6].in_as2org = False
    return topo


@pytest.fixture()
def micro_topology() -> ASTopology:
    return make_micro_topology()


@pytest.fixture(scope="session")
def tiny_world():
    """A fully built tiny world (topology+BGP+traffic+classification)."""
    return build_world(WorldConfig.tiny())


@pytest.fixture(scope="session")
def small_world():
    """The small preset world (fast, for mid-size integration tests)."""
    return build_world(WorldConfig.small())


@pytest.fixture(scope="session")
def default_world():
    """The default preset world — the paper-shape integration tests
    need its volume for the attack statistics to stabilise."""
    return build_world(WorldConfig.default())


@pytest.fixture(scope="session")
def bgp_only_world():
    """A tiny world without traffic (fast BGP/cones-only tests)."""
    return build_world(WorldConfig.tiny(seed=77), with_traffic=False)


@pytest.fixture()
def clean_obs():
    """Reset ambient tracer/metrics state around a test."""
    current_tracer().drain()
    current_metrics().clear()
    was_enabled = tracing_enabled()
    yield
    enable_tracing(was_enabled)
    current_tracer().drain()
    current_metrics().clear()
