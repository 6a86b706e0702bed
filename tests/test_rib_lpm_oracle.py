"""The RIB's longest-prefix match against an independent oracle.

The parity suites compare the delta-patched finalized view with a cold
build, but both come out of one painting routine, so a bug in it would
be invisible there. This oracle is built from the definitions alone,
with the standard library's :mod:`ipaddress` and a route set the test
keeps itself: an address belongs to the most specific live prefix
containing it, whose origin is the one with the most live routes
(lowest ASN on a tie); the routed space is the union of the live
prefixes; a prefix's exclusive space is what no live more-specific
prefix takes from it. None of it calls ``lookup_many``, the painter or
:class:`~repro.net.prefixset.PrefixSet`.

After every event of a random announce/withdraw sequence over nested
prefixes (the address space's first /8 and last /24 included), the
RIB's answers must equal the oracle's at every pool prefix's first
address, last address and the address one past it.
"""

from __future__ import annotations

import ipaddress
from collections import Counter

import numpy as np
import pytest

from repro.bgp.messages import RouteObservation
from repro.bgp.rib import GlobalRIB
from repro.net.prefix import Prefix

Network = ipaddress.IPv4Network


def nested_pool(rng: np.random.Generator) -> list[Network]:
    """The address space's edges plus random /8 trees of nested prefixes."""
    pool = {
        Network("0.0.0.0/8"), Network("0.0.0.0/16"), Network("0.0.0.0/24"),
        Network("255.0.0.0/8"), Network("255.255.0.0/16"),
        Network("255.255.255.0/24"),
    }
    for first_octet in rng.choice(np.arange(1, 255), size=3, replace=False):
        parents = [Network(f"{first_octet}.0.0.0/8")]
        pool.update(parents)
        for _ in range(8):
            parent = parents[int(rng.integers(len(parents)))]
            if parent.prefixlen == 24:
                continue
            length = int(rng.integers(parent.prefixlen + 1, 25))
            subnets = 1 << (length - parent.prefixlen)
            offset = int(rng.integers(subnets)) << (32 - length)
            child = Network((int(parent.network_address) + offset, length))
            parents.append(child)
            pool.add(child)
    return sorted(pool)


class Oracle:
    """The live routes, and every answer derived from their definitions."""

    def __init__(self) -> None:
        self.routes: set[tuple[Network, tuple[int, ...]]] = set()
        self.live: list[Network] = []

    def apply(self, network: Network, path: tuple[int, ...], withdrawal: bool):
        if withdrawal:
            self.routes.discard((network, path))
        else:
            self.routes.add((network, path))
        self.live = sorted({net for net, _ in self.routes})

    def origin(self, network: Network) -> int:
        votes = Counter(path[-1] for net, path in self.routes if net == network)
        return max(votes, key=lambda asn: (votes[asn], -asn))

    def match(self, addr: int) -> Network | None:
        address = ipaddress.IPv4Address(addr)
        covering = [net for net in self.live if address in net]
        return max(covering, key=lambda net: net.prefixlen, default=None)

    def routed_intervals(self) -> list[tuple[int, int]]:
        """Merged half-open ``[first, last + 1)`` runs of routed space."""
        runs: list[tuple[int, int]] = []
        for net in ipaddress.collapse_addresses(self.live):
            first = int(net.network_address)
            end = int(net.broadcast_address) + 1
            if runs and runs[-1][1] == first:
                runs[-1] = (runs[-1][0], end)
            else:
                runs.append((first, end))
        return runs

    def exclusive_slash24s(self, network: Network) -> float:
        """The /24s of ``network`` no live more-specific prefix takes."""
        inner = [
            net for net in self.live
            if net != network and net.subnet_of(network)
        ]
        taken = sum(
            net.num_addresses for net in ipaddress.collapse_addresses(inner)
        )
        return (network.num_addresses - taken) / 256.0


def observation(network, path, withdrawal):
    return RouteObservation(
        prefix=Prefix.parse(str(network)),
        path=path,
        source="rrc00",
        from_update=True,
        withdrawal=withdrawal,
    )


def probe_points(pool: list[Network]) -> list[int]:
    """Every pool prefix's first address, last address and one past it."""
    points = set()
    for net in pool:
        last = int(net.broadcast_address)
        points.update((int(net.network_address), last, last + 1))
    return sorted(point for point in points if point < 2**32)


def assert_agrees(rib: GlobalRIB, oracle: Oracle, pool: list[Network]):
    points = probe_points(pool)
    prefix_ids, origin_indices = rib.lookup_many(
        np.array(points, dtype=np.uint64)
    )
    asns = rib.indexer.asns()
    for addr, prefix_id, origin_index in zip(
        points, prefix_ids.tolist(), origin_indices.tolist()
    ):
        expected = oracle.match(addr)
        where = str(ipaddress.IPv4Address(addr))
        if expected is None:
            assert (prefix_id, origin_index) == (-1, -1), where
            continue
        assert str(rib.prefix_by_id(prefix_id)) == str(expected), where
        assert asns[origin_index] == oracle.origin(expected), where

    assert list(rib.routed_space().intervals()) == oracle.routed_intervals()

    exclusive = rib.exclusive_slash24s_per_prefix()
    routed = sum(end - first for first, end in oracle.routed_intervals())
    assert exclusive.sum() == routed / 256.0
    for net in pool:
        prefix_id = rib.prefix_id(Prefix.parse(str(net)))
        if prefix_id is None:
            continue
        expected = oracle.exclusive_slash24s(net) if net in oracle.live else 0
        assert exclusive[prefix_id] == expected, str(net)


@pytest.mark.parametrize("seed", [3, 42, 2017])
def test_lpm_agrees_with_oracle_after_every_event(seed):
    rng = np.random.default_rng(seed)
    pool = nested_pool(rng)
    paths = [(1, 2), (1, 3), (2, 3), (3, 4, 2), (4, 1), (2, 4, 3), (1, 4)]
    rib, oracle = GlobalRIB(), Oracle()
    kinds = Counter()
    for _ in range(300):
        if oracle.routes and rng.random() < 0.45:
            routes = sorted(oracle.routes)
            network, path = routes[int(rng.integers(len(routes)))]
            withdrawal = True
        else:
            network = pool[int(rng.integers(len(pool)))]
            path = paths[int(rng.integers(len(paths)))]
            withdrawal = False
        delta = rib.apply(observation(network, path, withdrawal))
        oracle.apply(network, path, withdrawal)
        kinds[delta.finalize] += 1
        assert_agrees(rib, oracle, pool)
    # Most events patch the live view in place; a few rebuild it.
    assert kinds["patched"] > 150
