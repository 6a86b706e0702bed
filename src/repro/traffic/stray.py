"""Stray (non-malicious illegitimate) traffic.

Two populations the paper separates from intentional spoofing:

* **NAT leakage** — devices behind misconfigured NATs whose private
  source addresses escape to the inter-domain Internet. Driven by
  regular user behaviour, so it follows the diurnal pattern and is
  dominated by small TCP connection attempts to web ports (the paper's
  explanation for the slight day pattern in Bogon, Section 6.1).
* **Router strays** — routers emitting packets (ICMP TTL-exceeded,
  ping replies) from transit-link interface addresses, often numbered
  out of the provider's space, which the cones cannot attribute to the
  emitting member (Section 5.2). ~83% ICMP in the paper.
"""

from __future__ import annotations

import numpy as np

from repro.ixp.flows import (
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    FlowTable,
    TruthLabel,
)
from repro.topology.model import ASTopology
from repro.traffic.addressing import BogonSampler
from repro.traffic.diurnal import DiurnalModel
from repro.traffic.forwarding import SourcePool
from repro.traffic.poolsampler import PoolAddressSampler


def generate_nat_leaks(
    rng: np.random.Generator,
    member: int,
    n_rows: int,
    diurnal: DiurnalModel,
    pools: dict[int, SourcePool],
    pool_sampler: PoolAddressSampler,
    dst_members: np.ndarray,
    bogon_sampler: BogonSampler | None = None,
) -> FlowTable:
    """Bogon-source leakage from one member (user-driven timing)."""
    if n_rows <= 0:
        return FlowTable.empty()
    bogon_sampler = bogon_sampler or BogonSampler()
    src = bogon_sampler.sample(rng, n_rows)
    dst_member = rng.choice(dst_members, size=n_rows)
    dst = _destination_addrs(rng, dst_member, pools, pool_sampler)
    # Mostly failed TCP handshakes towards web services.
    is_tcp = rng.random(n_rows) < 0.85
    proto = np.where(is_tcp, PROTO_TCP, PROTO_UDP).astype(np.uint8)
    dst_port = np.where(
        is_tcp,
        rng.choice(np.array([80, 443, 443, 8080], dtype=np.uint32), size=n_rows),
        rng.integers(1024, 65536, size=n_rows, dtype=np.uint32),
    ).astype(np.uint32)
    sizes = rng.normal(52, 6, size=n_rows).clip(40, 120)
    packets = np.ones(n_rows, dtype=np.int64)
    return FlowTable(
        src=src,
        dst=dst,
        proto=proto,
        src_port=rng.integers(1024, 65536, size=n_rows, dtype=np.uint32),
        dst_port=dst_port,
        packets=packets,
        bytes=(packets * sizes).astype(np.int64),
        member=np.full(n_rows, member, dtype=np.int64),
        dst_member=dst_member.astype(np.int64),
        time=diurnal.sample_times(rng, n_rows),
        truth=np.full(n_rows, int(TruthLabel.STRAY_NAT), dtype=np.uint8),
    )


def member_router_addresses(topo: ASTopology, member: int) -> list[int]:
    """Interface addresses of the member's routers on transit links.

    The customer-side address of a (provider, customer) link belongs to
    the member when it is the customer; the provider-side address when
    it is the provider.
    """
    addrs: list[int] = []
    for (provider, customer), (p_addr, c_addr) in topo.link_addresses.items():
        if member == customer:
            addrs.append(c_addr)
        elif member == provider:
            addrs.append(p_addr)
    return addrs


def generate_router_strays(
    rng: np.random.Generator,
    member: int,
    n_rows: int,
    topo: ASTopology,
    pools: dict[int, SourcePool],
    pool_sampler: PoolAddressSampler,
    dst_members: np.ndarray,
    window_seconds: int,
) -> FlowTable:
    """Router-originated stray packets from one member."""
    router_addrs = member_router_addresses(topo, member)
    if n_rows <= 0 or not router_addrs:
        return FlowTable.empty()
    src = rng.choice(np.array(router_addrs, dtype=np.uint64), size=n_rows)
    dst_member = rng.choice(dst_members, size=n_rows)
    dst = _destination_addrs(rng, dst_member, pools, pool_sampler)
    # Paper: ~83% ICMP, 14.4% UDP, 2.3% TCP from router sources.
    roll = rng.random(n_rows)
    proto = np.where(
        roll < 0.83, PROTO_ICMP, np.where(roll < 0.974, PROTO_UDP, PROTO_TCP)
    ).astype(np.uint8)
    src_port = np.where(
        proto == PROTO_ICMP,
        0,
        rng.integers(1024, 65536, size=n_rows),
    ).astype(np.uint32)
    dst_port = np.where(
        proto == PROTO_ICMP,
        0,
        rng.integers(1, 65536, size=n_rows),
    ).astype(np.uint32)
    sizes = rng.normal(72, 16, size=n_rows).clip(40, 160)
    packets = np.ones(n_rows, dtype=np.int64)
    return FlowTable(
        src=src,
        dst=dst,
        proto=proto,
        src_port=src_port,
        dst_port=dst_port,
        packets=packets,
        bytes=(packets * sizes).astype(np.int64),
        member=np.full(n_rows, member, dtype=np.int64),
        dst_member=dst_member.astype(np.int64),
        time=rng.integers(0, window_seconds, size=n_rows).astype(np.int64),
        truth=np.full(n_rows, int(TruthLabel.STRAY_ROUTER), dtype=np.uint8),
    )


def _destination_addrs(
    rng: np.random.Generator,
    dst_member: np.ndarray,
    pools: dict[int, SourcePool],
    pool_sampler: PoolAddressSampler,
) -> np.ndarray:
    """Addresses inside each destination member's visible pool."""
    targets, groups = np.unique(dst_member, return_inverse=True)
    return pool_sampler.destinations(
        rng, groups, [pools.get(int(target)) for target in targets]
    )
