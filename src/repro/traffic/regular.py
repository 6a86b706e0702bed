"""Regular (legitimate) traffic generation.

Produces the bulk of the fabric's traffic: heavy-tailed per-member
volumes, diurnal timing, the Figure 9 application mix and the
Figure 8a bimodal packet sizes. Sources are drawn from each member's
ground-truth pool, so a configurable sliver of perfectly legitimate
traffic rides over BGP-invisible arrangements — the population the
Full Cone misclassifies and Section 4.4 recovers via WHOIS.
"""

from __future__ import annotations

import numpy as np

from repro.ixp.flows import (
    PROTO_TCP,
    PROTO_UDP,
    FlowTable,
    TruthLabel,
)
from repro.ixp.model import IXP
from repro.traffic.apps import PORT_DNS, PORT_HTTP, PORT_HTTPS, PORT_NTP
from repro.traffic.diurnal import DiurnalModel
from repro.traffic.forwarding import SourcePool
from repro.traffic.poolsampler import PoolAddressSampler, PoolTable

#: Regular application mixture: (share, proto, src_kind, dst_kind,
#: mean_size, size_sd, mean_sampled_pkts). Port kinds: "eph" (random
#: ephemeral), "rand" (any port), an int (fixed), or a tuple of ints
#: (drawn uniformly).
_APP_MIX = (
    (0.30, PROTO_TCP, (PORT_HTTP, PORT_HTTPS), "eph", 1380.0, 80.0, 4.0),
    (0.25, PROTO_TCP, "eph", (PORT_HTTP, PORT_HTTPS), 80.0, 25.0, 2.5),
    (0.08, PROTO_TCP, "eph", (25, 22, 8080, 993, 3306), 1200.0, 250.0, 2.0),
    (0.07, PROTO_TCP, (25, 22, 8080, 993, 3306), "eph", 110.0, 35.0, 2.0),
    (0.22, PROTO_UDP, "rand", "rand", 900.0, 300.0, 1.8),
    (0.03, PROTO_UDP, "eph", PORT_DNS, 90.0, 20.0, 1.2),
    (0.02, PROTO_UDP, PORT_DNS, "eph", 160.0, 60.0, 1.2),
    (0.015, PROTO_UDP, "eph", PORT_NTP, 90.0, 5.0, 1.1),
    (0.015, PROTO_UDP, PORT_NTP, "eph", 90.0, 5.0, 1.1),
)


def _draw_ports(rng: np.random.Generator, kind, n: int) -> np.ndarray:
    if kind == "eph":
        return rng.integers(49152, 65536, size=n, dtype=np.uint32)
    if kind == "rand":
        return rng.integers(1024, 65536, size=n, dtype=np.uint32)
    if isinstance(kind, tuple):
        return rng.choice(np.array(kind, dtype=np.uint32), size=n)
    return np.full(n, kind, dtype=np.uint32)


def draw_app_columns(
    rng: np.random.Generator, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised application mixture draw.

    Returns (proto, src_port, dst_port, packets, bytes) arrays.
    """
    shares = np.array([row[0] for row in _APP_MIX])
    shares = shares / shares.sum()
    picks = rng.choice(len(_APP_MIX), size=n, p=shares)
    proto = np.empty(n, dtype=np.uint8)
    src_port = np.empty(n, dtype=np.uint32)
    dst_port = np.empty(n, dtype=np.uint32)
    packets = np.empty(n, dtype=np.int64)
    sizes = np.empty(n, dtype=np.float64)
    for index, (_, app_proto, src_kind, dst_kind, mean, sd, mean_pkts) in enumerate(
        _APP_MIX
    ):
        mask = picks == index
        count = int(mask.sum())
        if not count:
            continue
        proto[mask] = app_proto
        src_port[mask] = _draw_ports(rng, src_kind, count)
        dst_port[mask] = _draw_ports(rng, dst_kind, count)
        packets[mask] = 1 + rng.poisson(mean_pkts - 1, size=count)
        sizes[mask] = rng.normal(mean, sd, size=count)
    sizes = np.clip(sizes, 40.0, 1500.0)
    nbytes = (packets * sizes).astype(np.int64)
    return proto, src_port, dst_port, packets, nbytes


def member_flow_counts(
    rng: np.random.Generator, ixp: IXP, total_rows: int
) -> dict[int, int]:
    """Split ``total_rows`` across members by traffic weight."""
    asns = list(ixp.member_asns)
    weights = ixp.traffic_weights()
    probs = weights / weights.sum()
    counts = rng.multinomial(total_rows, probs)
    return {asn: int(count) for asn, count in zip(asns, counts) if count}


def generate_regular(
    rng: np.random.Generator,
    ixp: IXP,
    pools: dict[int, SourcePool],
    diurnal: DiurnalModel,
    total_rows: int,
    pool_sampler: PoolAddressSampler | None = None,
) -> FlowTable:
    """Generate ``total_rows`` sampled regular flows across all members."""
    member_list = list(ixp.member_asns)
    if len(member_list) < 2:
        raise ValueError(
            "regular traffic needs at least two members: every flow leaves "
            f"through a member other than its ingress (the IXP has "
            f"{len(member_list)})"
        )
    pool_sampler = pool_sampler or PoolAddressSampler()
    counts = member_flow_counts(rng, ixp, total_rows)
    weight_vector = ixp.traffic_weights()
    targets = pool_sampler.span([pools.get(asn) for asn in member_list])
    tables: list[FlowTable] = []
    for member, n in counts.items():
        pool = pools.get(member)
        if pool is None or not pool.entries:
            continue
        src, origins, hidden = pool_sampler.sample(rng, pool, n)
        dst, dst_member = _draw_destinations(
            rng, member, member_list, weight_vector, targets, n
        )
        proto, src_port, dst_port, packets, nbytes = draw_app_columns(rng, n)
        truth = np.where(
            hidden,
            int(TruthLabel.LEGIT_HIDDEN_REL),
            int(TruthLabel.LEGIT),
        ).astype(np.uint8)
        tables.append(
            FlowTable(
                src=src,
                dst=dst,
                proto=proto,
                src_port=src_port,
                dst_port=dst_port,
                packets=packets,
                bytes=nbytes,
                member=np.full(n, member, dtype=np.int64),
                dst_member=dst_member,
                time=diurnal.sample_times(rng, n),
                truth=truth,
            )
        )
    return FlowTable.concat(tables)


def _draw_destinations(
    rng: np.random.Generator,
    member: int,
    member_list: list[int],
    weights: np.ndarray,
    targets: PoolTable,
    n: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Destination member (weighted, != ingress) and an address inside
    that member's visible pool; ``targets`` spans the pools of
    ``member_list`` in order."""
    probs = weights.copy()
    self_index = member_list.index(member)
    probs[self_index] = 0.0
    probs = probs / probs.sum()
    picks = rng.choice(len(member_list), size=n, p=probs)
    _entries, dst = targets.draw(rng, picks, visible_only=True)
    return dst, np.asarray(member_list, dtype=np.int64)[picks]
