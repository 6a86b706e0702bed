"""Columnar IPFIX-like flow records.

A :class:`FlowTable` is the in-memory equivalent of a parsed IPFIX
export: source/destination addresses and ports, protocol, sampled
packet and byte counts, the ingress member that injected the flow into
the fabric, and the flow start time. A ground-truth label rides along
(the real traces obviously lack it); the classifier never reads it —
it exists so the reproduction can measure detector precision/recall.
"""

from __future__ import annotations

import enum
from collections.abc import Iterator, Sequence

import numpy as np

PROTO_ICMP = 1
PROTO_TCP = 6
PROTO_UDP = 17


class TruthLabel(enum.IntEnum):
    """Ground truth of a generated flow (never read by the classifier)."""

    LEGIT = 0  # ordinary traffic with a genuine source address
    LEGIT_HIDDEN_REL = 1  # legitimate, but via a BGP-invisible arrangement
    STRAY_NAT = 2  # misconfigured NAT leaking private sources
    STRAY_ROUTER = 3  # router-originated packets (ICMP etc.)
    SPOOF_FLOOD = 4  # randomly spoofed flooding attack
    SPOOF_TRIGGER = 5  # selectively spoofed amplification trigger
    AMP_RESPONSE = 6  # amplifier response towards the victim (genuine src)
    SPOOF_GAMING = 7  # spoofed flood against game servers


_COLUMNS: tuple[tuple[str, type], ...] = (
    ("src", np.uint64),
    ("dst", np.uint64),
    ("proto", np.uint8),
    ("src_port", np.uint32),
    ("dst_port", np.uint32),
    ("packets", np.int64),
    ("bytes", np.int64),
    ("member", np.int64),
    ("dst_member", np.int64),
    ("time", np.int64),
    ("truth", np.uint8),
)


def _canonical(values: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """``values`` typed by the builtin ``dtype`` instance itself.

    An array that comes out of a pickle carries a dtype that equals the
    builtin one but is a different object, and that takes ``np.add.at``
    (and with it every count-weighted bincount of a chunk summary) off
    its fast path: about 15× slower on a 3,100-row column. ``view``
    swaps the descriptor without copying the data.
    """
    return values if values.dtype is dtype else values.view(dtype)


class FlowTable:
    """A batch of sampled flows, stored as parallel numpy arrays.

    Every column holds the builtin dtype instance of its type (``dtype
    is np.dtype(np.int64)``, not only ``==``), whether the table was
    constructed or unpickled — from a pool payload or a WAL record.
    """

    __slots__ = tuple(name for name, _ in _COLUMNS)

    def __init__(self, **columns: np.ndarray) -> None:
        length = None
        for name, dtype in _COLUMNS:
            values = _canonical(
                np.asarray(columns.get(name, ()), dtype=dtype), np.dtype(dtype)
            )
            if length is None:
                length = values.size
            elif values.size != length:
                raise ValueError(
                    f"column {name!r} has {values.size} rows, expected {length}"
                )
            setattr(self, name, values)

    def __getstate__(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name, _ in _COLUMNS}

    def __setstate__(self, state: dict[str, np.ndarray]) -> None:
        for name, dtype in _COLUMNS:
            setattr(self, name, _canonical(state[name], np.dtype(dtype)))

    def __len__(self) -> int:
        return int(self.src.size)

    @classmethod
    def empty(cls) -> FlowTable:
        return cls()

    @classmethod
    def concat(cls, tables: Sequence["FlowTable"]) -> FlowTable:
        """Concatenate tables (empty inputs allowed)."""
        tables = [t for t in tables if len(t)]
        if not tables:
            return cls.empty()
        return cls(
            **{
                name: np.concatenate([getattr(t, name) for t in tables])
                for name, _ in _COLUMNS
            }
        )

    def select(self, mask: np.ndarray) -> FlowTable:
        """Row subset by boolean mask or integer index array."""
        return FlowTable(
            **{name: getattr(self, name)[mask] for name, _ in _COLUMNS}
        )

    def iter_chunks(self, chunk_rows: int) -> Iterator["FlowTable"]:
        """Yield row-contiguous chunks of at most ``chunk_rows`` flows.

        Chunks are zero-copy views (numpy slices) in table order, so
        ``FlowTable.concat(list(t.iter_chunks(k)))`` reproduces ``t``.
        The streaming classifier consumes these to bound its memory.
        """
        if chunk_rows <= 0:
            raise ValueError("chunk_rows must be positive")
        n = len(self)
        for start in range(0, n, chunk_rows):
            stop = min(start + chunk_rows, n)
            yield FlowTable(
                **{
                    name: getattr(self, name)[start:stop]
                    for name, _ in _COLUMNS
                }
            )

    def total_packets(self) -> int:
        return int(self.packets.sum())

    def total_bytes(self) -> int:
        return int(self.bytes.sum())

    def members(self) -> np.ndarray:
        """Distinct ingress member ASNs present in the table."""
        return np.unique(self.member)

    def sort_by_time(self) -> FlowTable:
        return self.select(np.argsort(self.time, kind="stable"))

    def mean_packet_sizes(self) -> np.ndarray:
        """Per-flow mean packet size in bytes."""
        return self.bytes / np.maximum(self.packets, 1)

    def __repr__(self) -> str:
        return (
            f"FlowTable({len(self)} flows, {self.total_packets()} pkts, "
            f"{self.total_bytes()} bytes)"
        )
