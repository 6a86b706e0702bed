"""Aggregations over classification output (Table 1 and friends)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bgp.rib import GlobalRIB
from repro.core.classes import TrafficClass
from repro.ixp.flows import FlowTable
from repro.obs.trace import SpanRecord
from repro.util.indexing import int_bincount

#: Number of traffic classes (label vectors hold values 0..N-1).
N_CLASSES = len(TrafficClass)


@dataclass(slots=True)
class ClassContribution:
    """One cell group of Table 1: who and how much."""

    traffic_class: TrafficClass
    approach: str
    members: int
    member_share: float  # fraction of members contributing
    packets: int  # sampled packets
    bytes: int  # sampled bytes
    packet_share: float  # of total sampled packets
    byte_share: float


class ClassificationResult:
    """Per-approach labels for one classified flow table."""

    def __init__(
        self,
        flows: FlowTable,
        labels: dict[str, np.ndarray],
        prefix_ids: np.ndarray,
        origin_indices: np.ndarray,
        rib: GlobalRIB,
    ) -> None:
        self.flows = flows
        self.labels = labels
        self.prefix_ids = prefix_ids
        self.origin_indices = origin_indices
        self.rib = rib

    @property
    def approaches(self) -> list[str]:
        """Configured approach names, in classification order."""
        return list(self.labels)

    def label_vector(self, approach: str) -> np.ndarray:
        """Per-flow class labels (uint8) under one approach."""
        return self.labels[approach]

    def counters(self) -> dict[str, object]:
        """The run counters a manifest records (one chunk, none dropped)."""
        invalid = int(TrafficClass.INVALID)
        return {
            "n_flows": len(self.flows),
            "n_chunks": 1,
            "rows_dropped": 0,
            "invalid_counts": {
                name: int(np.count_nonzero(labels == invalid))
                for name, labels in self.labels.items()
            },
        }

    def class_mask(self, approach: str, traffic_class: TrafficClass) -> np.ndarray:
        """Boolean row mask of flows in one class under one approach."""
        return self.labels[approach] == int(traffic_class)

    def select_class(
        self, approach: str, traffic_class: TrafficClass
    ) -> FlowTable:
        """Flow subset falling into one class under one approach."""
        return self.flows.select(self.class_mask(approach, traffic_class))

    # -- Table 1 -----------------------------------------------------------

    def contribution(
        self, approach: str, traffic_class: TrafficClass
    ) -> ClassContribution:
        """Member count and traffic volume of one class (Table 1 cell)."""
        mask = self.class_mask(approach, traffic_class)
        total_members = int(np.unique(self.flows.member).size) or 1
        total_packets = int(self.flows.packets.sum()) or 1
        total_bytes = int(self.flows.bytes.sum()) or 1
        members = int(np.unique(self.flows.member[mask]).size)
        packets = int(self.flows.packets[mask].sum())
        nbytes = int(self.flows.bytes[mask].sum())
        return ClassContribution(
            traffic_class=traffic_class,
            approach=approach,
            members=members,
            member_share=members / total_members,
            packets=packets,
            bytes=nbytes,
            packet_share=packets / total_packets,
            byte_share=nbytes / total_bytes,
        )

    def table1(self) -> dict[str, ClassContribution]:
        """All columns of Table 1.

        Keys: ``"bogon"``, ``"unrouted"``, and ``"invalid <approach>"``
        per configured approach. Bogon/Unrouted are approach-agnostic;
        they are computed from the first approach's labels.
        """
        first = self.approaches[0]
        out = {
            "bogon": self.contribution(first, TrafficClass.BOGON),
            "unrouted": self.contribution(first, TrafficClass.UNROUTED),
        }
        for approach in self.approaches:
            out[f"invalid {approach}"] = self.contribution(
                approach, TrafficClass.INVALID
            )
        return out

    # -- per-member views ---------------------------------------------------

    def member_class_shares(
        self, approach: str, traffic_class: TrafficClass, weight: str = "packets"
    ) -> dict[int, float]:
        """Per member: fraction of its traffic falling in the class.

        ``weight`` is ``"packets"`` or ``"bytes"`` (Figure 4's y-axis).
        """
        weights = getattr(self.flows, weight).astype(np.float64)
        members = self.flows.member
        mask = self.class_mask(approach, traffic_class)
        unique_members, inverse = np.unique(members, return_inverse=True)
        totals = np.zeros(unique_members.size, dtype=np.float64)
        in_class = np.zeros(unique_members.size, dtype=np.float64)
        np.add.at(totals, inverse, weights)
        np.add.at(in_class, inverse, np.where(mask, weights, 0.0))
        shares = np.divide(
            in_class, totals, out=np.zeros_like(in_class), where=totals > 0
        )
        return {
            int(asn): float(share)
            for asn, share in zip(unique_members, shares)
        }

    def members_contributing(
        self, approach: str, traffic_class: TrafficClass
    ) -> set[int]:
        """ASNs of members with at least one flow in the class."""
        mask = self.class_mask(approach, traffic_class)
        return {int(asn) for asn in np.unique(self.flows.member[mask])}

    def relabel(self, approach: str, labels: np.ndarray) -> "ClassificationResult":
        """A copy with one approach's labels replaced (FP-hunt reruns)."""
        new_labels = dict(self.labels)
        new_labels[approach] = labels
        return ClassificationResult(
            flows=self.flows,
            labels=new_labels,
            prefix_ids=self.prefix_ids,
            origin_indices=self.origin_indices,
            rib=self.rib,
        )


# -- streaming ------------------------------------------------------------


@dataclass(slots=True)
class ChunkFailure:
    """One supervision event on one chunk of a streamed run."""

    chunk_index: int
    attempt: int
    action: str  # "retried" | "degraded" | "dropped"
    reason: str


class FailureLog:
    """What went wrong (and how it was handled) during a streamed run.

    ``chunks_retried`` counts chunks that needed at least one pool
    retry before succeeding, ``chunks_degraded`` counts chunks that
    fell back to in-process classification, and ``rows_dropped`` counts
    flow rows lost to chunks that failed even the in-process fallback
    under ``policy="degrade"``. The ``events`` list records every
    individual action. A result with ``rows_dropped > 0`` is partial —
    ``complete`` is the one flag downstream code must check before
    presenting counters as exact.
    """

    def __init__(self) -> None:
        self.events: list[ChunkFailure] = []
        self.rows_dropped = 0
        self._retried: set[int] = set()
        self._degraded: set[int] = set()
        self._dropped: set[int] = set()

    @property
    def chunks_retried(self) -> int:
        """Distinct chunks that needed at least one pool retry."""
        return len(self._retried)

    @property
    def chunks_degraded(self) -> int:
        """Distinct chunks that fell back to in-process classification."""
        return len(self._degraded)

    @property
    def chunks_dropped(self) -> int:
        """Distinct chunks abandoned entirely (their rows are lost)."""
        return len(self._dropped)

    @property
    def complete(self) -> bool:
        """True when no rows were lost (counters are exact)."""
        return self.rows_dropped == 0

    def record_retry(self, chunk_index: int, attempt: int, reason: str) -> None:
        """Log one failed attempt that will be re-dispatched to the pool."""
        self._retried.add(chunk_index)
        self.events.append(ChunkFailure(chunk_index, attempt, "retried", reason))

    def record_degraded(
        self, chunk_index: int, attempt: int, reason: str
    ) -> None:
        """Log a chunk falling back to in-process classification."""
        self._degraded.add(chunk_index)
        self.events.append(
            ChunkFailure(chunk_index, attempt, "degraded", reason)
        )

    def record_dropped(
        self, chunk_index: int, rows: int, attempt: int, reason: str
    ) -> None:
        """Log a chunk abandoned for good; ``rows`` are lost (partial run)."""
        self._dropped.add(chunk_index)
        self.rows_dropped += int(rows)
        self.events.append(ChunkFailure(chunk_index, attempt, "dropped", reason))

    def __bool__(self) -> bool:
        return bool(self.events)

    def render(self) -> str:
        """Plain-text supervision report (the CLI's stderr summary)."""
        lines = [
            "stream failures: "
            f"{self.chunks_retried} chunk(s) retried, "
            f"{self.chunks_degraded} degraded in-process, "
            f"{self.chunks_dropped} dropped ({self.rows_dropped} rows lost)"
        ]
        for event in self.events:
            lines.append(
                f"  chunk {event.chunk_index} attempt {event.attempt}: "
                f"{event.action} — {event.reason}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"FailureLog(retried={self.chunks_retried}, "
            f"degraded={self.chunks_degraded}, "
            f"rows_dropped={self.rows_dropped})"
        )


@dataclass(slots=True)
class ChunkSummary:
    """Merge-ready digest of one classified chunk (picklable, small).

    ``seconds`` is the chunk's classify time, measured where the
    chunk ran (what ``stream.chunk_seconds`` observes). ``spans``
    carries the chunk's completed
    :class:`~repro.obs.trace.SpanRecord` s when tracing is enabled —
    the vehicle that moves span ledgers from pool workers back to the
    supervisor (records are plain dataclasses, so they pickle).
    """

    n_flows: int
    flow_counts: dict[str, np.ndarray]  # approach → (N_CLASSES,) int64
    packet_counts: dict[str, np.ndarray]
    byte_counts: dict[str, np.ndarray]
    class_members: dict[str, tuple[frozenset, ...]]  # per-class member ASNs
    labels: dict[str, np.ndarray] | None
    seconds: float = 0.0
    spans: list[SpanRecord] = field(default_factory=list)


def summarize_chunk(
    result: ClassificationResult,
    keep_labels: bool = False,
    spans: list[SpanRecord] | None = None,
    seconds: float = 0.0,
) -> ChunkSummary:
    """Collapse a :class:`ClassificationResult` into mergeable counters."""
    flows = result.flows
    packets = flows.packets
    nbytes = flows.bytes
    flow_counts: dict[str, np.ndarray] = {}
    packet_counts: dict[str, np.ndarray] = {}
    byte_counts: dict[str, np.ndarray] = {}
    class_members: dict[str, tuple[frozenset, ...]] = {}
    for approach, labels in result.labels.items():
        flow_counts[approach] = np.bincount(labels, minlength=N_CLASSES).astype(
            np.int64
        )
        packet_counts[approach] = int_bincount(
            labels, packets, minlength=N_CLASSES
        )
        byte_counts[approach] = int_bincount(
            labels, nbytes, minlength=N_CLASSES
        )
        class_members[approach] = tuple(
            frozenset(np.unique(flows.member[labels == c]).tolist())
            for c in range(N_CLASSES)
        )
    return ChunkSummary(
        n_flows=len(flows),
        flow_counts=flow_counts,
        packet_counts=packet_counts,
        byte_counts=byte_counts,
        class_members=class_members,
        labels=dict(result.labels) if keep_labels else None,
        seconds=seconds,
        spans=list(spans) if spans else [],
    )


class StreamClassificationResult:
    """Merged output of a chunked / parallel classification run.

    Holds per-approach class counters (flows, sampled packets, bytes),
    per-class member sets, and — when requested — the concatenated
    per-approach label vectors. Counters are identical to what a
    single-shot :meth:`classify` over the concatenated flows would
    aggregate to.

    ``failures`` records what the supervised streaming path had to do
    to finish (retries, in-process fallbacks, dropped chunks); check
    ``complete`` before presenting the counters as exact — a run that
    dropped rows under ``policy="degrade"`` is partial, never silently
    complete.
    """

    def __init__(self, approaches: list[str], keep_labels: bool = False) -> None:
        self.approaches = list(approaches)
        self.n_flows = 0
        self.n_chunks = 0
        self.flow_counts: dict[str, np.ndarray] = {
            a: np.zeros(N_CLASSES, dtype=np.int64) for a in self.approaches
        }
        self.packet_counts: dict[str, np.ndarray] = {
            a: np.zeros(N_CLASSES, dtype=np.int64) for a in self.approaches
        }
        self.byte_counts: dict[str, np.ndarray] = {
            a: np.zeros(N_CLASSES, dtype=np.int64) for a in self.approaches
        }
        self._class_members: dict[str, list[set[int]]] = {
            a: [set() for _ in range(N_CLASSES)] for a in self.approaches
        }
        self.failures = FailureLog()
        #: Span records merged from every chunk (worker or in-process)
        #: when tracing was enabled — empty otherwise.
        self.spans: list[SpanRecord] = []
        self._keep_labels = keep_labels
        self._label_chunks: dict[str, list[np.ndarray]] = (
            {a: [] for a in self.approaches} if keep_labels else {}
        )

    def absorb(self, summary: ChunkSummary) -> None:
        """Fold one chunk digest in (chunk order = flow order)."""
        self.n_flows += summary.n_flows
        self.n_chunks += 1
        for approach in self.approaches:
            self.flow_counts[approach] += summary.flow_counts[approach]
            self.packet_counts[approach] += summary.packet_counts[approach]
            self.byte_counts[approach] += summary.byte_counts[approach]
            for c in range(N_CLASSES):
                self._class_members[approach][c] |= summary.class_members[
                    approach
                ][c]
            if self._keep_labels:
                if summary.labels is None:
                    raise ValueError("chunk summary carries no labels")
                self._label_chunks[approach].append(summary.labels[approach])
        if summary.spans:
            self.spans.extend(summary.spans)

    def class_counts(self, approach: str) -> dict[TrafficClass, int]:
        """Flows per traffic class for one approach."""
        counts = self.flow_counts[approach]
        return {cls: int(counts[int(cls)]) for cls in TrafficClass}

    def members(self, approach: str, traffic_class: TrafficClass) -> set[int]:
        """Member ASNs with at least one flow in the class."""
        return set(self._class_members[approach][int(traffic_class)])

    def label_vector(self, approach: str) -> np.ndarray:
        """Concatenated labels (requires ``keep_labels=True``)."""
        if not self._keep_labels:
            raise ValueError("labels were not kept; pass keep_labels=True")
        chunks = self._label_chunks[approach]
        if not chunks:
            return np.zeros(0, dtype=np.uint8)
        return np.concatenate(chunks)

    def contribution(
        self, approach: str, traffic_class: TrafficClass
    ) -> ClassContribution:
        """A Table 1 cell computed from the merged counters."""
        c = int(traffic_class)
        total_members = len(
            set().union(*self._class_members[approach])
        ) or 1
        total_packets = int(self.packet_counts[approach].sum()) or 1
        total_bytes = int(self.byte_counts[approach].sum()) or 1
        members = len(self._class_members[approach][c])
        packets = int(self.packet_counts[approach][c])
        nbytes = int(self.byte_counts[approach][c])
        return ClassContribution(
            traffic_class=traffic_class,
            approach=approach,
            members=members,
            member_share=members / total_members,
            packets=packets,
            bytes=nbytes,
            packet_share=packets / total_packets,
            byte_share=nbytes / total_bytes,
        )

    @property
    def complete(self) -> bool:
        """True when no rows were dropped by the failure policy."""
        return self.failures.complete

    def counters(self) -> dict[str, object]:
        """The run counters a manifest records."""
        invalid = int(TrafficClass.INVALID)
        return {
            "n_flows": self.n_flows,
            "n_chunks": self.n_chunks,
            "rows_dropped": self.failures.rows_dropped,
            "invalid_counts": {
                name: int(counts[invalid])
                for name, counts in self.flow_counts.items()
            },
        }

    def __repr__(self) -> str:
        suffix = "" if self.failures.complete else ", PARTIAL"
        return (
            f"StreamClassificationResult({self.n_flows} flows, "
            f"{self.n_chunks} chunks, {len(self.approaches)} approaches"
            f"{suffix})"
        )
