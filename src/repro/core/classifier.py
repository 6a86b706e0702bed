"""The sequential classification pipeline of Figure 3.

The Invalid stage stacks every approach's per-member validity rows
into one packed member×column bit matrix
(:meth:`ValidSpaceMap.packed_matrix`), and the invalid mask for all
routed flows of all members falls out of a single gather::

    (matrix[row_idx, col >> 3] >> (col & 7)) & 1

where ``row_idx`` maps each routed flow to its member's matrix row
and ``col`` is the flow's prefix id (naive) or origin index (cones).

For scenarios too large for one :class:`FlowTable`,
:meth:`SpoofingClassifier.classify_stream` consumes an iterable of
chunks with bounded memory and can fan the chunks out over a process
pool, merging per-approach label vectors and class counters.

Every streamed run is supervised by a :class:`FailurePolicy`
(``fail_fast`` when none is given): every chunk gets a wall-clock
deadline, workers that crash or hang are detected, and — under
``retry`` or ``degrade`` — failed chunks are retried with exponential
backoff and ultimately re-classified in the parent process, with
everything the supervisor had to do recorded in the result's
``failures``.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from multiprocessing.pool import Pool

    from repro.sketch.triage import SketchTriageState, TriageDigest

import numpy as np

from repro.bgp.rib import GlobalRIB
from repro.core.classes import TrafficClass
from repro.core.results import (
    ChunkSummary,
    ClassificationResult,
    FailureLog,
    StreamClassificationResult,
    summarize_chunk,
)
from repro.core.shmring import FlowRing, RingSpec, WorkerRing, stage_read
from repro.cones.base import ValidSpaceMap
from repro.datasets.bogons import bogon_prefix_set
from repro.errors import ClassificationError, WorkerError
from repro.ixp.flows import FlowTable
from repro.net.prefixset import PrefixSet
from repro.obs.metrics import current_metrics, peak_rss_bytes
from repro.obs.trace import current_tracer, enable_tracing

#: Default rows per chunk when ``classify_stream`` is handed a whole
#: :class:`FlowTable` instead of pre-cut chunks.
DEFAULT_CHUNK_ROWS = 262_144

#: Default rows per chunk on the sketch-triage path. Triage keeps no
#: per-row state (no label vectors, 16-byte ring rows), so much larger
#: chunks cost nothing in memory while amortising per-chunk overhead —
#: chunk iteration, digest fixed costs, pool dispatch — over 4× the
#: rows, and giving the (src, member) dedupe sort more repetition to
#: collapse.
TRIAGE_CHUNK_ROWS = 1_048_576

#: Environment override for the multiprocessing start method used by
#: ``classify_stream`` (e.g. ``MP_START_METHOD=spawn`` in CI exercises
#: the non-fork fallback on fork-capable hosts).
MP_START_METHOD_ENV = "MP_START_METHOD"

#: A fault-injection hook: ``hook(chunk_index, attempt, in_worker)``.
#: Called right before a chunk is classified — in the worker process
#: (``in_worker=True``) and before in-process fallbacks/serial chunks
#: (``in_worker=False``). See :mod:`repro.testing.faults`.
FaultInjector = Callable[[int, int, bool], None]

#: The classifier (and, for whole-table runs, the flow table and fault
#: hook) a forked stream worker operates on — set in the parent right
#: before the pool forks, inherited copy-on-write so nothing big
#: crosses a pipe. Spawn-based pools receive the same state through
#: the pool initializer instead.
_STREAM_CLASSIFIER: "SpoofingClassifier | None" = None
_STREAM_TABLE: FlowTable | None = None
_STREAM_INJECTOR: FaultInjector | None = None

#: The worker's attachment to the shared-memory chunk ring
#: (``transport="shm"``) and the armed sketch-triage state
#: (``triage="sketch"``) — both follow the same fork/spawn protocol as
#: the classifier itself (fork inherits, spawn receives via the pool
#: initializer).
_STREAM_RING: WorkerRing | None = None
_STREAM_TRIAGE: "SketchTriageState | None" = None

#: The save/restore registry: every mutable module global a pool
#: worker reads MUST be listed here — ``_classify_parallel`` snapshots
#: and restores exactly these names, and reprolint rule RL002 rejects
#: any worker that reads an unregistered global. Extending the worker
#: protocol means extending this tuple, which is what keeps fork and
#: spawn behaviour symmetric by construction.
_STREAM_GLOBALS = (
    "_STREAM_CLASSIFIER",
    "_STREAM_TABLE",
    "_STREAM_INJECTOR",
    "_STREAM_RING",
    "_STREAM_TRIAGE",
)


@dataclass(frozen=True)
class FailurePolicy:
    """How the supervised streaming path reacts to chunk failures.

    ``mode`` is one of:

    * ``"fail_fast"`` — the first worker failure raises a
      :class:`~repro.errors.WorkerError` naming the chunk.
    * ``"retry"`` — the chunk is resubmitted to the pool up to
      ``max_retries`` times with exponential backoff
      (``backoff_base * backoff_factor**(attempt-1)`` seconds), then
      falls back to in-process classification; the result is complete
      or an error is raised — rows are never silently lost.
    * ``"degrade"`` — a failed chunk goes straight to the in-process
      fallback; if even that fails the chunk's rows are dropped and
      recorded (``failures.rows_dropped``), and the run continues.

    ``chunk_timeout`` is the per-chunk wall-clock budget; a worker
    that exceeds it (hung, or killed so its task can never complete)
    is reclaimed by terminating and rebuilding the pool. ``None``
    disables the deadline (crashes are still caught, hangs are not).
    """

    mode: str = "retry"
    max_retries: int = 2
    chunk_timeout: float | None = 30.0
    backoff_base: float = 0.1
    backoff_factor: float = 2.0

    MODES = ("fail_fast", "retry", "degrade")

    def __post_init__(self) -> None:
        if self.mode not in self.MODES:
            raise ValueError(
                f"unknown failure mode {self.mode!r}; expected one of "
                f"{self.MODES}"
            )
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.chunk_timeout is not None and self.chunk_timeout <= 0:
            raise ValueError("chunk_timeout must be positive or None")

    def backoff(self, attempt: int) -> float:
        """Delay before resubmitting after the ``attempt``-th failure."""
        return self.backoff_base * self.backoff_factor ** max(attempt - 1, 0)

    @classmethod
    def coerce(
        cls, value: "FailurePolicy | str | None"
    ) -> "FailurePolicy | None":
        """Accept a policy, a mode string, or ``None`` (passed through).

        ``classify_stream`` reads ``None`` as ``fail_fast``; callers
        such as the durable watch keep it to mean "no stall deadline".
        """
        if value is None or isinstance(value, FailurePolicy):
            return value
        if isinstance(value, str):
            return cls(mode=value)
        raise TypeError(
            f"policy must be a FailurePolicy, mode string, or None; "
            f"got {type(value).__name__}"
        )


def _stream_init(
    classifier: "SpoofingClassifier | None",
    injector: FaultInjector | None,
    tracing: bool = False,
    ring_spec: RingSpec | None = None,
    triage: "SketchTriageState | None" = None,
) -> None:
    """Pool initializer: adopt pickled state (spawn start only).

    ``tracing`` re-arms the worker's ambient tracer under spawn, where
    the parent's enabled flag is not inherited the way fork inherits
    it; fork pools pass ``False`` (the flag is already in the globals
    the child inherited). ``ring_spec`` is the shared-memory transport
    geometry — attached here under *both* start methods, because a
    :class:`~repro.core.shmring.WorkerRing` holds an mmap that must be
    opened in the child, never inherited. ``triage`` arms the sketch
    path under spawn (fork inherits the parent's global).
    """
    global _STREAM_CLASSIFIER, _STREAM_INJECTOR, _STREAM_RING, _STREAM_TRIAGE
    if classifier is not None:
        _STREAM_CLASSIFIER = classifier
    if injector is not None:
        _STREAM_INJECTOR = injector
    if ring_spec is not None:
        _STREAM_RING = WorkerRing.attach(ring_spec)
    if triage is not None:
        _STREAM_TRIAGE = triage
    if tracing:
        enable_tracing()


def _inject(chunk_index: int, attempt: int) -> None:
    if _STREAM_INJECTOR is not None:
        _STREAM_INJECTOR(chunk_index, attempt, True)


def _summarize(
    classifier: "SpoofingClassifier", chunk: FlowTable, keep_labels: bool
) -> ChunkSummary:
    """Classify one chunk into a summary carrying its time and spans.

    The chunk's span records are captured out of the ambient tracer
    and travel back to the supervisor inside the summary, so
    long-lived pool workers do not accumulate span ledgers across
    chunks.
    """
    began = time.perf_counter()
    with current_tracer().capture() as spans:
        result = classifier.classify(chunk)
    return summarize_chunk(
        result,
        keep_labels=keep_labels,
        spans=spans,
        seconds=time.perf_counter() - began,
    )


def _classify_and_summarize(
    chunk: FlowTable, keep_labels: bool
) -> "ChunkSummary | TriageDigest":
    """Worker-side classify of one chunk (see :func:`_summarize`).

    When a triage state is armed the chunk is digested through the
    sketches instead — the exact matrix engine is never touched.
    """
    assert _STREAM_CLASSIFIER is not None
    if _STREAM_TRIAGE is not None:
        return _STREAM_TRIAGE.digest(chunk, _STREAM_CLASSIFIER._rib)
    return _summarize(_STREAM_CLASSIFIER, chunk, keep_labels)


def _stream_worker(
    payload: tuple[FlowTable, bool, int, int]
) -> "ChunkSummary | TriageDigest":
    """Classify one pickled chunk (spawn pools / explicit chunk iterables)."""
    chunk, keep_labels, chunk_index, attempt = payload
    assert _STREAM_CLASSIFIER is not None
    _inject(chunk_index, attempt)
    return _classify_and_summarize(chunk, keep_labels)


def _stream_worker_range(
    payload: tuple[int, int, bool, int, int]
) -> "ChunkSummary | TriageDigest":
    """Classify rows [start, stop) of the fork-inherited table."""
    start, stop, keep_labels, chunk_index, attempt = payload
    assert _STREAM_CLASSIFIER is not None and _STREAM_TABLE is not None
    _inject(chunk_index, attempt)
    chunk = _STREAM_TABLE.select(slice(start, stop))
    return _classify_and_summarize(chunk, keep_labels)


def _stream_worker_slot(
    payload: tuple[int | None, int, int, FlowTable | None, bool, int, int]
) -> "ChunkSummary | TriageDigest":
    """Gather one chunk from the shared-memory ring and classify it.

    ``slot is None`` is the oversize-chunk escape hatch: a chunk too
    large for a ring slot travels pickled in the payload instead
    (counter ``shm.fallback_chunks``). The gather target is staged
    *before* the fault hook runs so a planned ``"slot_corrupt"`` fault
    damages exactly the slot about to be read.
    """
    slot, generation, n_rows, fallback, keep_labels, chunk_index, attempt = (
        payload
    )
    assert _STREAM_CLASSIFIER is not None
    if slot is None:
        assert fallback is not None
        _inject(chunk_index, attempt)
        return _classify_and_summarize(fallback, keep_labels)
    assert _STREAM_RING is not None
    stage_read(_STREAM_RING, slot)
    _inject(chunk_index, attempt)
    chunk = _STREAM_RING.read(slot, generation, n_rows, chunk_index)
    return _classify_and_summarize(chunk, keep_labels)


@dataclass(slots=True)
class _InFlight:
    """One chunk submitted to the pool and not yet resolved."""

    index: int
    job: object  # (start, stop) range or the FlowTable chunk itself
    attempt: int
    result: object  # multiprocessing AsyncResult
    deadline: float | None
    slot: int | None = None  # ring slot carrying the chunk (shm transport)


class SpoofingClassifier:
    """Classifies flows into Bogon / Unrouted / Invalid / Valid.

    The Bogon and Unrouted stages are AS-agnostic and shared; the
    Invalid stage runs once per configured valid-space approach,
    producing one label vector per approach (the paper's Invalid
    NAIVE / Invalid CC / Invalid FULL columns of Table 1).
    """

    def __init__(
        self,
        rib: GlobalRIB,
        approaches: dict[str, ValidSpaceMap],
        bogons: PrefixSet | None = None,
    ) -> None:
        if not approaches:
            raise ValueError("at least one valid-space approach is required")
        self._rib = rib
        self._approaches = dict(approaches)
        self._bogons = bogons if bogons is not None else bogon_prefix_set()
        self._state_version = 0

    @property
    def approach_names(self) -> list[str]:
        """Configured valid-space approach names, in Table 1 order."""
        return list(self._approaches)

    @property
    def state_version(self) -> int:
        """Monotonic counter of valid-space state mutations.

        The online pipeline bumps this (via
        :meth:`notify_state_changed`) after patching the RIB or any
        approach's matrices; the supervised streaming path compares it
        against the version its worker pool was armed with and
        rebuilds the pool before classifying chunks submitted after a
        change.
        """
        return self._state_version

    def notify_state_changed(self) -> None:
        """Record that the RIB / valid-space state was mutated in place.

        Must be called after every applied delta when this classifier
        is used for streaming: fork workers snapshot state at pool
        creation and spawn workers at initializer pickle time, so a
        pool armed before the mutation would classify new chunks
        against stale matrices.
        """
        self._state_version += 1

    def mark_restored(self) -> None:
        """Re-arm after this classifier was unpickled from a checkpoint.

        A checkpoint restore produces a classifier whose
        ``state_version`` equals the value frozen at save time — the
        same number any surviving pool initializer pickle may carry.
        Bumping past it guarantees the first supervised window after a
        resume arms a *fresh* pool from the restored state instead of
        trusting version equality against a pre-crash artefact. Also
        resets the version-clock baseline the resumed process reasons
        from (restores are state mutations as far as pools care).
        """
        self._state_version += 1

    def classify(self, flows: FlowTable) -> ClassificationResult:
        """Classify every flow; returns per-approach label vectors."""
        with current_tracer().span("classify", rows=len(flows)):
            return self._classify_traced(flows)

    def _classify_traced(self, flows: FlowTable) -> ClassificationResult:
        """The classify body, run inside the ``classify`` span.

        Each stage of Figure 3 is one ``classify.<stage>`` span: bogon,
        lpm, then ``invalid[<approach>]`` per approach.
        """
        n = len(flows)
        src = flows.src
        tracer = current_tracer()
        with tracer.span("classify.bogon", rows=n):
            bogon_mask = self._bogons.contains_many(src)
        with tracer.span("classify.lpm", rows=n):
            prefix_ids, origin_indices = self._rib.lookup_many(src)
        unrouted_mask = ~bogon_mask & (prefix_ids < 0)
        routed_mask = ~bogon_mask & ~unrouted_mask

        # Shared across approaches: which rows are routed, and the
        # member→matrix-row assignment of each routed flow.
        routed_idx = np.flatnonzero(routed_mask)
        unique_members, member_rows = np.unique(
            flows.member[routed_idx], return_inverse=True
        )
        routed_prefix_ids = prefix_ids[routed_idx]
        routed_origin_indices = origin_indices[routed_idx]

        base_vector = np.full(n, int(TrafficClass.VALID), dtype=np.uint8)
        base_vector[bogon_mask] = int(TrafficClass.BOGON)
        base_vector[unrouted_mask] = int(TrafficClass.UNROUTED)

        labels: dict[str, np.ndarray] = {}
        for name, approach in self._approaches.items():
            class_vector = base_vector.copy()
            with tracer.span(f"classify.invalid[{name}]", rows=n):
                invalid_routed = self._invalid_routed_matrix(
                    approach,
                    unique_members,
                    member_rows,
                    routed_prefix_ids,
                    routed_origin_indices,
                )
                class_vector[routed_idx[invalid_routed]] = int(
                    TrafficClass.INVALID
                )
            labels[name] = class_vector
        return ClassificationResult(
            flows=flows,
            labels=labels,
            prefix_ids=prefix_ids,
            origin_indices=origin_indices,
            rib=self._rib,
        )

    @staticmethod
    def _invalid_routed_matrix(
        approach: ValidSpaceMap,
        unique_members: np.ndarray,
        member_rows: np.ndarray,
        prefix_ids: np.ndarray,
        origin_indices: np.ndarray,
    ) -> np.ndarray:
        """Invalid mask over routed flows, one gather for all members."""
        if member_rows.size == 0:
            return np.zeros(0, dtype=bool)
        matrix = approach.packed_matrix(unique_members)
        cols = (
            prefix_ids
            if approach.column_kind == "prefix"
            else origin_indices
        ).astype(np.int64, copy=False)
        bits = (matrix[member_rows, cols >> 3] >> (cols & 7).astype(np.uint8)) & 1
        return bits == 0

    # -- streaming ---------------------------------------------------------

    def classify_stream(
        self,
        flow_chunks: Iterable[FlowTable] | FlowTable,
        *,
        n_workers: int | None = None,
        keep_labels: bool = False,
        chunk_rows: int | None = None,
        policy: FailurePolicy | str | None = None,
        fault_injector: FaultInjector | None = None,
        transport: str = "pickle",
        triage: str | None = None,
        triage_members: "np.ndarray | list[int] | None" = None,
    ) -> StreamClassificationResult:
        """Classify a stream of flow chunks with bounded memory.

        ``flow_chunks`` is an iterable of :class:`FlowTable` chunks (a
        single table is chunked into ``chunk_rows`` slices first;
        ``chunk_rows`` must be positive, and ``None`` picks
        :data:`DEFAULT_CHUNK_ROWS`, or the larger
        :data:`TRIAGE_CHUNK_ROWS` on the constant-memory triage path).
        With ``n_workers`` a process pool classifies chunks in
        parallel; per-chunk class counters, member sets, span records
        and (when ``keep_labels``) label vectors are merged in chunk
        order, so the result matches a single-shot :meth:`classify`
        over the concatenated flows. When a whole table is passed on a
        fork-capable platform, workers inherit it copy-on-write and
        receive only row ranges — no flow data is ever pickled.

        ``policy`` (a :class:`FailurePolicy` or one of its mode
        strings; ``None`` means ``fail_fast``) sets how the supervisor
        treats a failed chunk: per-chunk timeouts and dead/hung-worker
        reclamation always apply, and ``retry``/``degrade`` add bounded
        retries with backoff and in-process fallback. Everything the
        supervisor did is recorded in the result's ``failures``; a
        chunk that fails in-process raises
        :class:`~repro.errors.ClassificationError` naming it unless the
        policy degrades. ``fault_injector`` is the deterministic
        testing seam (:mod:`repro.testing.faults`).

        ``transport="shm"`` replaces the pickle-per-chunk pool payload
        with a shared-memory ring (:mod:`repro.core.shmring`): the
        parent packs each chunk into a slot, workers gather zero-copy
        views, and only a six-integer descriptor crosses the pipe.
        Results are bit-equal to the pickle transport under both fork
        and spawn. ``triage="sketch"`` swaps the exact matrix engine
        for the constant-memory sketch triage
        (:mod:`repro.sketch`) — the result's exact per-approach
        counters stay empty and ``result.triage`` carries the
        :class:`~repro.sketch.triage.SketchTriageResult` instead;
        ``triage_members`` overrides the member universe the
        signatures are armed for (defaults to the table's distinct
        members, falling back to the RIB's observed AS universe for
        chunk iterables).
        """
        if transport not in ("pickle", "shm"):
            raise ValueError(
                f"unknown transport {transport!r}; expected 'pickle' or 'shm'"
            )
        if triage not in (None, "sketch"):
            raise ValueError(
                f"unknown triage {triage!r}; expected None or 'sketch'"
            )
        if triage is not None and keep_labels:
            raise ValueError(
                "triage and keep_labels are mutually exclusive: the sketch "
                "path never materialises label vectors"
            )
        if chunk_rows is None:
            chunk_rows = (
                TRIAGE_CHUNK_ROWS if triage is not None else DEFAULT_CHUNK_ROWS
            )
        if chunk_rows <= 0:
            raise ValueError(f"chunk_rows must be positive, got {chunk_rows}")
        policy = FailurePolicy.coerce(policy) or FailurePolicy("fail_fast")
        table = flow_chunks if isinstance(flow_chunks, FlowTable) else None
        merged = StreamClassificationResult(
            self.approach_names, keep_labels=keep_labels
        )
        triage_state = None
        if triage == "sketch":
            # Imported lazily: repro.sketch is import-cycle-free with
            # repro.core only because the dependency points this way.
            from repro.sketch.triage import (
                SketchTriageResult,
                build_triage_state,
            )

            if triage_members is not None:
                members = np.asarray(triage_members, dtype=np.int64)
            elif table is not None:
                members = table.members()
            else:
                members = np.asarray(
                    self._rib.indexer.asns(), dtype=np.int64
                )
            primary = self.approach_names[0]
            triage_state = build_triage_state(
                self._approaches[primary], self._bogons, members
            )
            merged.triage = SketchTriageResult(
                triage_state.params, triage_state.approach_name
            )
        stream_start = time.perf_counter()
        latency = current_metrics().histogram("stream.chunk_seconds")

        def absorb(summary: "ChunkSummary | TriageDigest") -> None:
            latency.observe(summary.seconds)
            if isinstance(summary, ChunkSummary):
                merged.absorb(summary)
                return
            assert merged.triage is not None
            merged.triage.absorb(summary)
            merged.n_flows += summary.n_flows
            merged.n_chunks += 1

        if n_workers is None or n_workers <= 1:
            chunks = (
                table.iter_chunks(chunk_rows) if table is not None else flow_chunks
            )
            for index, chunk in enumerate(chunks):
                try:
                    absorb(
                        self._inline_summary(
                            chunk, keep_labels, index, 1, fault_injector,
                            triage_state,
                        )
                    )
                except Exception as exc:
                    if policy.mode == "degrade":
                        merged.failures.record_dropped(
                            index, len(chunk), 1, repr(exc)
                        )
                        continue
                    raise ClassificationError(
                        f"chunk failed in-process: {exc}", chunk_index=index
                    ) from exc
        else:
            for summary in self._classify_parallel(
                flow_chunks,
                n_workers,
                keep_labels,
                chunk_rows,
                policy=policy,
                injector=fault_injector,
                failures=merged.failures,
                transport=transport,
                triage_state=triage_state,
            ):
                absorb(summary)
        self._observe_stream(merged, time.perf_counter() - stream_start)
        return merged

    @staticmethod
    def _observe_stream(
        merged: StreamClassificationResult, elapsed: float
    ) -> None:
        """Record a streamed run into the ambient tracer and metrics.

        Emits the enclosing ``classify.stream`` span, per-class row
        counters, supervision counters, the per-chunk compute-latency
        histogram (from each chunk's own ``seconds``) and the peak
        RSS gauge. Runs once per streamed call — far off the per-row
        hot path.
        """
        tracer = current_tracer()
        if tracer.enabled:
            tracer.record(
                "classify.stream",
                elapsed,
                rows=merged.n_flows,
                chunks=merged.n_chunks,
            )
        registry = current_metrics()
        registry.counter("stream.chunks").inc(merged.n_chunks)
        registry.counter("stream.rows").inc(merged.n_flows)
        if merged.triage is not None:
            registry.counter("sketch.chunks").inc(merged.n_chunks)
            registry.counter("sketch.rows").inc(merged.n_flows)
            for name, count in merged.triage.class_counts().items():
                registry.counter(f"sketch.rows.{name}").inc(count)
            registry.counter("sketch.heavy_hitters").inc(
                len(merged.triage.spoofed_sources)
            )
        for approach in merged.approaches:
            counts = merged.flow_counts[approach]
            for cls in TrafficClass:
                registry.counter(
                    f"rows.{approach}.{cls.name.lower()}"
                ).inc(int(counts[int(cls)]))
        failures = merged.failures
        registry.counter("stream.chunks_retried").inc(failures.chunks_retried)
        registry.counter("stream.chunks_degraded").inc(
            failures.chunks_degraded
        )
        registry.counter("stream.rows_dropped").inc(failures.rows_dropped)
        registry.gauge("peak_rss_bytes").set(peak_rss_bytes())

    def _inline_summary(
        self,
        chunk: FlowTable,
        keep_labels: bool,
        index: int,
        attempt: int,
        injector: FaultInjector | None,
        triage_state: "SketchTriageState | None" = None,
    ) -> "ChunkSummary | TriageDigest":
        """Classify one chunk in the current process."""
        if injector is not None:
            injector(index, attempt, False)
        if triage_state is not None:
            return triage_state.digest(chunk, self._rib)
        return _summarize(self, chunk, keep_labels)

    def _classify_parallel(
        self,
        flow_chunks: Iterable[FlowTable] | FlowTable,
        n_workers: int,
        keep_labels: bool,
        chunk_rows: int,
        *,
        policy: FailurePolicy,
        injector: FaultInjector | None,
        failures: FailureLog,
        transport: str,
        triage_state: "SketchTriageState | None",
    ) -> "Iterator[ChunkSummary | TriageDigest]":
        """Fan chunks out over a supervised pool, yield summaries in order.

        A windowed ``apply_async`` scheduler: chunks are submitted with
        a bounded in-flight window and their summaries yielded strictly
        in chunk order (so merged label vectors match a serial run bit
        for bit). The oldest in-flight chunk is awaited under its
        deadline; a worker exception resolves just that chunk, while a
        deadline expiry (hung or killed worker — its task can never
        complete) tears the whole pool down, rebuilds it, and
        resubmits the collateral in-flight chunks.

        Pools are version-aware: when the classifier's
        :attr:`state_version` moves mid-stream (the online pipeline
        patched the RIB or a validity matrix in place), in-flight
        chunks drain against the state their pool was armed with, then
        the pool is rebuilt — fork re-snapshots the parent's current
        memory, spawn re-pickles the classifier — before any later
        chunk is submitted. Chunks resubmitted after a worker death
        rerun against the rebuilt pool's (current) state.

        Under the shm transport slot ownership stays strictly here in
        the parent: a chunk keeps its ring slot across retries (the
        header is repaired from the authoritative copy, the columns
        were written once), and the slot is released only when the
        chunk resolves — success, degraded fallback, or drop — so a
        reclaimed worker can never strand a slot.
        """
        # Materialise the finalized RIB before the fork so workers
        # share it copy-on-write instead of each rebuilding it.
        self._rib.lookup_many(np.zeros(1, dtype=np.uint64))
        global _STREAM_CLASSIFIER, _STREAM_TABLE, _STREAM_INJECTOR
        global _STREAM_TRIAGE
        table = flow_chunks if isinstance(flow_chunks, FlowTable) else None
        method = os.environ.get(MP_START_METHOD_ENV, "").strip() or None
        if method is None:
            fork = "fork" in multiprocessing.get_all_start_methods()
            method = "fork" if fork else None
        else:
            fork = method == "fork"
        ctx = multiprocessing.get_context(method)
        window = max(2, 2 * n_workers)
        ring: FlowRing | None = None
        if transport == "shm":
            # Slots strictly exceed the in-flight window so acquire()
            # is brief backpressure, never a deadlock. Triage digests
            # read only (src, member), so its ring carries just those
            # two columns — 16 bytes per row instead of the full table.
            ring = FlowRing.create(
                slots=window + 2,
                capacity=chunk_rows,
                columns=("src", "member") if triage_state is not None else None,
            )
        use_ranges = fork and table is not None and ring is None
        if use_ranges:
            assert table is not None
            n = len(table)
            jobs_iter: Iterator[object] = (
                (start, min(start + chunk_rows, n))
                for start in range(0, n, chunk_rows)
            )
        elif table is not None:
            jobs_iter = table.iter_chunks(chunk_rows)
        else:
            jobs_iter = iter(flow_chunks)
        jobs = enumerate(jobs_iter)

        def make_pool() -> Pool:
            # Initargs are evaluated at every pool (re)build, not once
            # per stream: a rebuilt spawn pool must pickle the
            # classifier's *current* (possibly delta-patched) state,
            # and the tracer enabled flag must reflect the tracer as it
            # is now. The ring is attached in the initializer under
            # both start methods (a worker must open its own mapping).
            ring_spec = ring.spec if ring is not None else None
            if fork:
                initargs: tuple = (None, None, False, ring_spec, None)
            else:
                initargs = (
                    self, injector, current_tracer().enabled, ring_spec,
                    triage_state,
                )
            return ctx.Pool(
                processes=n_workers,
                initializer=_stream_init,
                initargs=initargs,
            )

        def submit(
            pool: Pool,
            index: int,
            job: Any,
            attempt: int,
            slot: int | None = None,
        ) -> _InFlight:
            if ring is not None and len(job) <= ring.capacity:
                if slot is None:
                    slot = ring.acquire(timeout=60.0)
                    generation = ring.write(slot, job, index)
                else:
                    # Retry: columns are already in the slot; repair
                    # the header (a corrupt fault may have hit it) and
                    # resend the same descriptor.
                    ring.refresh_header(slot)
                    generation = ring.generation(slot)
                payload: tuple = (
                    slot, generation, len(job), None, keep_labels, index,
                    attempt,
                )
                result = pool.apply_async(_stream_worker_slot, (payload,))
            elif ring is not None:
                current_metrics().counter("shm.fallback_chunks").inc()
                payload = (None, 0, 0, job, keep_labels, index, attempt)
                result = pool.apply_async(_stream_worker_slot, (payload,))
            elif use_ranges:
                start, stop = job
                payload = (start, stop, keep_labels, index, attempt)
                result = pool.apply_async(_stream_worker_range, (payload,))
            else:
                payload = (job, keep_labels, index, attempt)
                result = pool.apply_async(_stream_worker, (payload,))
            deadline = (
                None
                if policy.chunk_timeout is None
                else time.monotonic() + policy.chunk_timeout
            )
            return _InFlight(index, job, attempt, result, deadline, slot)

        def release_slot(entry: _InFlight) -> None:
            if ring is not None and entry.slot is not None:
                ring.release(entry.slot)

        def inline_chunk(job: Any) -> FlowTable:
            if use_ranges:
                assert table is not None
                start, stop = job
                return table.select(slice(start, stop))
            return job

        def resolve_failure(
            pool: Pool, failed: _InFlight, exc: BaseException
        ) -> tuple[str, Any]:
            """Apply the policy to one failed chunk.

            Returns ``("resubmitted", entry)``, ``("summary", s)``, or
            ``("dropped", None)``; raises under ``fail_fast`` or when
            recovery is impossible.
            """
            reason = f"{type(exc).__name__}: {exc}"
            if policy.mode == "fail_fast":
                raise WorkerError(
                    f"chunk {failed.index} failed "
                    f"(attempt {failed.attempt}): {reason}",
                    chunk_index=failed.index,
                    attempts=failed.attempt,
                ) from exc
            if policy.mode == "retry" and failed.attempt <= policy.max_retries:
                delay = policy.backoff(failed.attempt)
                if delay > 0:
                    time.sleep(delay)
                failures.record_retry(failed.index, failed.attempt, reason)
                return (
                    "resubmitted",
                    submit(
                        pool, failed.index, failed.job, failed.attempt + 1,
                        slot=failed.slot,
                    ),
                )
            # Retry budget exhausted (retry) or first failure (degrade):
            # reclassify in the parent process.
            chunk = inline_chunk(failed.job)
            next_attempt = failed.attempt + 1
            try:
                summary = self._inline_summary(
                    chunk, keep_labels, failed.index, next_attempt, injector,
                    triage_state,
                )
            except Exception as inline_exc:
                if policy.mode == "degrade":
                    release_slot(failed)
                    failures.record_dropped(
                        failed.index,
                        len(chunk),
                        next_attempt,
                        f"{type(inline_exc).__name__}: {inline_exc}",
                    )
                    return ("dropped", None)
                raise WorkerError(
                    f"chunk {failed.index} failed after {failed.attempt} "
                    f"pool attempt(s) and the in-process fallback: "
                    f"{inline_exc}",
                    chunk_index=failed.index,
                    attempts=next_attempt,
                ) from inline_exc
            release_slot(failed)
            failures.record_degraded(failed.index, failed.attempt, reason)
            return ("summary", summary)

        inflight: deque[_InFlight] = deque()
        staged: tuple[int, Any] | None = None
        exhausted = False
        armed_version = self._state_version
        # Save/restore is unconditional and symmetric across start
        # methods: fork workers inherit the globals set here, spawn
        # workers receive the same state through the initializer, and
        # the parent's globals always return to their previous values
        # so repeated streamed runs can't observe stale state. The
        # snapshot is driven by the _STREAM_GLOBALS registry so a new
        # worker global cannot be wired in without joining it.
        previous = {name: globals()[name] for name in _STREAM_GLOBALS}
        if fork:
            _STREAM_CLASSIFIER = self
            _STREAM_TABLE = table
            _STREAM_INJECTOR = injector
            _STREAM_TRIAGE = triage_state
        pool: Pool | None = None
        try:
            pool = make_pool()
            while True:
                while not exhausted and len(inflight) < window:
                    if staged is None:
                        staged = next(jobs, None)
                        if staged is None:
                            exhausted = True
                            break
                    if self._state_version != armed_version:
                        # The valid-space state moved under us (the
                        # stream generator applied a delta before
                        # yielding this chunk). In-flight chunks finish
                        # against their pool's armed state; this chunk
                        # must see the current state, so drain first,
                        # then rebuild.
                        if inflight:
                            break
                        pool.terminate()
                        pool.join()
                        pool = make_pool()
                        armed_version = self._state_version
                    inflight.append(submit(pool, staged[0], staged[1], 1))
                    staged = None
                if not inflight:
                    break
                head = inflight[0]
                timeout = (
                    None
                    if head.deadline is None
                    else max(head.deadline - time.monotonic(), 0.0)
                )
                try:
                    summary = head.result.get(timeout)
                except multiprocessing.TimeoutError:
                    # Hung or killed worker: its task can never
                    # complete and the pool's internal state can't be
                    # trusted — reclaim everything and resubmit.
                    pool.terminate()
                    pool.join()
                    pool = make_pool()
                    # The rebuilt pool snapshots the *current* state,
                    # so collateral/resubmitted chunks rerun against
                    # the newest matrices (at-least-as-current).
                    armed_version = self._state_version
                    failed = inflight.popleft()
                    collateral = list(inflight)
                    inflight.clear()
                    outcome, value = resolve_failure(
                        pool,
                        failed,
                        TimeoutError(
                            f"no result within {policy.chunk_timeout}s "
                            "(worker hung or died)"
                        ),
                    )
                    for entry in collateral:
                        inflight.append(
                            submit(
                                pool, entry.index, entry.job, entry.attempt,
                                slot=entry.slot,
                            )
                        )
                    if outcome == "resubmitted":
                        inflight.appendleft(value)
                    elif outcome == "summary":
                        yield value
                    continue
                except Exception as exc:
                    # The worker raised: the pool itself is healthy,
                    # only this chunk needs policy treatment.
                    failed = inflight.popleft()
                    outcome, value = resolve_failure(pool, failed, exc)
                    if outcome == "resubmitted":
                        inflight.appendleft(value)
                    elif outcome == "summary":
                        yield value
                    continue
                release_slot(inflight.popleft())
                yield summary
        finally:
            if pool is not None:
                pool.terminate()
                pool.join()
            globals().update(previous)
            if ring is not None:
                ring.destroy()


def default_stream_workers() -> int:
    """A sensible worker count for ``classify_stream`` (≥1)."""
    return max(1, (os.cpu_count() or 2) - 1)
