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
import signal
import time
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from contextlib import AbstractContextManager, contextmanager, nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from multiprocessing.pool import Pool

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

#: Environment override for the multiprocessing start method used by
#: ``classify_stream`` (e.g. ``MP_START_METHOD=spawn`` in CI exercises
#: the non-fork fallback on fork-capable hosts).
MP_START_METHOD_ENV = "MP_START_METHOD"

#: A fault-injection hook: ``hook(chunk_index, attempt, in_worker)``.
#: Called right before a chunk is classified — in the worker process
#: (``in_worker=True``) and before in-process fallbacks/serial chunks
#: (``in_worker=False``). See :mod:`repro.testing.faults`.
FaultInjector = Callable[[int, int, bool], None]

#: The classifier, and for whole-table runs the flow table, that a
#: stream worker operates on, plus the fault hook. They reach workers
#: only through the pool initializer, under both start methods: fork
#: hands ``initargs`` to the child without pickling them (a whole table
#: is inherited copy-on-write, so nothing big crosses a pipe), spawn
#: pickles them once per pool start. The parent never sets them.
_STREAM_CLASSIFIER: "SpoofingClassifier | None" = None
_STREAM_TABLE: FlowTable | None = None
_STREAM_INJECTOR: FaultInjector | None = None

#: The registry of every mutable module global a pool worker reads:
#: ``_stream_init`` sets exactly these names, and reprolint rule RL203
#: rejects any pool submit whose worker reads an unregistered global.
#: Extending the worker protocol means extending this tuple.
_STREAM_GLOBALS = (
    "_STREAM_CLASSIFIER",
    "_STREAM_TABLE",
    "_STREAM_INJECTOR",
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
    classifier: "SpoofingClassifier",
    table: FlowTable | None,
    injector: FaultInjector | None,
    tracing: bool,
) -> None:
    """Pool initializer: adopt the worker state (every start method).

    ``tracing`` re-arms the worker's ambient tracer, which spawn does
    not inherit; under fork the flag is already set when it is true.

    A fork worker also inherits the parent's Python signal handlers.
    ``Pool.terminate()`` stops workers with SIGTERM, so a handler that
    only flags a drain (``repro watch`` installs one) would keep the
    worker alive and hang the terminate; workers take the default
    action instead.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    global _STREAM_CLASSIFIER, _STREAM_TABLE, _STREAM_INJECTOR
    _STREAM_CLASSIFIER = classifier
    _STREAM_TABLE = table
    _STREAM_INJECTOR = injector
    if tracing:
        enable_tracing()


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


def _stream_worker(payload: tuple[Any, bool, int, int]) -> ChunkSummary:
    """Classify one chunk in a pool worker.

    ``job`` is either a ``(start, stop)`` row range of the
    fork-inherited table or a pickled :class:`FlowTable` chunk.
    """
    job, keep_labels, chunk_index, attempt = payload
    assert _STREAM_CLASSIFIER is not None
    if _STREAM_INJECTOR is not None:
        _STREAM_INJECTOR(chunk_index, attempt, True)
    if isinstance(job, FlowTable):
        chunk = job
    else:
        assert _STREAM_TABLE is not None
        chunk = _STREAM_TABLE.select(slice(*job))
    return _summarize(_STREAM_CLASSIFIER, chunk, keep_labels)


@dataclass(slots=True)
class _InFlight:
    """One chunk submitted to the pool and not yet resolved."""

    index: int
    job: object  # (start, stop) range or the FlowTable chunk itself
    attempt: int
    result: object  # multiprocessing AsyncResult
    deadline: float | None


class SpoofingClassifier:
    """Classifies flows into Bogon / Unrouted / Invalid / Valid.

    The Bogon and Unrouted stages are AS-agnostic and shared; the
    Invalid stage runs once per configured valid-space approach,
    producing one label vector per approach (the paper's Invalid
    NAIVE / Invalid CC / Invalid FULL columns of Table 1).
    """

    #: The pool a :meth:`kept_pool` block holds open (``None`` outside
    #: one). It belongs to the running process, so it is never pickled.
    _kept_pool: "PoolSupervisor | None" = None

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

    def __getstate__(self) -> dict[str, Any]:
        state = dict(self.__dict__)
        state.pop("_kept_pool", None)
        return state

    @contextmanager
    def kept_pool(self, n_workers: int | None) -> Iterator[None]:
        """Keep one supervised pool for the length of the block.

        Inside the block every parallel :meth:`classify_stream` call
        over a chunk iterable (no fault hook) runs on the
        same :class:`PoolSupervisor` instead of starting its own, so
        its workers survive from call to call and are rebuilt only when
        :attr:`state_version` moves. Leaving the block, however it is
        left, terminates them. ``n_workers`` of ``None`` or 1 keeps
        nothing: such calls run in-process anyway.
        """
        if n_workers is None or n_workers <= 1:
            yield
            return
        supervisor = PoolSupervisor(self, n_workers)
        self._kept_pool = supervisor
        try:
            yield
        finally:
            self._kept_pool = None
            supervisor.close()

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
    ) -> StreamClassificationResult:
        """Classify a stream of flow chunks with bounded memory.

        ``flow_chunks`` is an iterable of :class:`FlowTable` chunks (a
        single table is chunked into ``chunk_rows`` slices first;
        ``chunk_rows`` must be positive, and ``None`` picks
        :data:`DEFAULT_CHUNK_ROWS`).
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
        """
        if chunk_rows is None:
            chunk_rows = DEFAULT_CHUNK_ROWS
        if chunk_rows <= 0:
            raise ValueError(f"chunk_rows must be positive, got {chunk_rows}")
        policy = FailurePolicy.coerce(policy) or FailurePolicy("fail_fast")
        table = flow_chunks if isinstance(flow_chunks, FlowTable) else None
        merged = StreamClassificationResult(
            self.approach_names, keep_labels=keep_labels
        )
        stream_start = time.perf_counter()
        latency = current_metrics().histogram("stream.chunk_seconds")

        def absorb(summary: ChunkSummary) -> None:
            latency.observe(summary.seconds)
            merged.absorb(summary)

        if n_workers is None or n_workers <= 1:
            chunks = (
                table.iter_chunks(chunk_rows) if table is not None else flow_chunks
            )
            for index, chunk in enumerate(chunks):
                try:
                    absorb(
                        self._inline_summary(
                            chunk, keep_labels, index, 1, fault_injector
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
            kept = self._kept_pool
            scope: AbstractContextManager[PoolSupervisor]
            if kept is not None and table is None and fault_injector is None:
                scope = nullcontext(kept)
            else:
                scope = PoolSupervisor(
                    self, n_workers, table=table, injector=fault_injector
                )
            supervisor: PoolSupervisor
            with scope as supervisor:
                for summary in supervisor.summaries(
                    flow_chunks,
                    chunk_rows=chunk_rows,
                    keep_labels=keep_labels,
                    policy=policy,
                    failures=merged.failures,
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
    ) -> ChunkSummary:
        """Classify one chunk in the current process."""
        if injector is not None:
            injector(index, attempt, False)
        return _summarize(self, chunk, keep_labels)


class PoolSupervisor:
    """The supervised worker pool behind every parallel classification.

    Owns one process pool, its start method, and the classifier
    :attr:`~SpoofingClassifier.state_version` the pool was armed with.
    The pool starts when the first chunk is submitted, and is rebuilt
    before a later submit if and only if the state version has moved
    since it was armed (fork re-snapshots the parent's memory, spawn
    re-pickles the classifier) — or when a hung or dead worker has to
    be reclaimed. Every start increments the ``stream.pool_starts``
    counter and records a ``classify.pool_start`` span.

    The owner picks the scope: :meth:`SpoofingClassifier.classify_stream`
    opens one supervisor per call, and
    :meth:`SpoofingClassifier.kept_pool` one for a block of calls (the
    online pipeline holds it for a whole watch run, so its windows
    reuse the same workers). :meth:`close` terminates and joins the
    pool; use the supervisor as a context manager or close it in a
    ``finally``.
    """

    def __init__(
        self,
        classifier: SpoofingClassifier,
        n_workers: int,
        *,
        table: FlowTable | None = None,
        injector: FaultInjector | None = None,
    ) -> None:
        """``table`` is the whole table a per-call run classifies: under
        fork it travels to the workers with the pool and chunks become
        ``(start, stop)`` row ranges of it."""
        method = os.environ.get(MP_START_METHOD_ENV, "").strip() or None
        if method is None and "fork" in multiprocessing.get_all_start_methods():
            method = "fork"
        self._ctx = multiprocessing.get_context(method)
        self._fork = method == "fork"
        self._classifier = classifier
        self._n_workers = n_workers
        self._table = table
        self._injector = injector
        self._pool: Pool | None = None
        self._armed_version = classifier.state_version

    def __enter__(self) -> "PoolSupervisor":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def close(self) -> None:
        """Terminate and join the pool, if one is running."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.terminate()
            pool.join()

    def _start(self, reason: str) -> None:
        """(Re)start the pool against the classifier's current state.

        ``reason`` (``arm``, ``version`` or ``reclaim``) labels the
        ``classify.pool_start`` span.
        """
        self.close()
        classifier = self._classifier
        # Materialise the finalized RIB before the fork so workers
        # share it copy-on-write instead of each rebuilding it.
        classifier._rib.finalize()
        began = time.perf_counter()
        self._armed_version = classifier.state_version
        # Initargs are read at every start: a rebuilt spawn pool must
        # pickle the classifier's current (possibly delta-patched)
        # state, and the tracer flag must be the tracer's as it is now.
        self._pool = self._ctx.Pool(
            processes=self._n_workers,
            initializer=_stream_init,
            initargs=(
                classifier,
                self._table,
                self._injector,
                current_tracer().enabled,
            ),
        )
        current_metrics().counter("stream.pool_starts").inc()
        current_tracer().record(
            "classify.pool_start",
            time.perf_counter() - began,
            reason=reason,
            workers=self._n_workers,
        )

    def summaries(
        self,
        flow_chunks: Iterable[FlowTable] | FlowTable,
        *,
        chunk_rows: int,
        keep_labels: bool,
        policy: FailurePolicy,
        failures: FailureLog,
    ) -> Iterator[ChunkSummary]:
        """Fan chunks out over the pool, yield their summaries in order.

        A windowed ``apply_async`` scheduler: chunks are submitted with
        a bounded in-flight window and their summaries yielded strictly
        in chunk order (so merged label vectors match a serial run bit
        for bit). The oldest in-flight chunk is awaited under its
        deadline; a worker exception resolves just that chunk, while a
        deadline expiry (hung or killed worker — its task can never
        complete) tears the whole pool down, rebuilds it, and
        resubmits the collateral in-flight chunks.

        When the classifier's :attr:`~SpoofingClassifier.state_version`
        moves mid-stream (the online pipeline patched the RIB or a
        validity matrix in place), in-flight chunks drain against the
        state their pool was armed with, then the pool is rebuilt
        before any later chunk is submitted. Chunks resubmitted after a
        worker death rerun against the rebuilt pool's (current) state.

        ``flow_chunks`` is the supervisor's own table (chunked by
        ``chunk_rows``; row ranges under fork) or a chunk iterable,
        whose chunks travel pickled.
        """
        table = self._table
        if table is None:
            jobs_iter: Iterator[object] = iter(flow_chunks)
        elif self._fork:
            n = len(table)
            jobs_iter = (
                (start, min(start + chunk_rows, n))
                for start in range(0, n, chunk_rows)
            )
        else:
            jobs_iter = table.iter_chunks(chunk_rows)
        jobs = enumerate(jobs_iter)
        classifier = self._classifier
        window = max(2, 2 * self._n_workers)

        def submit(index: int, job: Any, attempt: int) -> _InFlight:
            assert self._pool is not None
            result = self._pool.apply_async(
                _stream_worker, ((job, keep_labels, index, attempt),)
            )
            deadline = (
                None
                if policy.chunk_timeout is None
                else time.monotonic() + policy.chunk_timeout
            )
            return _InFlight(index, job, attempt, result, deadline)

        def inline_chunk(job: Any) -> FlowTable:
            if isinstance(job, FlowTable):
                return job
            assert table is not None
            return table.select(slice(*job))

        def resolve_failure(
            failed: _InFlight, exc: BaseException
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
                    submit(failed.index, failed.job, failed.attempt + 1),
                )
            # Retry budget exhausted (retry) or first failure (degrade):
            # reclassify in the parent process.
            chunk = inline_chunk(failed.job)
            next_attempt = failed.attempt + 1
            try:
                summary = classifier._inline_summary(
                    chunk, keep_labels, failed.index, next_attempt,
                    self._injector,
                )
            except Exception as inline_exc:
                if policy.mode == "degrade":
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
            failures.record_degraded(failed.index, failed.attempt, reason)
            return ("summary", summary)

        inflight: deque[_InFlight] = deque()
        staged: tuple[int, Any] | None = None
        exhausted = False
        while True:
            while not exhausted and len(inflight) < window:
                if staged is None:
                    staged = next(jobs, None)
                    if staged is None:
                        exhausted = True
                        break
                if self._pool is None:
                    self._start("arm")
                elif classifier.state_version != self._armed_version:
                    # The valid-space state moved under us (the
                    # stream generator applied a delta before
                    # yielding this chunk). In-flight chunks finish
                    # against their pool's armed state; this chunk
                    # must see the current state, so drain first,
                    # then rebuild.
                    if inflight:
                        break
                    self._start("version")
                inflight.append(submit(staged[0], staged[1], 1))
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
                # trusted — reclaim everything and resubmit. The
                # rebuilt pool snapshots the *current* state, so
                # collateral/resubmitted chunks rerun against the
                # newest matrices (at-least-as-current).
                self._start("reclaim")
                failed = inflight.popleft()
                collateral = list(inflight)
                inflight.clear()
                outcome, value = resolve_failure(
                    failed,
                    TimeoutError(
                        f"no result within {policy.chunk_timeout}s "
                        "(worker hung or died)"
                    ),
                )
                for entry in collateral:
                    inflight.append(
                        submit(entry.index, entry.job, entry.attempt)
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
                outcome, value = resolve_failure(failed, exc)
                if outcome == "resubmitted":
                    inflight.appendleft(value)
                elif outcome == "summary":
                    yield value
                continue
            inflight.popleft()
            yield summary


def default_stream_workers() -> int:
    """A sensible worker count for ``classify_stream`` (≥1)."""
    return max(1, (os.cpu_count() or 2) - 1)
