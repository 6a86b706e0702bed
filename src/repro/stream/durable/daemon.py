"""The durable watch daemon: WAL-backed and checkpointed.

:class:`DurableWatch` wraps the
:class:`~repro.stream.online.OnlineClassifier` with the persistence
loop that makes ``repro watch`` survive its own death. Everything
runs on the thread that iterates :meth:`DurableWatch.run`:

* **Pull → WAL → window loop.** The window loop pulls one event at a
  time: first the WAL suffix a resumed run must replay, then the live
  source. Each source event is appended to the
  :class:`~repro.stream.durable.wal.WalWriter` *before* it is handed
  to the classifier, so the log always covers every applied event.
  The source is pulled only when the classifier asks for the next
  event — it is never more than the one look-ahead event past what
  the window loop has consumed, and an exception it raises surfaces
  from ``run`` unchanged.
* **Window loop → cursor → checkpoint.** After each *emitted* window
  the daemon atomically rewrites the cursor file (exactly-once
  bookkeeping), and every ``checkpoint_every`` windows it saves a full
  :class:`~repro.stream.durable.checkpoint.CheckpointStore` generation
  — always at a window boundary, where the state is exactly "all
  events of windows ≤ k applied, nothing of window k+1".
* **Recovery.** :func:`recover` loads the newest verifiable
  checkpoint (falling back across generations) plus the cursor;
  ``run`` then replays only the WAL suffix past the checkpoint's
  ``last_seq``, recomputing — but not re-emitting — windows at or
  below the cursor. Because event replay is deterministic, the first
  genuinely new window (and every one after it) is bit-equal to what
  the uninterrupted run would have produced.
* **Pipeline failure policy.** The chunk-level
  :class:`~repro.core.FailurePolicy` is promoted to the pipeline:
  checkpoint-write failures are retried with backoff (``retry``),
  tolerated and counted (``degrade``), or fatal (``fail_fast``).
  :meth:`DurableWatch.request_drain` (wired to SIGTERM by the CLI)
  stops pulling events, finishes cleanly, and *discards* the trailing
  partial window rather than emitting a result a resumed run would
  emit again differently.
"""

from __future__ import annotations

import pathlib
import time
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from repro.core.classifier import FailurePolicy
from repro.errors import DurabilityError
from repro.obs.metrics import current_metrics
from repro.stream.durable.checkpoint import Checkpoint, CheckpointStore, FaultHook
from repro.stream.durable.wal import DEFAULT_SEGMENT_BYTES, WalWriter, replay_wal
from repro.stream.events import WatchEvent
from repro.stream.online import OnlineClassifier, WindowResult
from repro.stream.state import OnlineValidState
from repro.util.atomicio import atomic_write_text

__all__ = ["DurableWatch", "ResumePoint", "recover"]

#: Sub-directory of the checkpoint dir holding the WAL segments.
WAL_SUBDIR = "wal"

#: Emitted-window cursor file (atomic JSON, rewritten per emission).
CURSOR_FILE = "cursor.json"


@dataclass(slots=True)
class ResumePoint:
    """Where a restarted daemon picks up (checkpoint + cursor)."""

    #: The verified checkpoint, or ``None`` when none was ever saved
    #: (the caller then supplies the same fresh warm state the crashed
    #: run started from, and the whole WAL replays).
    checkpoint: Checkpoint | None
    #: Last window index the crashed run *emitted* (-1 = none). May
    #: run ahead of the checkpoint's own cursor when
    #: ``checkpoint_every > 1``.
    emitted_through: int
    #: Events the WAL holds past the checkpoint (the replay suffix).
    replay_events: int


def _cursor_path(checkpoint_dir: pathlib.Path) -> pathlib.Path:
    return checkpoint_dir / CURSOR_FILE


def _read_cursor(checkpoint_dir: pathlib.Path) -> int | None:
    """The cursor's ``last_window``, or ``None`` when there is none.

    The cursor is advisory, so a file that is missing, is not JSON, or
    is not an object with an integer ``last_window`` counts as absent.
    """
    import json

    try:
        cursor = json.loads(_cursor_path(checkpoint_dir).read_text())
    except (OSError, ValueError):
        return None
    last_window = cursor.get("last_window") if isinstance(cursor, dict) else None
    if isinstance(last_window, int) and not isinstance(last_window, bool):
        return last_window
    return None


def recover(
    checkpoint_dir: str | pathlib.Path,
) -> ResumePoint:
    """Inspect a checkpoint directory and build the resume plan.

    Raises :class:`~repro.errors.CheckpointCorruptionError` when
    checkpoints exist but none verifies (the CLI exits 4 on that).
    """
    checkpoint_dir = pathlib.Path(checkpoint_dir)
    store = CheckpointStore(checkpoint_dir)
    checkpoint = store.load_latest()
    cursor = _read_cursor(checkpoint_dir)
    emitted = -1
    if checkpoint is not None:
        emitted = checkpoint.last_window
    if cursor is not None:
        emitted = max(emitted, cursor)
    after = checkpoint.last_seq if checkpoint is not None else 0
    replay = sum(
        1 for _ in replay_wal(checkpoint_dir / WAL_SUBDIR, after_seq=after)
    )
    return ResumePoint(
        checkpoint=checkpoint, emitted_through=emitted, replay_events=replay
    )


class _EventStream:
    """The window loop's event iterator over :meth:`DurableWatch._pull`.

    Each ``next()`` pulls one event on the caller's thread and records
    where the stream stands, which the cursor commit reads.
    """

    def __init__(
        self, watch: "DurableWatch", events: Iterable[WatchEvent] | None
    ) -> None:
        self._watch = watch
        self._items = watch._pull(events)
        #: Seq of the last event handed to the classifier.
        self.last_seq = 0
        #: True once the stream ended.
        self.exhausted = False
        #: True when the end was a drain request, not source end.
        self.interrupted = False

    def __iter__(self) -> "_EventStream":
        return self

    def __next__(self) -> WatchEvent:
        try:
            self.last_seq, event = next(self._items)
        except StopIteration:
            self.exhausted = True
            self.interrupted = self._watch._drain
            raise
        return event


class DurableWatch:
    """Durable tumbling-window watch over one event stream.

    ``state`` is the warm :class:`~repro.stream.state.OnlineValidState`
    to classify against — a freshly built one for a first run, or
    ``resume.checkpoint.state`` after :func:`recover`. ``policy`` is
    the *pipeline-level* failure policy: it supervises the run's worker
    pool exactly as before **and** governs checkpoint-write retries.
    """

    def __init__(
        self,
        state: OnlineValidState,
        window_seconds: int,
        *,
        checkpoint_dir: str | pathlib.Path,
        checkpoint_every: int = 1,
        keep_checkpoints: int = 3,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        wal_sync_every: int = 1,
        n_workers: int | None = None,
        policy: FailurePolicy | str | None = None,
        keep_labels: bool = False,
        manifest_dir: str | pathlib.Path | None = None,
        resume: ResumePoint | None = None,
        fault_hook: FaultHook | None = None,
    ) -> None:
        if checkpoint_every <= 0:
            raise ValueError("checkpoint_every must be positive")
        self.checkpoint_dir = pathlib.Path(checkpoint_dir)
        self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
        self.checkpoint_every = checkpoint_every
        self.policy = FailurePolicy.coerce(policy)
        self.fault_hook = fault_hook
        self.store = CheckpointStore(
            self.checkpoint_dir, keep=keep_checkpoints, fault_hook=fault_hook
        )
        self.wal = WalWriter(
            self.checkpoint_dir / WAL_SUBDIR,
            segment_bytes=segment_bytes,
            sync_every=wal_sync_every,
        )
        self._resume = resume
        self._drain = False
        #: Events fed from the WAL suffix instead of the live source.
        self.replayed_events = 0
        #: Checkpoint saves that failed past the retry budget.
        self.checkpoint_failures = 0
        #: Windows emitted by *this* process (excludes recovered ones).
        self.windows_emitted = 0
        self._since_checkpoint = 0

        emitted_through: int | None = None
        if resume is not None and resume.emitted_through >= 0:
            emitted_through = resume.emitted_through
        self.online = OnlineClassifier(
            state,
            window_seconds,
            n_workers=n_workers,
            policy=policy,
            keep_labels=keep_labels,
            manifest_dir=manifest_dir,
            emitted_through=emitted_through,
        )
        if resume is not None and resume.checkpoint is not None:
            self.online.last_timestamp = resume.checkpoint.last_timestamp

    @property
    def state(self) -> OnlineValidState:
        """The live online state the window loop classifies against."""
        return self.online.state

    # -- control -----------------------------------------------------------

    def request_drain(self) -> None:
        """Ask the daemon to stop cleanly (SIGTERM / ctrl-C path).

        The window loop pulls no further event and ends after the
        in-flight window — which, being cut short, is discarded (not
        emitted, not checkpointed): the resumed run recomputes it in
        full from the WAL, so it is emitted exactly once, complete, by
        whichever process finishes it.
        """
        self._drain = True

    # -- the run loop ------------------------------------------------------

    def run(
        self, events: Iterable[WatchEvent] | None = None
    ) -> Iterator[WindowResult]:
        """Yield one result per newly emitted window, durably.

        ``events`` is the live source, replayed deterministically from
        the beginning; events the WAL already holds are recognised by
        position and not re-appended (and, below the checkpoint seq,
        not re-applied). ``None`` replays the WAL alone — recovery
        without a live source.

        **Commit protocol.** A window's cursor (and, every
        ``checkpoint_every`` windows, its checkpoint) is written only
        *after* the consumer asks for the next window — i.e. after the
        consumer had the chance to durably process the one it was
        handed (the code after ``yield`` runs on the consumer's next
        ``next()``; an explicit ``close()`` also commits the window it
        interrupts). A crash in the gap between the consumer's own
        output and the commit therefore re-emits that one boundary
        window on resume instead of silently losing it; consumers that
        persist per-window output should be idempotent per window
        index (the recovery driver and the per-window manifests both
        are — same path, atomic overwrite, identical bytes).
        """
        stream = _EventStream(self, events)
        self._since_checkpoint = 0
        windows = self.online.run(stream)
        try:
            for window in windows:
                if stream.exhausted and stream.interrupted:
                    # The drain cut this window short mid-stream;
                    # resume will recompute and emit it complete.
                    current_metrics().counter(
                        "watch.windows_discarded_on_drain"
                    ).inc()
                    break
                applied_seq = stream.last_seq - (0 if stream.exhausted else 1)
                self._fire("window_emitted")
                try:
                    yield window
                except GeneratorExit:
                    # The consumer processed this window and then
                    # abandoned the stream — commit before closing.
                    self._commit(window.index, applied_seq)
                    raise
                self._commit(window.index, applied_seq)
        finally:
            # Close the window generator explicitly, so its worker pool
            # is reaped here: a traceback that holds this frame would
            # otherwise keep the generator, and the pool, alive.
            windows.close()
            self.wal.close()

    def _commit(self, window_index: int, applied_seq: int) -> None:
        """Advance the cursor (and maybe checkpoint) past one window."""
        self._write_cursor(window_index, applied_seq)
        self.windows_emitted += 1
        self._since_checkpoint += 1
        if self._since_checkpoint >= self.checkpoint_every:
            self._checkpoint(window_index, applied_seq)
            self._since_checkpoint = 0

    def _pull(
        self, events: Iterable[WatchEvent] | None
    ) -> Iterator[tuple[int, WatchEvent]]:
        """Yield ``(seq, event)``: the WAL suffix, then the source.

        A source event is appended to the WAL before it is yielded, and
        a drain request is checked before every pull.
        """
        already_logged = 0
        if self._resume is not None:
            after = 0
            if self._resume.checkpoint is not None:
                after = self._resume.checkpoint.last_seq
            for seq, event in replay_wal(self.wal.directory, after_seq=after):
                if self._drain:
                    return
                self.replayed_events += 1
                yield seq, event
            already_logged = self.wal.last_seq
            current_metrics().gauge("watch.replayed_events").set(
                self.replayed_events
            )
        source = iter(events if events is not None else ())
        position = 0
        while not self._drain:
            try:
                event = next(source)
            except StopIteration:
                return
            position += 1
            if position > already_logged:  # else the WAL already holds it
                yield self.wal.append(event), event

    # -- durability actions ------------------------------------------------

    def _write_cursor(self, window_index: int, applied_seq: int) -> None:
        import json

        # durable=False: the cursor is rewritten once per window on the
        # window loop, and a per-window fsync there is the
        # single largest steady-state cost of the whole durability
        # layer. The rename stays atomic (no torn reads after a
        # process crash); after a power loss the cursor may regress to
        # an older generation, which recover() handles by design — it
        # takes max(checkpoint cursor, file cursor) and a stale value
        # only widens re-emission, which idempotent per-window sinks
        # absorb. The fsynced anchor is the checkpoint.
        atomic_write_text(
            _cursor_path(self.checkpoint_dir),
            json.dumps(
                {
                    "last_window": window_index,
                    "last_seq": applied_seq,
                    "schema": "repro.watch_cursor/1",
                }
            )
            + "\n",
            durable=False,
        )

    def _checkpoint(self, window_index: int, applied_seq: int) -> None:
        """Save a checkpoint under the pipeline failure policy."""
        self.wal.sync()  # the checkpoint must never outrun the log
        policy = self.policy
        attempts = 1 + (policy.max_retries if policy is not None else 0)
        mode = policy.mode if policy is not None else "fail_fast"
        delay = policy.backoff_base if policy is not None else 0.0
        began = time.perf_counter()
        for attempt in range(1, attempts + 1):
            try:
                self.store.save(
                    self.state,
                    last_seq=applied_seq,
                    last_window=window_index,
                    last_timestamp=self.online.last_timestamp,
                )
                current_metrics().gauge("watch.checkpoint_seconds").set(
                    time.perf_counter() - began
                )
                return
            except OSError as exc:
                current_metrics().counter("watch.checkpoint_errors").inc()
                if mode != "fail_fast" and attempt < attempts:
                    time.sleep(delay)
                    if policy is not None:
                        delay *= policy.backoff_factor
                    continue
                if mode == "degrade":
                    # Keep running without this checkpoint: recovery
                    # falls back to the previous generation + a longer
                    # WAL replay. Counted, not fatal.
                    self.checkpoint_failures += 1
                    current_metrics().counter(
                        "watch.checkpoints_skipped"
                    ).inc()
                    return
                raise DurabilityError(
                    f"checkpoint save failed after {attempt} attempt(s)",
                    path=str(self.store.directory),
                    window=window_index,
                ) from exc

    def _fire(self, point: str) -> None:
        if self.fault_hook is not None:
            self.fault_hook(point)
