"""Crash-safe checkpoints of the online valid-space state.

A checkpoint freezes everything a resumed daemon needs so it replays
*only* the WAL suffix instead of the whole history:

* the pickled :class:`~repro.stream.state.OnlineValidState` (RIB
  live-route refcounts, cone closures, packed validity matrices,
  classifier version) — the spawn worker path already proves the whole
  trio pickles faithfully;
* ``last_seq`` — the WAL seq of the last event *applied* to that
  state (replay resumes at ``last_seq + 1``);
* ``last_window`` / ``last_timestamp`` — the emitted-window cursor and
  the monotonicity-guard position, so recomputed windows at or before
  the cursor are suppressed (exactly-once emission) and the timestamp
  guard resumes exactly where it stopped.

**File format** (``checkpoint-<last_seq>.ckpt``)::

    magic "reprock\\n" | header JSON line + "\\n" | pickled payload

The header (``schema`` ``repro.checkpoint/1`` — bump on breaking
changes) carries the cursors plus ``payload_sha256``/``payload_bytes``
and the state's semantic ``state_digest``, so a reader verifies the
payload bit-for-bit *and* the unpickled state semantically before
trusting either.

**Durability.** Writes go through
:func:`repro.util.atomicio.atomic_write_bytes` (write-tmp-fsync-
rename), so a crash mid-save leaves at worst a stray ``*.tmp`` the
loader never looks at. :meth:`CheckpointStore.load_latest` walks the
retained generations newest-first, skipping any that fail
verification; only when *every* generation is damaged does it raise
:class:`~repro.errors.CheckpointCorruptionError` (the CLI maps that to
exit code 4).
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import pickle
from collections.abc import Callable
from dataclasses import dataclass

from repro.errors import (
    UNPICKLE_ERRORS,
    CheckpointCorruptionError,
    DurabilityError,
)
from repro.stream.state import OnlineValidState
from repro.util.atomicio import atomic_write_bytes

__all__ = ["Checkpoint", "CheckpointStore", "CHECKPOINT_SCHEMA"]

#: Checkpoint header schema identifier; bump on breaking field changes.
CHECKPOINT_SCHEMA = "repro.checkpoint/1"

_MAGIC = b"reprock\n"
_PREFIX = "checkpoint-"
_SUFFIX = ".ckpt"

#: Test seam: ``fault_hook(point)`` is invoked at named positions in
#: the save path so the recovery suite can kill the process or inject
#: ENOSPC at exact, reproducible moments.
FaultHook = Callable[[str], None]


@dataclass(slots=True)
class Checkpoint:
    """One verified checkpoint, restored and ready to resume from."""

    #: The restored online state (RIB + approaches + classifier).
    state: OnlineValidState
    #: WAL seq of the last event applied to ``state``.
    last_seq: int
    #: Index of the last window emitted before the checkpoint (or -1).
    last_window: int
    #: The monotonicity guard's position at checkpoint time.
    last_timestamp: int | None
    #: File this checkpoint was loaded from.
    path: pathlib.Path


class CheckpointStore:
    """Writes, prunes, verifies and restores checkpoint generations."""

    def __init__(
        self,
        directory: str | pathlib.Path,
        *,
        keep: int = 3,
        fault_hook: FaultHook | None = None,
    ) -> None:
        if keep <= 0:
            raise ValueError("keep must be positive")
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.keep = keep
        self.fault_hook = fault_hook

    # -- save --------------------------------------------------------------

    def save(
        self,
        state: OnlineValidState,
        *,
        last_seq: int,
        last_window: int,
        last_timestamp: int | None,
    ) -> pathlib.Path:
        """Atomically persist one checkpoint; prunes old generations.

        Raises ``OSError`` on write failure (disk full, permissions) —
        the daemon's pipeline :class:`~repro.core.FailurePolicy`
        decides whether that retries, degrades, or aborts the run.
        """
        self._fire("checkpoint_begin")
        payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        header = {
            "schema": CHECKPOINT_SCHEMA,
            "last_seq": last_seq,
            "last_window": last_window,
            "last_timestamp": last_timestamp,
            "payload_bytes": len(payload),
            "payload_sha256": hashlib.sha256(payload).hexdigest(),
            "state_digest": state.state_digest(),
            "counters": {
                "n_applied": state.n_applied,
                "n_ignored": state.n_ignored,
                "n_patched": state.n_patched,
                "n_rebuilds": state.n_rebuilds,
            },
        }
        blob = _MAGIC + json.dumps(header, sort_keys=True).encode() + b"\n"
        self._fire("checkpoint_payload")
        path = self.directory / f"{_PREFIX}{last_seq:012d}{_SUFFIX}"
        atomic_write_bytes(path, blob + payload)
        self._fire("checkpoint_written")
        self._prune()
        return path

    def _prune(self) -> None:
        for stale in self._candidates()[self.keep :]:
            try:
                stale.unlink()
            except OSError:  # pragma: no cover - pruning is best-effort
                pass

    # -- load --------------------------------------------------------------

    def load_latest(self) -> Checkpoint | None:
        """Restore the newest verifiable checkpoint.

        Returns ``None`` when the directory holds no checkpoints (a
        fresh start); silently falls back to older generations when
        the newest fails verification; raises
        :class:`CheckpointCorruptionError` when checkpoints exist but
        none survives — resuming from silently wrong state would
        corrupt every window after it, so that is unrecoverable by
        design.
        """
        candidates = self._candidates()
        if not candidates:
            return None
        failures: list[str] = []
        for path in candidates:
            try:
                return self._load_one(path)
            except (DurabilityError, OSError, ValueError, KeyError) as exc:
                failures.append(f"{path.name}: {exc}")
        raise CheckpointCorruptionError(
            "no stored checkpoint survives verification",
            path=str(self.directory),
            failures=tuple(failures),
        )

    def _load_one(self, path: pathlib.Path) -> Checkpoint:
        blob = path.read_bytes()
        if not blob.startswith(_MAGIC):
            raise DurabilityError("bad checkpoint magic", path=str(path))
        newline = blob.index(b"\n", len(_MAGIC))
        header = json.loads(blob[len(_MAGIC) : newline])
        if header.get("schema") != CHECKPOINT_SCHEMA:
            raise DurabilityError(
                f"unsupported checkpoint schema {header.get('schema')!r}",
                path=str(path),
            )
        payload = blob[newline + 1 :]
        if len(payload) != header["payload_bytes"]:
            raise DurabilityError(
                f"checkpoint payload truncated: {len(payload)} of "
                f"{header['payload_bytes']} bytes",
                path=str(path),
            )
        if hashlib.sha256(payload).hexdigest() != header["payload_sha256"]:
            raise DurabilityError(
                "checkpoint payload sha256 mismatch", path=str(path)
            )
        try:
            state = pickle.loads(payload)
        except UNPICKLE_ERRORS as exc:
            raise DurabilityError(
                f"checkpoint payload does not unpickle: "
                f"{type(exc).__name__}: {exc}",
                path=str(path),
            ) from exc
        if not isinstance(state, OnlineValidState):
            raise DurabilityError(
                f"checkpoint payload is a {type(state).__name__}, "
                "not an OnlineValidState",
                path=str(path),
            )
        try:
            digest = state.state_digest()
        except UNPICKLE_ERRORS as exc:
            # An OnlineValidState shell without its fields unpickles
            # fine and only fails here.
            raise DurabilityError(
                f"restored state is incomplete: {type(exc).__name__}: {exc}",
                path=str(path),
            ) from exc
        if digest != header["state_digest"]:
            raise DurabilityError(
                "restored state digest mismatch "
                f"({digest[:12]} != {header['state_digest'][:12]})",
                path=str(path),
            )
        state.rearm_after_restore()
        return Checkpoint(
            state=state,
            last_seq=int(header["last_seq"]),
            last_window=int(header["last_window"]),
            last_timestamp=(
                int(header["last_timestamp"])
                if header["last_timestamp"] is not None
                else None
            ),
            path=path,
        )

    # -- helpers -----------------------------------------------------------

    def _candidates(self) -> list[pathlib.Path]:
        """Stored checkpoint files, newest (highest seq) first.

        Stray ``*.tmp`` files from a writer killed mid-save never
        match the pattern, so torn temporaries are invisible here.
        """
        return sorted(
            self.directory.glob(f"{_PREFIX}*{_SUFFIX}"), reverse=True
        )

    def _fire(self, point: str) -> None:
        if self.fault_hook is not None:
            self.fault_hook(point)
