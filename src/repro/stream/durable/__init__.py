"""Durability layer for ``repro watch``: WAL, checkpoints, recovery.

Three cooperating pieces make the daemon crash-safe:

* :mod:`repro.stream.durable.wal` — an append-only, checksummed,
  segment-rotated write-ahead log every ingested event hits *before*
  any state mutation;
* :mod:`repro.stream.durable.checkpoint` — periodic atomic snapshots
  of the :class:`~repro.stream.state.OnlineValidState` plus the
  emitted-window cursor, verified by sha256 and semantic state digest
  on restore;
* :mod:`repro.stream.durable.daemon` — :class:`DurableWatch`, the
  orchestrator wiring pull → WAL → window loop → cursor/checkpoint on
  one thread, with pipeline-level failure policy, clean SIGTERM
  drain, and :func:`recover` for exactly-once resumption from the
  newest verifiable checkpoint.

See the "Durable watch" section of ``docs/ARCHITECTURE.md`` for the
file formats and the recovery sequence.
"""

from repro.stream.durable.checkpoint import (
    CHECKPOINT_SCHEMA,
    Checkpoint,
    CheckpointStore,
)
from repro.stream.durable.daemon import DurableWatch, ResumePoint, recover
from repro.stream.durable.wal import (
    DEFAULT_SEGMENT_BYTES,
    WalWriter,
    last_wal_seq,
    replay_wal,
)

__all__ = [
    "CHECKPOINT_SCHEMA",
    "Checkpoint",
    "CheckpointStore",
    "DEFAULT_SEGMENT_BYTES",
    "DurableWatch",
    "ResumePoint",
    "WalWriter",
    "last_wal_seq",
    "recover",
    "replay_wal",
]
