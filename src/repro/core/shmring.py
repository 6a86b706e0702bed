"""Shared-memory ring transport for streamed classification chunks.

The historical parallel path pickles every :class:`FlowTable` chunk
through a pipe — serialisation dominates once the classifier itself is
fast. This module replaces the pipe payload with a fixed set of
*slots* in one POSIX shared-memory segment: the parent packs a chunk's
columns into a free slot (one ``memcpy`` per column), and the worker
rebuilds the table from zero-copy numpy views over the same mapping.
Only a six-integer descriptor crosses the pool boundary.

Layout — one segment of ``slots`` equal slots, each::

    [ header: 4 × uint64 | column 0 | column 1 | ... ]
      generation            src (capacity × u64)
      n_rows                dst ...
      chunk_index           (columns 8-byte aligned, capacity rows each)
      reserved

The *generation* word is the transport's integrity tag: the parent
stamps a fresh generation on every write and sends the expected value
inside the task payload; :meth:`WorkerRing.read` refuses a slot whose
header disagrees (stale reuse, torn write, or deliberate corruption —
see :func:`corrupt_staged_header`) by raising
:class:`~repro.errors.TransportError`, which the supervision machinery
treats like any worker failure. The parent keeps an authoritative copy
of every slot's header in ordinary memory, so
:meth:`FlowRing.refresh_header` can repair a damaged slot before a
retry without re-packing the columns.

Slot ownership is strictly parent-side: workers never acquire or
release slots, so a worker death (reclaimed by the PR 2 supervision
machinery) cannot strand a slot — the parent releases it when the
chunk resolves, whatever that took. Segment creation and unlinking go
through :mod:`repro.util.shmseg` (rule RL010), which also gives the
leak audit the tests assert against.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.errors import TransportError
from repro.ixp.flows import _COLUMNS, FlowTable
from repro.obs.metrics import current_metrics
from repro.util.shmseg import attach_segment, create_segment, release_segment

__all__ = [
    "FlowRing",
    "RingChunk",
    "RingSpec",
    "WorkerRing",
    "corrupt_staged_header",
    "stage_read",
]

#: Header words per slot: generation, n_rows, chunk_index, reserved.
_HEADER_WORDS = 4
_HEADER_BYTES = _HEADER_WORDS * 8

#: Column name → dtype for everything a slot may carry.
_DTYPES = dict(_COLUMNS)

#: The full column set, in slot order (the default ring payload).
_ALL_COLUMN_NAMES = tuple(name for name, _ in _COLUMNS)


def _column_layout(
    capacity: int, columns: tuple[str, ...]
) -> tuple[dict[str, int], int]:
    """Per-column byte offsets within a slot, and the total slot size.

    Every column region is 8-byte aligned and sized for ``capacity``
    rows, so a slot's geometry is a pure function of the capacity and
    column set — parent and workers derive identical layouts from the
    spec alone.
    """
    offsets: dict[str, int] = {}
    offset = _HEADER_BYTES
    for name in columns:
        offsets[name] = offset
        width = capacity * np.dtype(_DTYPES[name]).itemsize
        offset += (width + 7) // 8 * 8
    return offsets, offset


@dataclass(frozen=True)
class RingSpec:
    """Picklable ring geometry a worker needs to attach (initargs).

    ``columns`` is the slot payload: the full flow-table column set by
    default, or a subset when the consumer reads only part of a row —
    sketch triage digests just ``(src, member)``, so its rings move
    16 bytes per row instead of the full ~70 and the parent-side pack
    ``memcpy`` shrinks in proportion.
    """

    name: str
    slots: int
    capacity: int
    columns: tuple[str, ...] = _ALL_COLUMN_NAMES

    @property
    def slot_bytes(self) -> int:
        """Size of one slot in bytes (header + aligned columns)."""
        return _column_layout(self.capacity, self.columns)[1]


class _SlotViews:
    """Numpy views over one mapped segment, per slot.

    Centralises the ``frombuffer`` arithmetic shared by the parent
    (writes) and workers (reads), and owns dropping the views before
    the parent closes its mapping (an mmap with exported buffers
    refuses to close).
    """

    def __init__(self, segment: shared_memory.SharedMemory, spec: RingSpec) -> None:
        self._segment = segment
        self._spec = spec
        offsets, slot_bytes = _column_layout(spec.capacity, spec.columns)
        self.headers: list[np.ndarray] = []
        self.columns: list[dict[str, np.ndarray]] = []
        for slot in range(spec.slots):
            base = slot * slot_bytes
            self.headers.append(
                np.frombuffer(
                    segment.buf, dtype=np.uint64, count=_HEADER_WORDS,
                    offset=base,
                )
            )
            self.columns.append(
                {
                    name: np.frombuffer(
                        segment.buf,
                        dtype=_DTYPES[name],
                        count=spec.capacity,
                        offset=base + offsets[name],
                    )
                    for name in spec.columns
                }
            )

    def drop(self) -> None:
        """Release every view so the segment mapping can close."""
        self.headers.clear()
        self.columns.clear()


class FlowRing:
    """Parent-side ring owner: acquires, packs, repairs, releases slots.

    The free list is a blocking :class:`queue.Queue` and the
    generation counter sits behind a lock, so slots may be packed and
    released from different threads; the streaming scheduler does both
    from the parent's main thread.
    """

    def __init__(self, segment: shared_memory.SharedMemory, spec: RingSpec) -> None:
        self._segment = segment
        self._spec = spec
        self._views: _SlotViews | None = _SlotViews(segment, spec)
        self._free: queue.Queue[int] = queue.Queue()
        for slot in range(spec.slots):
            self._free.put(slot)
        self._lock = threading.Lock()
        self._next_generation = 1
        # The authoritative header copy (generation, rows, chunk index)
        # per slot — shared memory can be damaged, this cannot.
        self._generation = [0] * spec.slots
        self._rows = [0] * spec.slots
        self._chunk_index = [0] * spec.slots

    @classmethod
    def create(
        cls,
        *,
        slots: int,
        capacity: int,
        columns: tuple[str, ...] | None = None,
    ) -> "FlowRing":
        """Create a ring segment sized for ``slots`` × ``capacity`` rows.

        ``columns`` restricts the slot payload to a subset of the flow
        columns (``None`` means all of them); a subset ring hands
        workers a :class:`RingChunk` instead of a full
        :class:`~repro.ixp.flows.FlowTable`.
        """
        if slots <= 0 or capacity <= 0:
            raise ValueError("slots and capacity must be positive")
        names = _ALL_COLUMN_NAMES if columns is None else tuple(columns)
        unknown = [name for name in names if name not in _DTYPES]
        if unknown or not names:
            raise ValueError(f"unknown or empty ring columns: {names}")
        probe = RingSpec(name="", slots=slots, capacity=capacity, columns=names)
        segment = create_segment(
            slots * probe.slot_bytes, purpose="flow-ring"
        )
        try:
            spec = RingSpec(
                name=segment.name, slots=slots, capacity=capacity, columns=names
            )
            return cls(segment, spec)
        except BaseException:
            # _SlotViews construction can fail after the segment is
            # registered live; without this the mapping (and the
            # /dev/shm file) would outlive the constructor (RL301).
            release_segment(segment, unlink=True)
            raise

    @property
    def spec(self) -> RingSpec:
        """The picklable geometry workers attach with."""
        return self._spec

    @property
    def capacity(self) -> int:
        """Maximum rows one slot can carry."""
        return self._spec.capacity

    def acquire(self, timeout: float | None = None) -> int:
        """Take a free slot, blocking until one is released.

        The streaming scheduler bounds its in-flight window below the
        slot count, so a block here is brief backpressure, never a
        deadlock; ``timeout`` is a safety net that turns an impossible
        state into a loud :class:`~repro.errors.TransportError`.
        """
        try:
            return self._free.get(timeout=timeout)
        except queue.Empty:
            raise TransportError(
                f"no free ring slot within {timeout}s "
                f"(slots={self._spec.slots})"
            ) from None

    def write(self, slot: int, chunk: FlowTable, chunk_index: int) -> int:
        """Pack ``chunk`` into ``slot``; returns the new generation tag."""
        n = len(chunk)
        if n > self._spec.capacity:
            raise TransportError(
                f"chunk of {n} rows exceeds ring capacity "
                f"{self._spec.capacity}",
                chunk_index=chunk_index,
            )
        views = self._views
        assert views is not None
        with self._lock:
            generation = self._next_generation
            self._next_generation += 1
        for name in self._spec.columns:
            views.columns[slot][name][:n] = getattr(chunk, name)
        self._generation[slot] = generation
        self._rows[slot] = n
        self._chunk_index[slot] = chunk_index
        self._write_header(slot)
        current_metrics().counter("shm.slots_written").inc()
        return generation

    def _write_header(self, slot: int) -> None:
        views = self._views
        assert views is not None
        header = views.headers[slot]
        header[0] = self._generation[slot]
        header[1] = self._rows[slot]
        header[2] = self._chunk_index[slot]
        header[3] = 0

    def refresh_header(self, slot: int) -> None:
        """Rewrite a slot's header from the parent's authoritative copy.

        Called before resubmitting a chunk whose worker reported a
        header mismatch: the column data was written once and is never
        mutated, so repairing the 32-byte header is enough to retry.
        """
        self._write_header(slot)

    def generation(self, slot: int) -> int:
        """The authoritative generation tag of ``slot``."""
        return self._generation[slot]

    def rows(self, slot: int) -> int:
        """The authoritative row count of ``slot``."""
        return self._rows[slot]

    def release(self, slot: int) -> None:
        """Return a resolved chunk's slot to the free list."""
        self._free.put(slot)

    def destroy(self) -> None:
        """Drop all views, close the mapping, unlink the segment."""
        if self._views is None:
            return
        self._views.drop()
        self._views = None
        release_segment(self._segment, unlink=True)


class WorkerRing:
    """Worker-side attachment: validates headers, yields zero-copy tables."""

    def __init__(self, segment: shared_memory.SharedMemory, spec: RingSpec) -> None:
        self._segment = segment
        self._spec = spec
        self._views = _SlotViews(segment, spec)

    @classmethod
    def attach(cls, spec: RingSpec) -> "WorkerRing":
        """Map the ring named by ``spec`` (pool initializer path)."""
        segment = attach_segment(spec.name)
        try:
            return cls(segment, spec)
        except BaseException:
            # A bad spec (geometry mismatch) raises inside _SlotViews;
            # close the worker-side mapping rather than leak it until
            # process exit (RL301). Never unlink — the parent owns the
            # segment.
            release_segment(segment, unlink=False)
            raise

    def detach(self) -> None:
        """Drop all views and close the mapping (never unlinks).

        Pool workers skip this — process exit reclaims their mapping —
        but same-process attachments (tests, the in-process fallback)
        must detach before the parent's ``destroy()`` finalises, or
        the segment's ``__del__`` trips over the live numpy views.
        """
        self._views.drop()
        release_segment(self._segment, unlink=False)

    def read(
        self, slot: int, generation: int, n_rows: int, chunk_index: int
    ) -> "FlowTable | RingChunk":
        """Gather one chunk from ``slot`` as zero-copy column views.

        The slot header must carry exactly the generation, row count
        and chunk index the parent put in the task payload; any
        disagreement means the slot is stale or damaged and raises
        :class:`~repro.errors.TransportError` (the supervision path
        repairs the header and retries). A full-column ring yields a
        :class:`~repro.ixp.flows.FlowTable`; a subset ring yields a
        :class:`RingChunk` carrying just the spec's columns.
        """
        header = self._views.headers[slot]
        found = (int(header[0]), int(header[1]), int(header[2]))
        if found != (generation, n_rows, chunk_index):
            raise TransportError(
                f"ring slot {slot} header mismatch: expected "
                f"(generation={generation}, rows={n_rows}, "
                f"chunk={chunk_index}), found {found}",
                chunk_index=chunk_index,
            )
        columns = self._views.columns[slot]
        views = {name: columns[name][:n_rows] for name in self._spec.columns}
        if self._spec.columns == _ALL_COLUMN_NAMES:
            return FlowTable(**views)
        return RingChunk(views)


class RingChunk:
    """Zero-copy column bundle read from a subset ring slot.

    Exposes each carried column as an attribute (``chunk.src``,
    ``chunk.member``), which is the whole surface sketch triage needs
    — structurally a :class:`repro.sketch.triage.FlowTableLike`. Only
    subset rings produce these; the exact engine always receives a
    full :class:`~repro.ixp.flows.FlowTable`.
    """

    def __init__(self, columns: dict[str, np.ndarray]) -> None:
        self._names = tuple(columns)
        self.__dict__.update(columns)

    def __len__(self) -> int:
        """Rows in the chunk (every column has the same length)."""
        return int(getattr(self, self._names[0]).size) if self._names else 0


#: The (ring, slot) a worker is about to gather — registered just
#: before the fault-injection hook runs so a planned ``"slot_corrupt"``
#: fault (:mod:`repro.testing.faults`) can damage exactly that slot.
_STAGED_READ: tuple[WorkerRing, int] | None = None


def stage_read(ring: WorkerRing, slot: int) -> None:
    """Register the next gather target for fault injection (worker-side)."""
    global _STAGED_READ
    _STAGED_READ = (ring, slot)


def corrupt_staged_header() -> bool:
    """Damage the staged slot's generation word (the injection seam).

    Returns ``False`` when no read is staged (pickle transport), so a
    ``"slot_corrupt"`` fault degenerates to a no-op there instead of
    failing the run for the wrong reason.
    """
    global _STAGED_READ
    if _STAGED_READ is None:
        return False
    ring, slot = _STAGED_READ
    _STAGED_READ = None
    header = ring._views.headers[slot]
    header[0] = header[0] ^ np.uint64(0xDEAD_BEEF)
    return True
