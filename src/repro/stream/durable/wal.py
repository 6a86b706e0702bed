"""Append-only, checksummed write-ahead log of watch events.

Every event the durable daemon ingests is appended here *before* it is
applied to any state, so the WAL — not the live source — is the
authority on what happened. After a crash, a checkpoint plus the WAL
suffix past its ``last_seq`` reconstructs the interrupted run exactly.

**Record format** (little-endian, one per event)::

    u64 seq | u8 kind | u32 payload_len | u32 crc32 | payload bytes

``seq`` is a contiguous 1-based counter across segments; ``crc32``
(zlib) covers the header prefix *and* the payload, so a bit flip
anywhere in the record is detected. ``kind`` selects the payload
encoding:

* ``1`` — a :class:`~repro.stream.events.RouteEvent`, pickled in-band;
* ``3`` — a :class:`~repro.stream.events.FlowEvent` framed
  *out-of-band*: a small index
  (``u32 skeleton_len | u32 n_buffers | u64 buffer_len…``) followed by
  the pickle-protocol-5 skeleton and the raw flow-column buffers. The
  writer streams each column's memory straight into the segment file —
  no in-band pickle copy of megabytes of flow data is ever
  materialised.

Any other kind in a checksum-valid record (``2`` included: no writer
ever produced it) raises :class:`~repro.errors.WalCorruptionError`.

**Segments.** Records append to ``wal-<first_seq>.log`` files;
once a segment passes ``segment_bytes`` the writer fsyncs and rotates
to a new one named by the next seq, keeping individual files bounded
and old history separately archivable/deletable. Appending (``"ab"``
mode) + fsync is crash-safe without the tmp-rename dance: a crash can
only produce an incomplete *final* record — a **torn tail** — which
:func:`replay` detects (short read or checksum mismatch at the very
end of the newest segment) and silently drops, because an event that
never finished reaching the log was by definition never applied
downstream either. The same damage anywhere *else* is real corruption
and raises :class:`~repro.errors.WalCorruptionError`.
"""

from __future__ import annotations

import io
import os
import pathlib
import pickle
import struct
import zlib
from collections.abc import Iterator

from repro.errors import UNPICKLE_ERRORS, WalCorruptionError
from repro.stream.events import FlowEvent, RouteEvent, WatchEvent

__all__ = ["DEFAULT_SEGMENT_BYTES", "WalWriter", "last_wal_seq", "replay_wal"]

#: Rotate to a fresh segment once the current one passes this size.
DEFAULT_SEGMENT_BYTES = 32 * 1024 * 1024

#: seq (u64), kind (u8), payload length (u32), crc32 (u32).
_HEADER = struct.Struct("<QBII")

_KIND_ROUTE = 1
_KIND_FLOW_OOB = 3

#: Index prefix of an out-of-band payload: skeleton length, buffer
#: count (each buffer's u64 length follows).
_OOB_INDEX = struct.Struct("<II")

_SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".log"


def _segment_name(first_seq: int) -> str:
    return f"{_SEGMENT_PREFIX}{first_seq:012d}{_SEGMENT_SUFFIX}"


def _segment_paths(directory: pathlib.Path) -> list[pathlib.Path]:
    """All WAL segments in ``directory``, in seq (== name) order."""
    return sorted(directory.glob(f"{_SEGMENT_PREFIX}*{_SEGMENT_SUFFIX}"))


def _encode_parts(
    seq: int, event: WatchEvent
) -> tuple[int, list[bytes | memoryview], int, int]:
    """Encode one record as ``(kind, payload_parts, payload_len, crc)``.

    The payload is returned as a part list so the writer can stream
    each part to the file in order — for flow events the large column
    buffers are raw memoryviews into the live table, so no
    payload-sized copy is ever built. The crc is computed
    incrementally over the same parts.
    """
    if isinstance(event, RouteEvent):
        kind = _KIND_ROUTE
        parts: list[bytes | memoryview] = [
            pickle.dumps(event, protocol=pickle.HIGHEST_PROTOCOL)
        ]
    elif isinstance(event, FlowEvent):
        kind = _KIND_FLOW_OOB
        buffers: list[pickle.PickleBuffer] = []
        skeleton = pickle.dumps(
            event, protocol=5, buffer_callback=buffers.append
        )
        raws = [buffer.raw().cast("B") for buffer in buffers]
        index = struct.pack(
            f"<II{len(raws)}Q",
            len(skeleton),
            len(raws),
            *(len(raw) for raw in raws),
        )
        parts = [index, skeleton, *raws]
    else:
        raise TypeError(f"not a watch event: {type(event).__name__}")
    length = sum(len(part) for part in parts)
    crc = zlib.crc32(struct.pack("<QBI", seq, kind, length))
    for part in parts:
        crc = zlib.crc32(part, crc)
    return kind, parts, length, crc


def _write_all(handle: io.FileIO, parts: list[bytes | memoryview]) -> None:
    """Write every part to the unbuffered ``handle``, in order.

    One plain ``write`` per part, resumed on a short write: regular
    files only come up short on hard conditions (ENOSPC,
    interruption), but a silently dropped suffix would be a torn
    record *mid*-log after further appends. Deliberately **not**
    ``os.writev``: gathering a flow event's dozen column buffers into
    one many-iovec call measured an order of magnitude *slower* than
    sequential writes on large-address-space processes (per-iovec
    setup dominates), while per-part writes go at memcpy speed and
    skip the userspace copy a buffered handle would add.
    """
    for part in parts:
        written = handle.write(part)
        length = len(part)
        while written is not None and written < length:
            view = memoryview(part)
            more = handle.write(view[written:])
            if more is None:
                break
            written += more


class WalWriter:
    """Appends events to segment-rotated log files, assigning seqs.

    ``sync_every`` batches fsyncs: the file is flushed+fsynced every N
    appends and on :meth:`sync`/:meth:`close`/rotation. The daemon
    syncs at least once per window boundary (a checkpoint referencing
    ``last_seq`` must never outrun the durable log).
    """

    def __init__(
        self,
        directory: str | pathlib.Path,
        *,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        sync_every: int = 1,
    ) -> None:
        if segment_bytes <= 0:
            raise ValueError("segment_bytes must be positive")
        if sync_every <= 0:
            raise ValueError("sync_every must be positive")
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.segment_bytes = segment_bytes
        self.sync_every = sync_every
        self._truncate_torn_tail()
        self._last_seq = last_wal_seq(self.directory)
        self._handle: io.FileIO | None = None
        self._segment_size = 0
        self._unsynced = 0

    @property
    def last_seq(self) -> int:
        """Seq of the most recently appended record (0 = empty log)."""
        return self._last_seq

    def append(self, event: WatchEvent) -> int:
        """Append one event; returns its assigned seq."""
        seq = self._last_seq + 1
        kind, parts, length, crc = _encode_parts(seq, event)
        record_size = _HEADER.size + length
        handle = self._current_handle(record_size)
        start = os.fstat(handle.fileno()).st_size
        try:
            _write_all(handle, [_HEADER.pack(seq, kind, length, crc), *parts])
        except BaseException:
            # A partial write (ENOSPC, interruption) leaves torn bytes
            # at the tail, and the append-mode handle would resume
            # *after* them — stranding the damage mid-segment, where
            # replay rightly refuses to skip it. Cut the file back to
            # the pre-append size so the log stays record-aligned for
            # the next append; if even the truncate fails the original
            # error still propagates and the segment is no worse than
            # before.
            try:
                handle.truncate(start)
            except OSError:
                pass
            raise
        self._segment_size += record_size
        self._last_seq = seq
        self._unsynced += 1
        if self._unsynced >= self.sync_every:
            self._sync_pending()
        return seq

    def sync(self) -> None:
        """Flush + fsync pending appends (they are durable on return)."""
        self._sync_pending()

    def _sync_pending(self) -> None:
        if self._handle is not None and self._unsynced:
            os.fsync(self._handle.fileno())
        self._unsynced = 0

    def close(self) -> None:
        """Sync and release the current segment handle."""
        if self._handle is not None:
            self._sync_pending()
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "WalWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def _truncate_torn_tail(self) -> None:
        """Cut a crash's torn tail record off the newest segment.

        Appending after garbage would strand the damage *mid*-segment,
        where replay rightly refuses to skip it — so the torn bytes
        are removed before the first new append, not worked around.
        """
        segments = _segment_paths(self.directory)
        if not segments:
            return
        tail = segments[-1]
        data = tail.read_bytes()
        offset = 0
        while offset < len(data):
            record = _read_record(data, offset, tail)
            if record is None:
                break
            offset = record[2]
        if offset < len(data):
            with open(tail, "ab") as handle:
                handle.truncate(offset)
                os.fsync(handle.fileno())

    def _current_handle(self, incoming: int) -> io.FileIO:
        if (
            self._handle is not None
            and self._segment_size + incoming > self.segment_bytes
            and self._segment_size > 0
        ):
            self.close()  # rotate to a fresh segment
        if self._handle is None:
            path = self.directory / _segment_name(self._last_seq + 1)
            # Append mode: an existing segment (resumed daemon) keeps
            # its records; fsync-on-sync makes appends durable without
            # rewriting the file (RL009 allows append+fsync here).
            # Unbuffered: append() gathers each record into one writev,
            # so a userspace buffer would only add a copy.
            handle = open(path, "ab", buffering=0)
            assert isinstance(handle, io.FileIO)
            self._handle = handle
            self._segment_size = path.stat().st_size
        return self._handle


def replay_wal(
    directory: str | pathlib.Path, *, after_seq: int = 0
) -> Iterator[tuple[int, WatchEvent]]:
    """Yield ``(seq, event)`` for every record with ``seq > after_seq``.

    Verifies seq contiguity and every record's crc32. A torn record at
    the *tail of the newest segment* is dropped silently (the expected
    debris of a crash mid-append); any other damage — checksum mismatch,
    truncation, or a seq gap mid-log — raises
    :class:`~repro.errors.WalCorruptionError` naming the segment and
    seq, because silently skipping an *applied* event would fork the
    replayed state from the original run.
    """
    directory = pathlib.Path(directory)
    segments = _segment_paths(directory)
    expected = None
    for index, segment in enumerate(segments):
        final_segment = index == len(segments) - 1
        data = segment.read_bytes()
        offset = 0
        while offset < len(data):
            torn = _read_record(data, offset, segment)
            if torn is None:
                if final_segment:
                    return  # torn tail: crash mid-append, never applied
                raise WalCorruptionError(
                    "torn record in a non-final WAL segment",
                    path=str(segment),
                    seq=expected,
                )
            seq, event, offset = torn
            if expected is not None and seq != expected:
                raise WalCorruptionError(
                    f"WAL seq jumped to {seq}, expected {expected}",
                    path=str(segment),
                    seq=seq,
                )
            expected = seq + 1
            if seq > after_seq:
                yield seq, event


def _read_record(
    data: bytes, offset: int, segment: pathlib.Path
) -> tuple[int, WatchEvent, int] | None:
    """Decode one record at ``offset``; ``None`` = torn/short record."""
    if offset + _HEADER.size > len(data):
        return None
    seq, kind, length, crc = _HEADER.unpack_from(data, offset)
    start = offset + _HEADER.size
    if start + length > len(data):
        return None
    payload = data[start : start + length]
    want = zlib.crc32(payload, zlib.crc32(struct.pack("<QBI", seq, kind, length)))
    if crc != want:
        return None
    if kind not in (_KIND_ROUTE, _KIND_FLOW_OOB):
        raise WalCorruptionError(
            f"unknown WAL record kind {kind}", path=str(segment), seq=seq
        )
    try:
        if kind == _KIND_FLOW_OOB:
            event = _decode_oob(payload)
        else:
            event = pickle.loads(payload)
    except (*UNPICKLE_ERRORS, struct.error) as exc:
        # The crc matched, so these are the bytes that were written:
        # not a torn tail but a record this build cannot decode.
        raise WalCorruptionError(
            f"WAL record does not unpickle: {type(exc).__name__}: {exc}",
            path=str(segment),
            seq=seq,
        ) from exc
    return seq, event, start + length


def _decode_oob(payload: bytes) -> WatchEvent:
    """Reassemble an out-of-band framed flow event from its payload.

    Buffers are copied into writable bytearrays so the reconstructed
    arrays behave exactly like live ones (replay is the rare path; the
    extra copy is paid here, not on append).
    """
    skeleton_len, n_buffers = _OOB_INDEX.unpack_from(payload, 0)
    lengths = struct.unpack_from(f"<{n_buffers}Q", payload, _OOB_INDEX.size)
    offset = _OOB_INDEX.size + 8 * n_buffers
    skeleton = payload[offset : offset + skeleton_len]
    offset += skeleton_len
    buffers: list[bytearray] = []
    view = memoryview(payload)
    for length in lengths:
        buffers.append(bytearray(view[offset : offset + length]))
        offset += length
    return pickle.loads(skeleton, buffers=buffers)  # type: ignore[no-any-return]


def last_wal_seq(directory: str | pathlib.Path) -> int:
    """Highest intact seq stored in a WAL directory (0 when empty)."""
    last = 0
    for seq, _event in replay_wal(directory):
        last = seq
    return last
