"""Runtime protocol sanitizer: verify dynamically what reprolint
claims statically.

:class:`ProtocolSanitizer` checks the resource protocols against what
actually executes, so a rule gap (an edge the static model cannot
see, a path that only runs under some flag) still gets caught in CI:
the ``wal-commit`` ordering RL302 checks statically (any
``<name>.<pid>.tmp`` promoted onto its final name must have been
fsynced first, and no checkpoint may outrun any live
:class:`~repro.stream.durable.wal.WalWriter`'s synced prefix), plus
the runtime-only ``supervised-pool`` check (no submit to a drained
pool). It mirrors the specs declared in
``tools/reprolint/protocols.py`` *by name* (``src`` must not import
``tools``); ``tests/test_sanitizer.py`` keeps the two tables aligned.

It is opt-in (the ``REPRO_SANITIZE=1`` pytest fixture in
``tests/conftest.py``); :meth:`ProtocolSanitizer.check` raises on any
violation and :meth:`ProtocolSanitizer.write_artifacts` dumps them
for CI.
"""

from __future__ import annotations

import json
import os
import pathlib
import threading
import weakref
from typing import Any

from repro.errors import ReproError

__all__ = ["ProtocolSanitizer", "SanitizerError"]


class SanitizerError(ReproError):
    """A runtime protocol violation (test-only)."""


#: File basenames exempt from the fsync-before-rename check — the
#: advisory files ``atomic_write_*(durable=False)`` covers, whose
#: readers fall back to an fsynced anchor by design.
ADVISORY_BASENAMES = frozenset({"cursor.json"})


def _fd_identity(fd: int) -> tuple[int, int] | None:
    try:
        stat = os.fstat(fd)
    except OSError:
        return None
    return (stat.st_dev, stat.st_ino)


def _path_identity(path: "str | os.PathLike[str]") -> tuple[int, int] | None:
    try:
        stat = os.stat(path)
    except OSError:
        return None
    return (stat.st_dev, stat.st_ino)


#: Pool methods that count as "submit" for the supervised-pool
#: protocol (mirrors reprolint's POOL_SUBMIT_METHODS by value).
_POOL_SUBMIT_METHODS = (
    "apply",
    "apply_async",
    "imap",
    "imap_unordered",
    "map",
    "map_async",
    "starmap",
    "starmap_async",
)


class ProtocolSanitizer:
    """Assert the resource protocols against what executes.

    Runtime mirror of the specs in ``tools/reprolint/protocols.py``
    (matched by :attr:`PROTOCOL_NAMES`; ``src`` must not import
    ``tools``):

    * **wal-commit** — the two halves of commit ordering:

      - interposes ``os.fsync`` / ``os.replace`` / ``os.rename``: a
        file matching the atomic-write signature
        (``<final-name>.<pid>.tmp`` promoted onto ``<final-name>``)
        must have been fsynced before the rename
        (``replace-without-fsync`` / ``rename-without-fsync``).
        Advisory targets like the watch cursor are exempt, mirroring
        ``atomic_write_*(durable=False)``;
      - wraps
        :meth:`~repro.stream.durable.checkpoint.CheckpointStore.save`:
        a checkpoint claiming ``last_seq`` that any live
        :class:`~repro.stream.durable.wal.WalWriter` has appended but
        not yet fsynced means the checkpoint outran the log.
    * **supervised-pool** (runtime only; no static rule) — wraps the
      ``multiprocessing.pool.Pool`` submit surface: a submit to a pool
      that is no longer running (terminated/closed) is a violation,
      recorded *before* the stdlib's own late error.
    """

    #: Protocols this monitor checks, by the names declared in
    #: ``tools/reprolint/protocols.py`` (parity-tested); every static
    #: spec has a runtime mirror here.
    PROTOCOL_NAMES = ("wal-commit", "supervised-pool")

    def __init__(self) -> None:
        self.violations: list[dict[str, Any]] = []
        self._guard = threading.Lock()
        self._writers: "weakref.WeakSet[Any]" = weakref.WeakSet()
        #: (dev, inode) of files fsynced since their last rename.
        self._fsynced: set[tuple[int, int]] = set()
        #: (owner, attribute, original) undone in reverse at uninstall.
        self._patches: list[tuple[Any, str, Any]] = []

    # -- patching ------------------------------------------------------

    def _patch(self, owner: Any, name: str, replacement: Any) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def install(self) -> None:
        """Wrap the fsync/rename syscalls, WalWriter/CheckpointStore
        and the pool submit surface (idempotent)."""
        if self._patches:
            return
        import multiprocessing.pool as mp_pool

        from repro.stream.durable import checkpoint as checkpoint_mod
        from repro.stream.durable import wal as wal_mod

        sanitizer = self
        real_fsync = os.fsync

        def fsync(fd: int) -> None:
            real_fsync(fd)
            identity = _fd_identity(fd)
            if identity is not None:
                with sanitizer._guard:
                    sanitizer._fsynced.add(identity)

        self._patch(os, "fsync", fsync)
        for kind in ("replace", "rename"):
            real_move = getattr(os, kind)

            def move(
                src: Any,
                dst: Any,
                *,
                _real: Any = real_move,
                _kind: str = kind,
                **kwargs: Any,
            ) -> None:
                sanitizer._check_rename(_kind, src, dst)
                _real(src, dst, **kwargs)

            self._patch(os, kind, move)
        real_writer_init = wal_mod.WalWriter.__init__

        def writer_init(writer: Any, *args: Any, **kwargs: Any) -> None:
            real_writer_init(writer, *args, **kwargs)
            sanitizer._writers.add(writer)

        self._patch(wal_mod.WalWriter, "__init__", writer_init)

        real_save = checkpoint_mod.CheckpointStore.save

        def save(store: Any, state: Any, **kwargs: Any) -> Any:
            sanitizer._check_save(kwargs.get("last_seq"))
            return real_save(store, state, **kwargs)

        self._patch(checkpoint_mod.CheckpointStore, "save", save)

        for method in _POOL_SUBMIT_METHODS:
            if not hasattr(mp_pool.Pool, method):
                continue

            real = getattr(mp_pool.Pool, method)

            def submit(
                pool: Any,
                *args: Any,
                _real: Any = real,
                _method: str = method,
                **kwargs: Any,
            ) -> Any:
                if pool._state != mp_pool.RUN:
                    sanitizer._violate(
                        "supervised-pool",
                        kind="submit-to-drained-pool",
                        method=_method,
                        pool_state=str(pool._state),
                    )
                return _real(pool, *args, **kwargs)

            self._patch(mp_pool.Pool, method, submit)

    def uninstall(self) -> None:
        """Restore every patched binding."""
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- the wal-commit machine ---------------------------------------

    def _enforced(self, src: Any, dst: Any) -> bool:
        """Only renames matching the atomic-write signature are checked:
        ``<final-name>.<pid>.tmp`` promoted onto ``<final-name>``."""
        src_name = pathlib.Path(os.fspath(src)).name
        dst_name = pathlib.Path(os.fspath(dst)).name
        if not src_name.endswith(".tmp"):
            return False
        if not src_name.startswith(dst_name + "."):
            return False
        return dst_name not in ADVISORY_BASENAMES

    def _check_rename(self, kind: str, src: Any, dst: Any) -> None:
        if not self._enforced(src, dst):
            return
        identity = _path_identity(src)
        with self._guard:
            fsynced = identity is not None and identity in self._fsynced
            if identity is not None:
                self._fsynced.discard(identity)
        if not fsynced:
            self._violate(
                "wal-commit",
                kind=f"{kind}-without-fsync",
                src=os.fspath(src),
                dst=os.fspath(dst),
            )

    def _check_save(self, last_seq: Any) -> None:
        if not isinstance(last_seq, int) or last_seq <= 0:
            return
        for writer in list(self._writers):
            appended = writer._last_seq
            synced = appended - writer._unsynced
            # Only a writer that actually holds the record can veto:
            # an unrelated (or behind) log is not this checkpoint's.
            if appended >= last_seq > synced:
                self._violate(
                    "wal-commit",
                    kind="checkpoint-outran-log",
                    checkpoint_last_seq=last_seq,
                    wal_synced_seq=synced,
                    wal_last_seq=appended,
                )

    # -- reporting -----------------------------------------------------

    def _violate(self, protocol: str, **details: Any) -> None:
        with self._guard:
            self.violations.append(
                {
                    "protocol": protocol,
                    "thread": threading.current_thread().name,
                    **details,
                }
            )

    def write_artifacts(self, directory: "str | pathlib.Path") -> None:
        """Dump the protocols and their violations, for the CI artifact."""
        directory = pathlib.Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        with self._guard:
            payload = {
                "protocols": list(self.PROTOCOL_NAMES),
                "violations": list(self.violations),
            }
        (directory / "protocol_violations.json").write_text(
            json.dumps(payload, indent=2) + "\n"
        )

    def check(self) -> None:
        """Raise :class:`SanitizerError` when any violation was seen."""
        if self.violations:
            raise SanitizerError(
                f"{len(self.violations)} protocol violation(s)",
                violations=list(self.violations),
            )
