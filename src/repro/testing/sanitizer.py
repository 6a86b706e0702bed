"""Runtime concurrency sanitizers: verify dynamically what reprolint
claims statically.

The RL2xx/RL3xx rules reason about call graphs and CFGs; these three
monitors check the same contracts against what actually executes, so a
rule gap (an edge the static model cannot see) still gets caught in
CI:

* :class:`LockOrderSanitizer` interposes ``threading.Lock`` /
  ``threading.RLock`` creation for locks born in monitored code,
  records the acquisition-order graph by creation site (the lockdep
  model: one node per ``file:line``), and flags any cycle — two locks
  ever taken in both orders is a deadlock waiting for the right
  interleaving, even if the test run never deadlocks.
* :class:`ThreadAccessTracer` swaps a watched object's class for a
  recording subclass and logs which *threads* read and write each
  attribute, then :meth:`~ThreadAccessTracer.assert_contracts` checks
  the observations against the statically declared
  ``_CONCURRENCY_CONTRACT`` (the same declarations reprolint RL201
  trusts): an attribute written by a thread the contract does not
  name, or shared without any declaration, is a violation.
* :class:`ProtocolSanitizer` asserts the resource protocols at
  runtime: the ``wal-commit`` ordering RL302 checks statically (any
  ``<name>.<pid>.tmp`` promoted onto its final name must have been
  fsynced first, and no checkpoint may outrun any live
  :class:`~repro.stream.durable.wal.WalWriter`'s synced prefix), plus
  the runtime-only ``supervised-pool`` check (no submit to a drained
  pool). It mirrors the specs declared in
  ``tools/reprolint/protocols.py`` *by name* (``src`` must not import
  ``tools``); ``tests/test_sanitizer.py`` keeps the two tables
  aligned.

All three are opt-in (the ``REPRO_SANITIZE=1`` pytest fixture in
``tests/conftest.py``) and report through
:meth:`ConcurrencySanitizer.violations` so a failing run can attach
the lock graph, access trace and protocol violations as artifacts.
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import threading
import weakref
from typing import Any

from repro.errors import ReproError

__all__ = [
    "ConcurrencySanitizer",
    "LockOrderSanitizer",
    "ProtocolSanitizer",
    "SanitizerError",
    "ThreadAccessTracer",
]


class SanitizerError(ReproError):
    """A runtime concurrency-contract violation (test-only)."""


#: This module's own path suffix: frames in here never count as a
#: lock's creation site (the sanitizer's internals must not trace
#: themselves). Matched on the full package path so a *test* module
#: named ``test_sanitizer.py`` is still monitored.
_SELF_SUFFIX = os.path.join("repro", "testing", "sanitizer.py")

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


class _TracedLock:
    """A lock wrapper feeding the order graph (no attribute
    forwarding on purpose: only the documented Lock surface exists,
    so accidental reliance on internals fails loudly)."""

    def __init__(self, real: Any, site: str,
                 sanitizer: "LockOrderSanitizer") -> None:
        self._real = real
        self._site = site
        self._sanitizer = sanitizer

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._real.acquire(blocking, timeout)
        if acquired:
            self._sanitizer._on_acquire(self._site)
        return acquired

    def release(self) -> None:
        self._real.release()
        self._sanitizer._on_release(self._site)

    def locked(self) -> bool:
        return self._real.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc: Any) -> None:
        self.release()

    def _at_fork_reinit(self) -> None:
        # threading's fork handler reinitialises Thread-internal
        # locks; a Thread created from monitored code carries wrapped
        # ones, so the wrapper must forward this or forked children
        # crash in _after_fork.
        self._real._at_fork_reinit()


class LockOrderSanitizer:
    """Record lock acquisition order by creation site; flag cycles."""

    def __init__(
        self, monitored_parts: tuple[str, ...] = ("repro", "tests")
    ) -> None:
        #: Path *components* a creation site must contain for its lock
        #: to be traced (stdlib and third-party locks stay untouched).
        self.monitored_parts = monitored_parts
        self.violations: list[dict[str, Any]] = []
        #: Site → sites acquired while it was held.
        self.edges: dict[str, set[str]] = {}
        self._held = threading.local()
        self._real_lock: Any = None
        self._real_rlock: Any = None
        self._guard = threading.Lock()

    # -- patching ------------------------------------------------------

    def install(self) -> None:
        """Patch the ``threading.Lock``/``RLock`` factories."""
        if self._real_lock is not None:
            return
        self._real_lock = threading.Lock
        self._real_rlock = threading.RLock
        threading.Lock = self._make_lock  # type: ignore[assignment]
        threading.RLock = self._make_rlock  # type: ignore[assignment]

    def uninstall(self) -> None:
        if self._real_lock is None:
            return
        threading.Lock = self._real_lock  # type: ignore[assignment]
        threading.RLock = self._real_rlock  # type: ignore[assignment]
        self._real_lock = None

    def _creation_site(self) -> str | None:
        """``file:line`` of the first monitored non-sanitizer frame, or
        None when the lock is born in unmonitored code."""
        frame = sys._getframe(2)
        while frame is not None:
            filename = frame.f_code.co_filename
            if filename.endswith(_SELF_SUFFIX):
                return None
            if "threading" in filename:
                # Skip threading.py so an Event/Condition born in
                # monitored code is attributed to its real creator...
                frame = frame.f_back
                continue
            # ...but the first non-threading frame *decides*: a lock
            # created by other stdlib internals (multiprocessing's
            # resource tracker, importlib) stays unwrapped even when
            # monitored code is further up the stack.
            parts = pathlib.PurePath(filename).parts
            if any(part in parts for part in self.monitored_parts):
                name = pathlib.PurePath(filename).name
                return f"{name}:{frame.f_lineno}"
            return None
        return None

    def _make_lock(self) -> Any:
        real = self._real_lock()
        site = self._creation_site()
        if site is None:
            return real
        return _TracedLock(real, site, self)

    def _make_rlock(self) -> Any:
        real = self._real_rlock()
        site = self._creation_site()
        if site is None:
            return real
        return _TracedLock(real, site, self)

    # -- the order graph -----------------------------------------------

    def _stack(self) -> list[str]:
        stack = getattr(self._held, "stack", None)
        if stack is None:
            stack = []
            self._held.stack = stack
        return stack

    def _on_acquire(self, site: str) -> None:
        stack = self._stack()
        with self._guard:
            for held in stack:
                if held == site:
                    continue
                self.edges.setdefault(held, set()).add(site)
                if self._reaches(site, held):
                    self.violations.append(
                        {
                            "kind": "lock-order-inversion",
                            "held": held,
                            "acquiring": site,
                            "thread": threading.current_thread().name,
                        }
                    )
        stack.append(site)

    def _on_release(self, site: str) -> None:
        stack = self._stack()
        if site in stack:
            # Remove the innermost occurrence: releases may be
            # out of LIFO order (rare but legal).
            for index in range(len(stack) - 1, -1, -1):
                if stack[index] == site:
                    del stack[index]
                    break

    def _reaches(self, start: str, goal: str) -> bool:
        seen = set()
        pending = [start]
        while pending:
            node = pending.pop()
            if node == goal:
                return True
            if node in seen:
                continue
            seen.add(node)
            pending.extend(self.edges.get(node, ()))
        return False

    def graph_json(self) -> dict[str, Any]:
        """The order graph plus violations, for the CI artifact."""
        with self._guard:
            return {
                "edges": sorted(
                    [a, b] for a, targets in self.edges.items()
                    for b in targets
                ),
                "violations": list(self.violations),
            }


class ThreadAccessTracer:
    """Record which threads touch a watched object's attributes."""

    def __init__(self) -> None:
        #: object id → (contract, creator thread, attr → [(thread, op)]).
        self._watched: dict[int, tuple[dict[str, str], str,
                                       dict[str, list[tuple[str, str]]]]] = {}
        self.violations: list[dict[str, Any]] = []
        self._guard = threading.Lock()

    def watch(
        self, obj: Any, contract: dict[str, str] | None = None
    ) -> None:
        """Swap ``obj``'s class for a recording subclass.

        ``contract`` defaults to the class's declared
        ``_CONCURRENCY_CONTRACT`` (empty when absent). The swap is
        per-instance — other instances of the class are untouched.
        """
        if contract is None:
            contract = getattr(type(obj), "_CONCURRENCY_CONTRACT", {})
        records: dict[str, list[tuple[str, str]]] = {}
        self._watched[id(obj)] = (
            dict(contract),
            threading.current_thread().name,
            records,
        )
        tracer = self
        cls = type(obj)

        class _Traced(cls):  # type: ignore[misc, valid-type]
            def __getattribute__(self, name: str) -> Any:
                value = object.__getattribute__(self, name)
                if not name.startswith("__") and not callable(value):
                    tracer._record(records, name, "read")
                return value

            def __setattr__(self, name: str, value: Any) -> None:
                tracer._record(records, name, "write")
                object.__setattr__(self, name, value)

        _Traced.__name__ = cls.__name__
        _Traced.__qualname__ = cls.__qualname__
        object.__setattr__(obj, "__class__", _Traced)

    def _record(
        self,
        records: dict[str, list[tuple[str, str]]],
        attr: str,
        op: str,
    ) -> None:
        thread = threading.current_thread().name
        with self._guard:
            records.setdefault(attr, []).append((thread, op))

    # -- contract checking ---------------------------------------------

    def assert_contracts(self) -> None:
        """Populate :attr:`violations` from the recorded accesses.

        Rules, per attribute of each watched object:

        * ``single-writer:<NAME>`` — after the creator thread's
          initialisation writes, only the named thread may write
          (``*`` allows any single thread);
        * ``lock:<ATTR>`` — trusted (lock discipline is the
          :class:`LockOrderSanitizer`'s domain);
        * undeclared — if more than one thread touches the attribute
          *and* any non-creator thread writes it, the sharing is real
          and undeclared: a violation.
        """
        with self._guard:
            watched = list(self._watched.values())
        for contract, creator, records in watched:
            for attr, accesses in sorted(records.items()):
                token = contract.get(attr, "")
                threads = {thread for thread, _ in accesses}
                steady_writers = self._steady_writers(accesses, creator)
                if token.startswith("lock:"):
                    continue
                if token.startswith("single-writer:"):
                    allowed = token.split("single-writer:", 1)[1]
                    allowed = allowed.split(" ")[0].split("—")[0].strip()
                    if allowed == "*":
                        if len(steady_writers) > 1:
                            self._violate(attr, token, steady_writers)
                    elif steady_writers - {allowed}:
                        self._violate(attr, token, steady_writers)
                elif token:
                    continue  # unknown token: declared, human-reviewed
                else:
                    if len(threads) > 1 and (steady_writers - {creator}):
                        self._violate(attr, "<undeclared>", steady_writers)

    @staticmethod
    def _steady_writers(
        accesses: list[tuple[str, str]], creator: str
    ) -> set[str]:
        """Writer threads, excluding the creator's initialisation
        prefix (writes before any other thread's first access)."""
        first_foreign = None
        for index, (thread, _) in enumerate(accesses):
            if thread != creator:
                first_foreign = index
                break
        writers = set()
        for index, (thread, op) in enumerate(accesses):
            if op != "write":
                continue
            if thread == creator and (
                first_foreign is None or index < first_foreign
            ):
                continue
            writers.add(thread)
        return writers

    def _violate(
        self, attr: str, token: str, writers: set[str]
    ) -> None:
        self.violations.append(
            {
                "kind": "contract-violation",
                "attr": attr,
                "declared": token,
                "observed_writers": sorted(writers),
            }
        )

    def trace_json(self) -> dict[str, Any]:
        """The full access trace, for the CI artifact."""
        with self._guard:
            objects = []
            for contract, creator, records in self._watched.values():
                objects.append(
                    {
                        "creator": creator,
                        "contract": contract,
                        "accesses": {
                            attr: [[t, op] for t, op in accesses]
                            for attr, accesses in sorted(records.items())
                        },
                    }
                )
        return {"objects": objects, "violations": list(self.violations)}


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
            with writer._lock:
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

    def protocol_json(self) -> dict[str, Any]:
        """Protocol states and violations, for the CI artifact."""
        with self._guard:
            return {
                "protocols": list(self.PROTOCOL_NAMES),
                "violations": list(self.violations),
            }


class ConcurrencySanitizer:
    """The three monitors behind one install/uninstall/report façade."""

    def __init__(self) -> None:
        self.locks = LockOrderSanitizer()
        self.tracer = ThreadAccessTracer()
        self.protocols = ProtocolSanitizer()

    def install(self) -> None:
        """Arm the lock-factory and protocol interpositions."""
        self.locks.install()
        self.protocols.install()

    def uninstall(self) -> None:
        """Restore every patched binding."""
        self.protocols.uninstall()
        self.locks.uninstall()

    def violations(self) -> list[dict[str, Any]]:
        """All violations across the monitors (checks contracts)."""
        self.tracer.assert_contracts()
        return (
            list(self.locks.violations)
            + list(self.tracer.violations)
            + list(self.protocols.violations)
        )

    def write_artifacts(self, directory: "str | pathlib.Path") -> None:
        """Dump the lock graph, access trace, and protocol violations."""
        directory = pathlib.Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "lock_order_graph.json").write_text(
            json.dumps(self.locks.graph_json(), indent=2) + "\n"
        )
        (directory / "thread_access_trace.json").write_text(
            json.dumps(self.tracer.trace_json(), indent=2) + "\n"
        )
        (directory / "protocol_violations.json").write_text(
            json.dumps(self.protocols.protocol_json(), indent=2) + "\n"
        )

    def check(self) -> None:
        """Raise :class:`SanitizerError` when any monitor saw a
        violation."""
        found = self.violations()
        if found:
            raise SanitizerError(
                f"{len(found)} concurrency-contract violation(s)",
                violations=found,
            )
