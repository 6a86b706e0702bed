"""Deterministic fault injection for the resilience test suite.

A :class:`FaultPlan` is a picklable callable matching the classifier's
``FaultInjector`` seam (``plan(chunk_index, attempt, in_worker)``). It
fires configured faults at exact (chunk, attempt) positions — or at
seeded rates via :meth:`FaultPlan.from_rates` — so every failure a
test provokes is reproducible bit for bit:

* ``"crash"``   — raise :class:`InjectedCrash` in the worker (a worker
  exception; the pool survives, the chunk fails).
* ``"hang"``    — sleep far past any reasonable deadline (exercises
  per-chunk timeouts and pool reclamation).
* ``"die"``     — ``os._exit`` the worker process (a hard death: the
  task can never complete; only a timeout can reclaim it).
* ``"corrupt"`` — raise :class:`InjectedCorruption`; with
  ``scope="any"`` it also fires in the in-process fallback, modelling
  a chunk whose payload is unrecoverably bad.

``attempt=0`` matches every attempt (persistent faults such as
corrupted payloads); ``attempt=n`` fires only on the n-th attempt
(transient faults that a retry survives). ``scope="worker"`` restricts
a fault to pool workers so the in-process fallback succeeds.

Fired faults are appended to ``log_path`` (or ``$REPRO_FAULT_LOG``),
one line per event — CI uploads this log when the resilience suite
fails.

For ingest resilience, :func:`corrupt_file` deterministically damages
chosen (or seeded) lines of a text file and returns the exact line
numbers it touched, so quarantine reports can be asserted line by
line.

For the durable daemon, :class:`DurabilityFaultPlan` matches the
checkpoint/daemon ``fault_hook`` seam (``plan(point)``) and fires
process-level faults at named hook points — ``"kill"`` SIGKILLs the
process mid-window or mid-checkpoint, ``"torn_write"`` drops a partial
``*.tmp`` into a directory first (the exact debris of dying inside
``atomic_write_bytes``), ``"disk_full"`` raises ``ENOSPC`` — so the
crash-recovery suite reproduces every death it asserts about.
"""

from __future__ import annotations

import errno
import os
import random
import signal
import time
from dataclasses import dataclass

__all__ = [
    "DurabilityFaultPlan",
    "DurabilityFaultSpec",
    "FaultPlan",
    "FaultSpec",
    "InjectedCorruption",
    "InjectedCrash",
    "InjectedFault",
    "corrupt_file",
]

#: Environment variable naming the fault-event log file.
FAULT_LOG_ENV = "REPRO_FAULT_LOG"

_KINDS = ("crash", "hang", "die", "corrupt")
_SCOPES = ("worker", "any")


class InjectedFault(RuntimeError):
    """Base class of all deliberately injected failures."""


class InjectedCrash(InjectedFault):
    """A worker raised mid-chunk (transient, survives a retry)."""


class InjectedCorruption(InjectedFault):
    """A chunk payload is unrecoverably corrupt (persistent)."""


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault at an exact (chunk, attempt) position."""

    kind: str
    chunk_index: int
    attempt: int = 1  # 0 = every attempt
    scope: str = "worker"
    hang_seconds: float = 3600.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.scope not in _SCOPES:
            raise ValueError(f"unknown fault scope {self.scope!r}")

    def matches(self, chunk_index: int, attempt: int, in_worker: bool) -> bool:
        if self.chunk_index != chunk_index:
            return False
        if self.attempt not in (0, attempt):
            return False
        if self.scope == "worker" and not in_worker:
            return False
        return True


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic, picklable set of faults to fire during a run."""

    faults: tuple[FaultSpec, ...] = ()
    log_path: str | None = None

    def __call__(self, chunk_index: int, attempt: int, in_worker: bool) -> None:
        for fault in self.faults:
            if not fault.matches(chunk_index, attempt, in_worker):
                continue
            self._log(fault, attempt, in_worker)
            if fault.kind == "crash":
                raise InjectedCrash(
                    f"injected crash at chunk {chunk_index} attempt {attempt}"
                )
            if fault.kind == "corrupt":
                raise InjectedCorruption(
                    f"injected corrupt payload at chunk {chunk_index}"
                )
            if fault.kind == "hang":
                time.sleep(fault.hang_seconds)
            elif fault.kind == "die":  # pragma: no cover - kills the process
                os._exit(23)

    def _log(self, fault: FaultSpec, attempt: int, in_worker: bool) -> None:
        path = self.log_path or os.environ.get(FAULT_LOG_ENV)
        if not path:
            return
        try:
            with open(path, "a") as handle:
                handle.write(
                    f"pid={os.getpid()} chunk={fault.chunk_index} "
                    f"attempt={attempt} kind={fault.kind} "
                    f"scope={fault.scope} in_worker={in_worker}\n"
                )
        except OSError:  # pragma: no cover - logging must never mask faults
            pass

    @classmethod
    def from_rates(
        cls,
        seed: int,
        n_chunks: int,
        *,
        crash_rate: float = 0.0,
        hang_rate: float = 0.0,
        die_rate: float = 0.0,
        corrupt_rate: float = 0.0,
        hang_seconds: float = 3600.0,
        log_path: str | None = None,
    ) -> "FaultPlan":
        """A seeded plan: each chunk independently draws one fault.

        Rates are probabilities per chunk, evaluated in the order
        crash → hang → die → corrupt (a chunk gets at most one fault).
        Crashes, hangs, and deaths are transient first-attempt,
        worker-scoped faults; corruption is persistent (``attempt=0``)
        and fires in the fallback too (``scope="any"``).
        """
        rng = random.Random(seed)
        faults: list[FaultSpec] = []
        for index in range(n_chunks):
            draw = rng.random()
            if draw < crash_rate:
                faults.append(FaultSpec("crash", index))
            elif draw < crash_rate + hang_rate:
                faults.append(
                    FaultSpec("hang", index, hang_seconds=hang_seconds)
                )
            elif draw < crash_rate + hang_rate + die_rate:
                faults.append(FaultSpec("die", index))
            elif draw < crash_rate + hang_rate + die_rate + corrupt_rate:
                faults.append(
                    FaultSpec("corrupt", index, attempt=0, scope="any")
                )
        return cls(tuple(faults), log_path)


# -- durability faults -----------------------------------------------------

_DURABILITY_KINDS = ("kill", "torn_write", "disk_full")


@dataclass(frozen=True)
class DurabilityFaultSpec:
    """One planned process-level fault at a named daemon hook point.

    ``point`` names a ``fault_hook`` position — the checkpoint store
    fires ``"checkpoint_begin"`` / ``"checkpoint_payload"`` /
    ``"checkpoint_written"``, the daemon fires ``"window_emitted"`` —
    and ``occurrence`` selects which visit triggers (1-based; 0 fires
    on every visit). Kinds:

    * ``"kill"`` — ``SIGKILL`` the current process (no cleanup, no
      atexit, no flushing: the honest crash).
    * ``"torn_write"`` — write ``tear_bytes`` of garbage to
      ``tear_path`` (a half-written ``*.tmp``), then ``SIGKILL``:
      the on-disk debris of dying inside a tmp-file write.
    * ``"disk_full"`` — raise ``OSError(ENOSPC)`` so failure-policy
      handling (retry / degrade / fail_fast) is exercised in-process.
    """

    kind: str
    point: str
    occurrence: int = 1  # 0 = every visit to the point
    tear_path: str | None = None
    tear_bytes: int = 64

    def __post_init__(self) -> None:
        if self.kind not in _DURABILITY_KINDS:
            raise ValueError(f"unknown durability fault kind {self.kind!r}")
        if self.kind == "torn_write" and not self.tear_path:
            raise ValueError("torn_write faults need a tear_path")


class DurabilityFaultPlan:
    """Callable ``fault_hook`` firing specs at exact hook visits.

    Unlike :class:`FaultPlan` this one is stateful (it counts visits
    per point), so build a fresh plan per run. Fired faults are logged
    to ``log_path`` / ``$REPRO_FAULT_LOG`` *before* any kill, so the
    log records the death that is about to happen.
    """

    def __init__(
        self,
        faults: tuple[DurabilityFaultSpec, ...] = (),
        log_path: str | None = None,
    ) -> None:
        self.faults = tuple(faults)
        self.log_path = log_path
        self._visits: dict[str, int] = {}

    def __call__(self, point: str) -> None:
        visit = self._visits.get(point, 0) + 1
        self._visits[point] = visit
        for fault in self.faults:
            if fault.point != point:
                continue
            if fault.occurrence not in (0, visit):
                continue
            self._log(fault, visit)
            self._fire(fault)

    def _fire(self, fault: DurabilityFaultSpec) -> None:
        if fault.kind == "disk_full":
            raise OSError(errno.ENOSPC, "injected disk full", fault.point)
        if fault.kind == "torn_write" and fault.tear_path:
            # The torn temporary a real crash inside atomic_write_bytes
            # leaves behind: partial bytes, no rename, no fsync.
            try:
                with open(fault.tear_path, "wb") as handle:
                    handle.write(b"\xde\xad" * (fault.tear_bytes // 2))
            except OSError:
                pass
        # kill and torn_write both end here: a real SIGKILL, so no
        # finally blocks, context managers, or atexit hooks run.
        os.kill(os.getpid(), signal.SIGKILL)  # pragma: no cover

    def _log(self, fault: DurabilityFaultSpec, visit: int) -> None:
        path = self.log_path or os.environ.get(FAULT_LOG_ENV)
        if not path:
            return
        try:
            with open(path, "a") as handle:
                handle.write(
                    f"pid={os.getpid()} point={fault.point} "
                    f"visit={visit} kind={fault.kind}\n"
                )
                handle.flush()
                os.fsync(handle.fileno())
        except OSError:  # pragma: no cover - logging must never mask faults
            pass


# -- ingest corruption ----------------------------------------------------


def _mutate(line: str, mode: str, rng: random.Random) -> str:
    if mode == "truncate":
        return line[: max(1, len(line) // 2)]
    if mode == "garbage":
        length = rng.randint(5, 20)
        return "".join(
            rng.choice("!@#$%^&*qzxjv0123456789") for _ in range(length)
        )
    raise ValueError(f"unknown corruption mode {mode!r}")


def corrupt_file(
    path,
    *,
    positions: tuple[int, ...] = (),
    rate: float = 0.0,
    seed: int = 0,
    mode: str = "truncate",
    skip_lines: int = 1,
) -> list[int]:
    """Deterministically corrupt lines of a text file, in place.

    ``positions`` are explicit 1-based line numbers; ``rate`` adds a
    seeded per-line corruption probability over the remaining lines.
    The first ``skip_lines`` lines (headers) are never rate-corrupted.
    Returns the sorted line numbers actually corrupted, so tests can
    assert quarantine reports against the exact damage done.
    """
    rng = random.Random(seed)
    with open(path) as handle:
        lines = handle.read().splitlines()
    wanted = set(positions)
    corrupted: list[int] = []
    for number in range(1, len(lines) + 1):
        hit = number in wanted
        if not hit and rate > 0.0 and number > skip_lines:
            hit = rng.random() < rate
        if hit:
            lines[number - 1] = _mutate(lines[number - 1], mode, rng)
            corrupted.append(number)
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    return corrupted
