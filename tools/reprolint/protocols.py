"""Declarative resource-protocol state machines for the RL3xx rules.

Policy-as-data, like :class:`~tools.reprolint.context.LintConfig`: each
:class:`ProtocolSpec` names the states a resource moves through, the
call patterns that fire events, the legal transitions, and which
(state, event) pairs or exit states are violations. The dataflow rules
in :mod:`tools.reprolint.checks.dataflow_rules` interpret these
machines statically over the CFG (:mod:`tools.reprolint.dataflow`);
the runtime :class:`~repro.testing.sanitizer.ProtocolSanitizer`
asserts the same machines dynamically under ``REPRO_SANITIZE=1``
(``tests/test_sanitizer.py`` keeps the two in sync by name).

``protocols_digest()`` folds the full spec table into the result-cache
config digest, so editing a protocol invalidates cached findings the
same way editing ``LintConfig`` does.

Call patterns match a resolved dotted call name (via
:func:`tools.reprolint.checks._astutil.resolve_call_name`) either
exactly or by final component, so ``from pools import make_pool`` and
``pools.make_pool(...)`` both fire the same event.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

__all__ = [
    "ProtocolSpec",
    "PROTOCOLS",
    "WAL_COMMIT",
    "SUPERVISED_POOL",
    "protocols_digest",
]


@dataclasses.dataclass(frozen=True)
class ProtocolSpec:
    """One resource protocol: states, events, transitions, violations.

    Everything is tuples-of-tuples so the spec is hashable, comparable
    and digestable; rules unpack the pair lists into dicts at load
    time.
    """

    #: Stable protocol name (shared with the runtime sanitizer).
    name: str
    #: The RL3xx rule that enforces this protocol statically.
    rule: str
    #: One-line contract statement, quoted in findings and docs.
    description: str
    #: Every state a tracked resource can be in.
    states: tuple[str, ...]
    #: ``(event, (call patterns...), subject)`` — the call shapes that
    #: fire each event. ``subject`` says where the tracked resource is
    #: in the call: ``"result"`` (assignment target acquires),
    #: ``"arg0"`` (first positional argument) or ``"receiver"`` (the
    #: ``x`` of ``x.method()``).
    events: tuple[tuple[str, tuple[str, ...], str], ...] = ()
    #: ``(event, state)`` — state a fresh resource enters when an
    #: acquire event's result is bound to a local name.
    initial: tuple[tuple[str, str], ...] = ()
    #: ``(state, event, next_state)`` — legal moves; ``"*"`` matches
    #: any current state.
    transitions: tuple[tuple[str, str, str], ...] = ()
    #: ``(state, event, message)`` — firing ``event`` while in
    #: ``state`` is a violation.
    event_errors: tuple[tuple[str, str, str], ...] = ()
    #: ``(state, message)`` — a resource still in ``state`` when the
    #: function can exit on an exception edge is a violation.
    exc_exit_errors: tuple[tuple[str, str], ...] = ()
    #: Free-form extra options ``(key, (values...))`` for obligation-
    #: style protocols (mode parameters, receiver hints, sink names).
    options: tuple[tuple[str, tuple[str, ...]], ...] = ()

    def option(self, key: str) -> tuple[str, ...]:
        """The values stored under ``key`` (empty when absent)."""
        for name, values in self.options:
            if name == key:
                return values
        return ()


#: RL302 — WAL/checkpoint commit ordering. A rename in the durable
#: rename scope must be dominated by an fsync (directly, or via a
#: helper with fsync effect) on every non-exempt path; a checkpoint
#: ``save`` must be dominated by a WAL ``sync``. Paths on the false
#: side of a configured durability-mode parameter (``durable=False``
#: advisory writes) are exempt by declaration.
WAL_COMMIT = ProtocolSpec(
    name="wal-commit",
    rule="RL302",
    description=(
        "commit ordering: fsync before rename on every durable path; "
        "wal.sync() before checkpoint save (the checkpoint must never "
        "outrun the log)"
    ),
    states=("dirty", "synced"),
    options=(
        ("sync_calls", ("os.fsync", "fsync")),
        ("sync_methods", ("sync", "_sync_locked")),
        ("dirty_methods", ("append",)),
        ("dirty_receivers", ("wal",)),
        ("rename_sinks", ("os.replace", "os.rename")),
        ("save_methods", ("save",)),
        (
            "save_receivers",
            ("store", "checkpoints", "checkpoint_store", "ckpt"),
        ),
        ("mode_params", ("durable",)),
    ),
)

#: RL303 — supervised pool lifecycle. Pools built by the configured
#: factory helpers are armed against a state version: a rebuilt pool
#: must see a version re-arm before the next submit, a terminated
#: pool must never be submitted to again, ``join()`` needs a drained
#: pool, and a pool still running when the function exits on an
#: exception edge leaves its worker processes behind.
SUPERVISED_POOL = ProtocolSpec(
    name="supervised-pool",
    rule="RL303",
    description=(
        "supervised pool lifecycle: arm against a state version, "
        "drain (terminate+join) before rebuild and on every exception "
        "path, version-aware re-arm before reuse, no submit to a "
        "drained pool"
    ),
    states=("armed", "armed_stale", "drained"),
    events=(
        ("arm", (), "result"),  # factory names come from LintConfig
        ("drain", ("terminate", "close"), "receiver"),
        ("join", ("join",), "receiver"),
    ),
    initial=(("arm", "armed_stale"),),
    transitions=(
        ("*", "drain", "drained"),
        ("drained", "join", "drained"),
    ),
    event_errors=(
        (
            "drained",
            "submit",
            "submit to a drained pool — terminate()/join() already "
            "reclaimed its workers; rebuild via the factory first",
        ),
        (
            "armed_stale",
            "submit",
            "rebuilt pool used before the armed version was refreshed "
            "— re-read the state version right after the factory so "
            "resubmitted chunks run against the state the pool "
            "actually snapshot",
        ),
        (
            "armed",
            "join",
            "join() on a running pool — Pool.join() raises until "
            "close() or terminate() has drained it",
        ),
        (
            "armed_stale",
            "join",
            "join() on a running pool — Pool.join() raises until "
            "close() or terminate() has drained it",
        ),
    ),
    exc_exit_errors=(
        (
            "armed",
            "pool can outlive the call on an exception path — its "
            "worker processes keep running; terminate() it in a "
            "finally",
        ),
        (
            "armed_stale",
            "pool can outlive the call on an exception path — its "
            "worker processes keep running; terminate() it in a "
            "finally",
        ),
    ),
)

#: Every shipped protocol, in rule order.
PROTOCOLS: tuple[ProtocolSpec, ...] = (
    WAL_COMMIT,
    SUPERVISED_POOL,
)


def protocols_digest(
    protocols: tuple[ProtocolSpec, ...] | None = None,
) -> str:
    """Stable digest over the protocol table (cache invalidation)."""
    table = PROTOCOLS if protocols is None else protocols
    blob = json.dumps(
        [dataclasses.asdict(spec) for spec in table],
        sort_keys=True,
        default=str,
    )
    return hashlib.sha256(blob.encode()).hexdigest()
