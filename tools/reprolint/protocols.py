"""Declarative resource protocols for the RL3xx rules.

Policy-as-data, like :class:`~tools.reprolint.context.LintConfig`: a
:class:`ProtocolSpec` names a protocol, the rule that enforces it, and
the call shapes the rule reads (sync calls, rename sinks, save
receivers, the durability-mode parameter). RL302 in
:mod:`tools.reprolint.checks.dataflow_rules` interprets
:data:`WAL_COMMIT` over the CFG (:mod:`tools.reprolint.dataflow`); the
runtime :class:`~repro.testing.sanitizer.ProtocolSanitizer` asserts the
same protocol under ``REPRO_SANITIZE=1`` (``tests/test_sanitizer.py``
checks that every spec here has a runtime mirror of the same name).

``protocols_digest()`` folds the full spec table into the result-cache
config digest, so editing a protocol invalidates cached findings the
same way editing ``LintConfig`` does.

Call patterns match a resolved dotted call name (via
:func:`tools.reprolint.checks._astutil.resolve_call_name`) either
exactly or by final component, so ``from os import fsync`` and
``os.fsync(...)`` both count as a sync.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

__all__ = [
    "ProtocolSpec",
    "PROTOCOLS",
    "WAL_COMMIT",
    "protocols_digest",
]


@dataclasses.dataclass(frozen=True)
class ProtocolSpec:
    """One resource protocol: its name, rule and call-shape options.

    Everything is tuples-of-tuples so the spec is hashable, comparable
    and digestable.
    """

    #: Stable protocol name (shared with the runtime sanitizer).
    name: str
    #: The rule that enforces this protocol statically.
    rule: str
    #: One-line contract statement, quoted in findings and docs.
    description: str
    #: Options ``(key, (values...))``: mode parameters, receiver
    #: hints, sink names.
    options: tuple[tuple[str, tuple[str, ...]], ...] = ()

    def option(self, key: str) -> tuple[str, ...]:
        """The values stored under ``key`` (empty when absent)."""
        for name, values in self.options:
            if name == key:
                return values
        return ()


#: RL302 — WAL/checkpoint commit ordering. A rename in the durable
#: scope must be dominated by an fsync (directly, or via a
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
    options=(
        ("sync_calls", ("os.fsync", "fsync")),
        ("sync_methods", ("sync", "_sync_pending")),
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

#: Every shipped protocol, in rule order.
PROTOCOLS: tuple[ProtocolSpec, ...] = (WAL_COMMIT,)


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
