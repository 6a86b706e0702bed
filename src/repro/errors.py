"""Unified exception taxonomy and the quarantine report.

Every failure the pipeline can surface derives from :class:`ReproError`
and carries *structured* context (chunk index, file and line number,
member ASN, …) next to the human-readable message, so supervisors and
operators can route on fields instead of parsing strings:

* :class:`IngestError` — a reader rejected an input record. Also a
  ``ValueError`` so historical ``except ValueError`` call sites keep
  working.
* :class:`ClassificationError` — a classification chunk failed
  in-process.
* :class:`WorkerError` — a pool worker crashed, hung past its timeout,
  or exhausted its retry budget while classifying a chunk.
* :class:`DurabilityError` — the durable watch pipeline could not
  uphold its persistence contract (checkpoint write failures past the
  retry budget). Its two corruption subtypes name the
  artefact that failed verification: :class:`WalCorruptionError` for a
  damaged write-ahead-log record mid-segment,
  :class:`CheckpointCorruptionError` when *no* stored checkpoint
  survives integrity checks (``repro watch --resume`` exits 4 on it).
  Durable readers translate :data:`UNPICKLE_ERRORS` from ``pickle``
  into these two rather than letting them escape.

The lenient ingest mode (``on_error="quarantine"``) collects rejected
records into a :class:`Quarantine` instead of aborting: every bad line
number is kept, raw samples are capped so a pathologically corrupt
file cannot balloon memory.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass


class ReproError(Exception):
    """Root of the library's exception hierarchy.

    Keyword arguments beyond the message become the structured
    ``context`` mapping; ``None`` values are dropped so callers can
    pass through optional fields unconditionally.
    """

    def __init__(self, message: str = "", **context: object) -> None:
        super().__init__(message)
        self.context = {k: v for k, v in context.items() if v is not None}

    def __str__(self) -> str:
        base = super().__str__()
        if not self.context:
            return base
        detail = ", ".join(f"{k}={v!r}" for k, v in self.context.items())
        return f"{base} [{detail}]" if base else f"[{detail}]"


class IngestError(ReproError, ValueError):
    """A reader rejected an input record (bad row, record, or header)."""

    def __init__(
        self,
        message: str = "",
        *,
        path: str | None = None,
        line_number: int | None = None,
        **context: object,
    ) -> None:
        super().__init__(
            message, path=path, line_number=line_number, **context
        )

    @property
    def path(self) -> str | None:
        return self.context.get("path")

    @property
    def line_number(self) -> int | None:
        return self.context.get("line_number")


class ClassificationError(ReproError):
    """A classification chunk failed (in-process or beyond recovery)."""

    def __init__(
        self,
        message: str = "",
        *,
        chunk_index: int | None = None,
        member_asn: int | None = None,
        **context: object,
    ) -> None:
        super().__init__(
            message, chunk_index=chunk_index, member_asn=member_asn, **context
        )

    @property
    def chunk_index(self) -> int | None:
        return self.context.get("chunk_index")


class WorkerError(ClassificationError):
    """A pool worker crashed, hung, or exhausted its retry budget."""

    def __init__(
        self,
        message: str = "",
        *,
        chunk_index: int | None = None,
        attempts: int | None = None,
        **context: object,
    ) -> None:
        super().__init__(
            message, chunk_index=chunk_index, attempts=attempts, **context
        )

    @property
    def attempts(self) -> int | None:
        return self.context.get("attempts")


class DurabilityError(ReproError):
    """The durable watch pipeline broke its persistence contract."""

    def __init__(
        self,
        message: str = "",
        *,
        path: str | None = None,
        **context: object,
    ) -> None:
        super().__init__(message, path=path, **context)

    @property
    def path(self) -> str | None:
        return self.context.get("path")


class WalCorruptionError(DurabilityError):
    """A write-ahead-log record failed its checksum mid-segment.

    A torn *tail* record in the newest segment is expected after a
    crash and silently tolerated on replay; corruption anywhere else
    means the log cannot be trusted and raises this.
    """

    def __init__(
        self,
        message: str = "",
        *,
        path: str | None = None,
        seq: int | None = None,
        **context: object,
    ) -> None:
        super().__init__(message, path=path, seq=seq, **context)

    @property
    def seq(self) -> int | None:
        return self.context.get("seq")


class CheckpointCorruptionError(DurabilityError):
    """Every stored checkpoint failed verification (unrecoverable).

    Raised only after falling back through *all* retained checkpoint
    generations; a single damaged newest checkpoint silently falls
    back to the previous one instead.
    """


#: What ``pickle.loads`` raises on bytes that are not a pickle of
#: importable objects: malformed opcodes or a truncated stream, a module
#: or class that no longer exists, a constructor refusing its arguments.
UNPICKLE_ERRORS: tuple[type[Exception], ...] = (
    pickle.UnpicklingError,
    EOFError,
    ImportError,
    AttributeError,
    IndexError,
    KeyError,
    TypeError,
    ValueError,
)


# -- quarantine -----------------------------------------------------------


@dataclass(slots=True)
class QuarantinedRecord:
    """One rejected input record: where, why, and (capped) what."""

    line_number: int
    reason: str
    raw: str = ""


class Quarantine:
    """Collects records a lenient reader rejected instead of aborting.

    Every bad line number is recorded (``line_numbers``); raw record
    samples are capped at ``max_samples`` and truncated to 200
    characters each, so quarantining a badly corrupt multi-gigabyte
    file stays O(bad lines) small.
    """

    def __init__(self, source: str = "", max_samples: int = 20) -> None:
        self.source = source
        self.max_samples = max_samples
        self.line_numbers: list[int] = []
        self.reasons: dict[str, int] = {}
        self.samples: list[QuarantinedRecord] = []

    @property
    def count(self) -> int:
        return len(self.line_numbers)

    def add(self, line_number: int, reason: str, raw: str = "") -> None:
        self.line_numbers.append(line_number)
        self.reasons[reason] = self.reasons.get(reason, 0) + 1
        if len(self.samples) < self.max_samples:
            self.samples.append(
                QuarantinedRecord(line_number, reason, raw[:200])
            )

    def __bool__(self) -> bool:
        return bool(self.line_numbers)

    def __len__(self) -> int:
        return self.count

    def render(self) -> str:
        """Plain-text report (what the CLI prints to stderr)."""
        source = f" from {self.source}" if self.source else ""
        lines = [f"quarantined {self.count} record(s){source}"]
        for reason, count in sorted(self.reasons.items()):
            lines.append(f"  {count:>6}  {reason}")
        for record in self.samples:
            raw = f"  {record.raw!r}" if record.raw else ""
            lines.append(f"  line {record.line_number}: {record.reason}{raw}")
        if self.count > len(self.samples):
            lines.append(
                f"  ({self.count - len(self.samples)} further record(s) "
                "not sampled)"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Quarantine({self.count} records, source={self.source!r})"
