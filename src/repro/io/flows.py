"""FlowTable persistence.

Two formats:

* ``.npz`` — numpy's compressed container, one array per column.
  Lossless and compact; the native interchange format of this library.
* CSV — one row per flow with dotted-quad addresses, for
  interoperability with spreadsheet/awk-grade tooling. Lossless for
  every column (ports, counters, member ASNs, times, truth labels).

The CSV reader is the pipeline's dirtiest boundary — real exports are
full of truncated rows and mangled addresses — so it supports two
failure modes: ``on_error="raise"`` (the default) aborts on the first
bad record with a structured :class:`~repro.errors.IngestError`, and
``on_error="quarantine"`` loads every good row and collects the bad
ones into a :class:`~repro.errors.Quarantine` report instead. A wrong
header is always fatal: without it no column can be trusted.
"""

from __future__ import annotations

import csv
import logging
import pathlib

import numpy as np

from repro.errors import IngestError, Quarantine
from repro.ixp.flows import FlowTable
from repro.net.addr import addr_to_int, int_to_addr
from repro.obs.metrics import current_metrics
from repro.obs.trace import trace

logger = logging.getLogger(__name__)

_CSV_HEADER = (
    "src", "dst", "proto", "src_port", "dst_port", "packets", "bytes",
    "member", "dst_member", "time", "truth",
)

_ON_ERROR = ("raise", "quarantine")


def save_flows_npz(flows: FlowTable, path: str | pathlib.Path) -> None:
    """Write a flow table to a compressed ``.npz`` file."""
    with trace("io.save_flows_npz", rows=len(flows), path=str(path)):
        np.savez_compressed(
            path,
            **{name: getattr(flows, name) for name in _CSV_HEADER},
        )


def load_flows_npz(path: str | pathlib.Path) -> FlowTable:
    """Read a flow table written by :func:`save_flows_npz`."""
    with trace("io.load_flows_npz", path=str(path)):
        with np.load(path) as archive:
            return FlowTable(**{name: archive[name] for name in _CSV_HEADER})


def save_flows_csv(flows: FlowTable, path: str | pathlib.Path) -> None:
    """Write a flow table as CSV with dotted-quad addresses."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_CSV_HEADER)
        for i in range(len(flows)):
            writer.writerow(
                (
                    int_to_addr(int(flows.src[i])),
                    int_to_addr(int(flows.dst[i])),
                    int(flows.proto[i]),
                    int(flows.src_port[i]),
                    int(flows.dst_port[i]),
                    int(flows.packets[i]),
                    int(flows.bytes[i]),
                    int(flows.member[i]),
                    int(flows.dst_member[i]),
                    int(flows.time[i]),
                    int(flows.truth[i]),
                )
            )


def _parse_row(row: list[str]) -> tuple[int, ...]:
    """One CSV row → column values; raises ValueError on any defect."""
    if len(row) != len(_CSV_HEADER):
        raise ValueError(
            f"expected {len(_CSV_HEADER)} fields, got {len(row)}"
        )
    values = [addr_to_int(row[0]), addr_to_int(row[1])]
    for name, text in zip(_CSV_HEADER[2:], row[2:]):
        try:
            values.append(int(text))
        except ValueError:
            raise ValueError(f"bad integer {text!r} in column {name!r}") from None
    return tuple(values)


def load_flows_csv(
    path: str | pathlib.Path,
    *,
    on_error: str = "raise",
    quarantine: Quarantine | None = None,
) -> FlowTable:
    """Read a flow table written by :func:`save_flows_csv`.

    With ``on_error="quarantine"`` malformed rows are collected into
    ``quarantine`` (one is created — and its summary logged — when the
    caller does not pass one) instead of aborting the load.
    """
    if on_error not in _ON_ERROR:
        raise ValueError(f"on_error must be one of {_ON_ERROR}")
    own_quarantine = on_error == "quarantine" and quarantine is None
    if own_quarantine:
        quarantine = Quarantine(source=str(path))
    bad_before = quarantine.count if quarantine is not None else 0
    columns: dict[str, list[int]] = {name: [] for name in _CSV_HEADER}
    # A byte that is not UTF-8 decodes to a lone surrogate, which no
    # column parser accepts: its row is malformed, not the whole file.
    with trace("io.load_flows_csv", path=str(path)), open(
        path, newline="", encoding="utf-8", errors="surrogateescape"
    ) as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise IngestError("empty CSV file", path=str(path), line_number=0)
        if tuple(header) != _CSV_HEADER:
            # Unrecoverable even leniently: no column can be trusted.
            raise IngestError(
                f"unexpected CSV header: {header}",
                path=str(path),
                line_number=reader.line_num,
            )
        for row in reader:
            line_number = reader.line_num
            if not row:
                continue
            try:
                values = _parse_row(row)
            except ValueError as exc:
                if on_error == "raise":
                    raise IngestError(
                        f"malformed CSV row: {exc}",
                        path=str(path),
                        line_number=line_number,
                    ) from exc
                assert quarantine is not None
                quarantine.add(line_number, str(exc), ",".join(row))
                continue
            for name, value in zip(_CSV_HEADER, values):
                columns[name].append(value)
    if quarantine is not None and quarantine.count > bad_before:
        current_metrics().counter("ingest.quarantined_rows").inc(
            quarantine.count - bad_before
        )
    if own_quarantine and quarantine:
        logger.warning("%s", quarantine.render())
    return FlowTable(
        **{name: np.array(values) for name, values in columns.items()}
    )
