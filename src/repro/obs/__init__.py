"""Unified observability: tracing spans, metrics, run manifests.

Three cooperating pieces answer "where did this run spend its time,
memory and retries — and which exact inputs produced this artefact?":

* :mod:`repro.obs.trace` — a :class:`Tracer` of nestable spans
  (``with trace("classify.invalid", rows=n):``) whose picklable
  :class:`SpanRecord` s accumulate per chunk in pool workers and merge
  on the supervisor. Spans are the only timing ledger: a stage table
  is :func:`span_totals` over a run's records.
* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of counters,
  gauges and histograms (rows per class, retries, quarantined lines,
  peak RSS, chunk-latency percentiles) with JSON-lines export.
* :mod:`repro.obs.manifest` — a :class:`RunManifest` capturing
  command, config, input digests, git SHA, versions, run counters,
  spans, metrics and outcome, written next to every
  CLI/experiment/benchmark output and rendered back by
  ``repro trace show``.

Tracing is disabled by default and costs <2% when off (benchmarked);
enable it with :func:`enable_tracing` or the CLI's ``--trace``. See
``docs/OBSERVABILITY.md`` for the full schema and a worked example.
"""

from repro.obs.manifest import (
    RunManifest,
    current_git_sha,
    file_digest,
    manifest_path_for,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    current_metrics,
    peak_rss_bytes,
    set_metrics,
)
from repro.obs.trace import (
    SpanRecord,
    SpanTotal,
    Tracer,
    current_tracer,
    enable_tracing,
    render_spans,
    set_tracer,
    span_totals,
    trace,
    tracing_enabled,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RunManifest",
    "SpanRecord",
    "SpanTotal",
    "Tracer",
    "current_git_sha",
    "current_metrics",
    "current_tracer",
    "enable_tracing",
    "file_digest",
    "manifest_path_for",
    "peak_rss_bytes",
    "render_spans",
    "set_metrics",
    "set_tracer",
    "span_totals",
    "trace",
    "tracing_enabled",
]
