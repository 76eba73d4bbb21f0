"""repro.telemetry — stdlib-only tracing, metrics, and structured logs.

Three small pieces, threaded through every layer of the system:

- :mod:`repro.telemetry.spans` — nested span context managers with
  monotonic durations, recorded to a per-process JSONL trace and
  exportable to Chrome/Perfetto ``trace.json``
  (``repro telemetry export``);
- :mod:`repro.telemetry.metrics` — a process-local registry of
  counters/gauges/histograms whose snapshots merge, so workers ship
  them over the wire and the coordinator folds a fleet-wide view;
- :mod:`repro.telemetry.logs` — JSON-line structured logging and the
  shared :func:`configure_telemetry` entrypoint behind the CLI's
  ``--log-level`` / ``--trace`` flags.

Everything is off by default and stays off-path cheap: ``span(...)``
returns a shared no-op until a trace writer is installed, and no
writer is ever allocated unless ``--trace`` (or
:func:`~repro.telemetry.spans.configure_tracing`) asks for one.
"""

from repro.telemetry.logs import (
    JsonLineFormatter,
    configure_telemetry,
    get_logger,
    telemetry_log_level,
)
from repro.telemetry.metrics import (
    DEFAULT_SECONDS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_metrics,
    merge_snapshots,
)
from repro.telemetry.spans import (
    Span,
    TraceWriter,
    adopt_context,
    configure_tracing,
    current_context,
    export_chrome_trace,
    open_spans,
    shutdown_tracing,
    span,
    timed_span,
    trace_writer,
    write_chrome_trace,
)

__all__ = [
    "Counter",
    "DEFAULT_SECONDS_BUCKETS",
    "Gauge",
    "Histogram",
    "JsonLineFormatter",
    "MetricsRegistry",
    "Span",
    "TraceWriter",
    "adopt_context",
    "configure_telemetry",
    "configure_tracing",
    "current_context",
    "export_chrome_trace",
    "get_logger",
    "get_metrics",
    "merge_snapshots",
    "open_spans",
    "shutdown_tracing",
    "span",
    "telemetry_log_level",
    "telemetry_snapshot",
    "timed_span",
    "trace_writer",
    "write_chrome_trace",
]


def telemetry_snapshot() -> dict:
    """The per-process snapshot workers piggyback on wire requests:
    the merged metrics plus the slowest currently-open spans."""

    return {"metrics": get_metrics().to_dict(), "open_spans": open_spans()}
