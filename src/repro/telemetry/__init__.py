"""Unified telemetry: hierarchical tracing, metrics, and run reports.

One layer every subsystem emits into (see DESIGN.md §9):

* :class:`Tracer` — nested spans (step → RK4 stage → Alg.-1 phase →
  halo exchange / regrid) in a preallocated ring buffer, exported as
  Chrome trace-event JSON viewable in Perfetto;
* :class:`MetricsRegistry` — counters, gauges, and fixed-bucket
  histograms with JSONL snapshots that round-trip;
* :class:`TelemetrySink` — one run, one self-describing directory
  (``trace.json`` / ``metrics.jsonl`` / ``events.jsonl`` /
  ``meta.json``); the :class:`repro.perf.StepProfiler`,
  :class:`repro.resilience.RunJournal`, and GPU counter paths all
  publish into it under one event schema;
* :mod:`~repro.telemetry.fleet` — campaign-wide observability
  (DESIGN.md §13): :class:`TelemetryShipper` turns worker registries
  into bounded loss-counted deltas shipped over the fabric RPC;
  :class:`FleetAggregator` merges them (counters summed, histograms
  bucket-merged, gauges last-write-wins per worker) into windowed
  crash-safe JSONL rollups with an SLO/anomaly rule scan;
  :func:`assemble_campaign_trace` builds the one-lane-per-worker
  Perfetto view with clock-skew normalisation;
* ``python -m repro.telemetry`` — ``record`` / ``summarize`` /
  ``export-trace`` over run directories.

Performance across changes is judged by the perf ledger
(``benchmarks/ledger/``), not here.
"""

from .fleet import (
    DELTA_SCHEMA,
    ROLLUP_SCHEMA,
    FleetAggregator,
    MergeConflict,
    SLORules,
    TelemetryShipper,
    assemble_campaign_trace,
    load_rollups,
    merge_gauge,
    merge_histogram,
    sum_run_dir_counters,
)
from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    METRICS_SCHEMA,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    load_snapshots,
    quantile_from_dict,
    registry_from_snapshot,
    write_snapshot,
)
from .sink import (
    EVENTS_FILE,
    META_FILE,
    METRICS_FILE,
    RUN_SCHEMA,
    TRACE_FILE,
    TelemetrySink,
    read_events,
)
from .tracer import TRACE_SCHEMA, Tracer, merge_chrome_traces

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "DELTA_SCHEMA",
    "EVENTS_FILE",
    "META_FILE",
    "METRICS_FILE",
    "METRICS_SCHEMA",
    "ROLLUP_SCHEMA",
    "RUN_SCHEMA",
    "TRACE_FILE",
    "TRACE_SCHEMA",
    "Counter",
    "FleetAggregator",
    "Gauge",
    "Histogram",
    "MergeConflict",
    "MetricsRegistry",
    "SLORules",
    "TelemetryShipper",
    "TelemetrySink",
    "Tracer",
    "assemble_campaign_trace",
    "load_rollups",
    "load_snapshots",
    "merge_chrome_traces",
    "merge_gauge",
    "merge_histogram",
    "quantile_from_dict",
    "read_events",
    "registry_from_snapshot",
    "sum_run_dir_counters",
    "write_snapshot",
]
