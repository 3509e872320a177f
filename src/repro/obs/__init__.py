"""``repro.obs`` — the run-telemetry subsystem.

Low-overhead observability wired through every layer of the
reproduction:

* :mod:`repro.obs.metrics` — labeled counter/gauge/histogram registry
  the engine, TM systems and MVM controller emit into;
* :mod:`repro.obs.spans` — per-transaction lifecycle spans
  (:class:`SpanRecorder`, the attempt ledger; retention is its ``cap``
  parameter) and tracer fan-out (:class:`MultiTracer`);
* :mod:`repro.obs.export` — JSONL span logs, Perfetto-loadable
  Chrome traces and ASCII Gantt timelines over spans;
* :mod:`repro.obs.profile` — deterministic cycle-attribution profiler
  (:class:`CycleProfiler`), conservation-checked phase accounting with
  collapsed-stack (flamegraph) export;
* :mod:`repro.obs.provenance` — killer→victim conflict graph, the
  wasted-work ledger and the decisive/cascading/self-inflicted abort
  classification behind ``sitm-harness blame``;
* :mod:`repro.obs.report` — abort-attribution, conflict-heatmap,
  cycle-attribution and version-occupancy text reports;
* :mod:`repro.obs.live` — online telemetry: windowed time-series
  sampling (:class:`TimeSeriesSampler`), mergeable window aggregates,
  the versioned JSONL time-series export, and online anomaly rules
  (:class:`AnomalyDetector`);
* :mod:`repro.obs.flight` — crash flight recorder
  (:class:`FlightRecorder`): a bounded ring of recent windows and span
  summaries persisted to ``flight-<digest>.json`` when a run dies;
* :mod:`repro.obs.monitor` — live campaign monitoring
  (:class:`CampaignMonitor`) behind ``sitm-harness watch`` and the
  executor's ``--progress`` stream;
* :mod:`repro.obs.prom` — Prometheus text exposition for any metrics
  snapshot (``sitm-harness metrics --format prom``).

Telemetry is disabled by default; enable it per run with
``ExperimentSpec(telemetry=True)``, ``run_once(..., telemetry=True)``
or the CLI's ``sitm-harness trace`` / ``sitm-harness metrics``
commands; profiling likewise via ``profiling=True`` or ``sitm-harness
profile``.  See ``docs/observability.md`` for the metrics catalogue,
span schema and profiler phases.
"""

from repro.obs.metrics import MetricsRegistry, collect_run_metrics
from repro.obs.spans import (MultiTracer, Span, SpanRecorder,
                             merge_span_aggregates)
from repro.obs.export import (SPAN_SCHEMA_VERSION, aborted_fraction,
                              chrome_trace, chrome_trace_events,
                              load_spans_jsonl, render_timeline,
                              spans_to_jsonl, summary_by_label,
                              validate_span_log, write_chrome_trace)
from repro.obs.profile import (CycleProfiler, collapsed_stacks,
                               phase_shares)
from repro.obs.provenance import (ProvenanceReport, blame_table,
                                  build_provenance, merge_provenance,
                                  record_provenance_metrics)
from repro.obs.report import (abort_attribution, conflict_heatmap,
                              metrics_table, phase_table,
                              version_occupancy)
from repro.obs.live import (TIMESERIES_SCHEMA_VERSION, AnomalyDetector,
                            TimeSeriesSampler, TimeSeriesWriter,
                            load_timeseries_jsonl, merge_timeseries,
                            merge_windows, timeseries_to_jsonl,
                            validate_timeseries)
from repro.obs.flight import (FLIGHT_SCHEMA_VERSION, FlightRecorder,
                              flight_path, load_flight, validate_flight)
from repro.obs.monitor import CampaignMonitor, sparkline
from repro.obs.prom import prometheus_exposition

__all__ = [
    "MetricsRegistry", "collect_run_metrics",
    "MultiTracer", "Span", "SpanRecorder", "merge_span_aggregates",
    "SPAN_SCHEMA_VERSION", "aborted_fraction", "chrome_trace",
    "chrome_trace_events", "load_spans_jsonl", "render_timeline",
    "spans_to_jsonl", "summary_by_label", "validate_span_log",
    "write_chrome_trace",
    "CycleProfiler", "collapsed_stacks", "phase_shares",
    "ProvenanceReport", "blame_table", "build_provenance",
    "merge_provenance", "record_provenance_metrics",
    "abort_attribution", "conflict_heatmap", "metrics_table",
    "phase_table", "version_occupancy",
    "TIMESERIES_SCHEMA_VERSION", "AnomalyDetector", "TimeSeriesSampler",
    "TimeSeriesWriter", "load_timeseries_jsonl", "merge_timeseries",
    "merge_windows", "timeseries_to_jsonl", "validate_timeseries",
    "FLIGHT_SCHEMA_VERSION", "FlightRecorder", "flight_path",
    "load_flight", "validate_flight",
    "CampaignMonitor", "sparkline",
    "prometheus_exposition",
]
