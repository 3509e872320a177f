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

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "repro.obs.metrics": ("MetricsRegistry", "collect_run_metrics"),
    "repro.obs.spans": ("MultiTracer", "Span", "SpanRecorder",
                        "merge_span_aggregates", "record_span_metrics"),
    "repro.obs.export": ("SPAN_SCHEMA_VERSION", "aborted_fraction",
                         "chrome_trace", "chrome_trace_events",
                         "load_spans_jsonl", "render_timeline",
                         "spans_to_jsonl", "summary_by_label",
                         "validate_span_log", "write_chrome_trace"),
    "repro.obs.profile": ("CycleProfiler", "collapsed_stacks",
                          "phase_shares"),
    "repro.obs.provenance": ("ProvenanceReport", "blame_table",
                             "build_provenance", "merge_provenance",
                             "record_provenance_metrics"),
    "repro.obs.report": ("abort_attribution", "conflict_heatmap",
                         "metrics_table", "phase_table",
                         "version_occupancy"),
    "repro.obs.live": ("TIMESERIES_SCHEMA_VERSION", "AnomalyDetector",
                       "TimeSeriesSampler", "TimeSeriesWriter",
                       "load_timeseries_jsonl", "merge_timeseries",
                       "merge_windows", "timeseries_to_jsonl",
                       "validate_timeseries"),
    "repro.obs.flight": ("FLIGHT_SCHEMA_VERSION", "FlightRecorder",
                         "flight_path", "load_flight", "validate_flight"),
    "repro.obs.monitor": ("CampaignMonitor", "sparkline"),
    "repro.obs.prom": ("prometheus_exposition",),
})
