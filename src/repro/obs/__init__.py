"""Observability for the HIDE reproduction: metrics, tracing, exporters.

The subsystem is zero-dependency and pull-based: simulator components
keep their cheap native counters, :mod:`repro.obs.collectors` reads
them as metric rows on demand (a live ``/metrics`` scrape pulls them
afresh and sorts them), and :mod:`repro.obs.exporters` renders rows
for Prometheus scrapers, JSONL post-processing, or run reports. Live
instrumentation (spans and events) goes through a tracer; the default
:data:`NULL_TRACER` keeps the hot path at one attribute check.

The names below are re-exported lazily, so importing one submodule
(say :mod:`repro.obs.metrics`) does not import the others, nor the
HTTP server behind :class:`MetricsServer`.
"""

from repro._exports import lazy_exports

#: Public name → defining module, imported on first use.
_EXPORTS = {
    "series_key": "repro.obs.metrics",
    "JsonlTracer": "repro.obs.tracing",
    "NULL_TRACER": "repro.obs.tracing",
    "NullTracer": "repro.obs.tracing",
    "read_trace_jsonl": "repro.obs.tracing",
    "read_trace_jsonl_lenient": "repro.obs.tracing",
    "tracer_to_string_buffer": "repro.obs.tracing",
    "TIMESERIES_SCHEMA": "repro.obs.timeseries",
    "TimeseriesRecorder": "repro.obs.timeseries",
    "WindowSample": "repro.obs.timeseries",
    "dtim_window_s": "repro.obs.timeseries",
    "MetricsServer": "repro.obs.server",
    "DiffResult": "repro.obs.diff",
    "MetricDelta": "repro.obs.diff",
    "diff_files": "repro.obs.diff",
    "diff_metrics": "repro.obs.diff",
    "load_metrics_file": "repro.obs.diff",
    "render_diff": "repro.obs.diff",
    "format_for_path": "repro.obs.exporters",
    "render_metrics_jsonl": "repro.obs.exporters",
    "render_metrics_table": "repro.obs.exporters",
    "render_prometheus": "repro.obs.exporters",
    "write_metrics": "repro.obs.exporters",
    "collect_profiler": "repro.obs.collectors",
    "metric_rows": "repro.obs.collectors",
    "PROFILE_SCHEMA": "repro.obs.profiler",
    "AttributionProfiler": "repro.obs.profiler",
    "ProfilerConfig": "repro.obs.profiler",
    "merge_profiles": "repro.obs.profiler",
    "render_profile_table": "repro.obs.profiler",
    "HdrHistogram": "repro.obs.hdr",
    "QUANTILE_LABELS": "repro.obs.hdr",
    "LEDGER_SCHEMA": "repro.obs.ledger",
    "FrameLedger": "repro.obs.ledger",
    "flatten_ledger_document": "repro.obs.ledger",
    "render_ledger": "repro.obs.ledger",
    "SLO_SCHEMA": "repro.obs.slo",
    "ObjectiveResult": "repro.obs.slo",
    "SloReport": "repro.obs.slo",
    "evaluate_slo": "repro.obs.slo",
    "load_slo_spec": "repro.obs.slo",
    "render_slo": "repro.obs.slo",
    "TraceSummary": "repro.obs.summarize",
    "render_summary": "repro.obs.summarize",
    "summarize_trace": "repro.obs.summarize",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
