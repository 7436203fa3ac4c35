"""Observability over the simulated clock: spans, histograms, analysis.

Everything here is gated behind ``LogBaseConfig(tracing=True)``: with the
gate off the cluster attaches no tracer to its machines, every span helper
is an ``is None`` check, and the seed cost model runs byte-identically.
With it on, every simulated second charged to one of the cluster's
machine clocks is attributed to the innermost open span, so a trace tree
explains where an operation's latency went — client RPC, tablet server,
WAL, DFS replication, disk — without storing per-sample data (histograms
keep fixed geometric buckets).
"""

from repro.obs.alerts import AlertEngine, SloRule, ThresholdRule
from repro.obs.analyze import (
    TraceLog,
    coverage,
    critical_path,
    format_time_report,
    layer_breakdown,
    where_did_time_go,
)
from repro.obs.export import chrome_trace, export_chrome_trace
from repro.obs.hist import Histogram, HistogramRegistry
from repro.obs.monitor import ClusterMonitor, collect_health_gauges, default_rules
from repro.obs.recorder import FlightRecorder, PostMortem
from repro.obs.timeseries import MetricStore, TimeSeries
from repro.obs.trace import (
    Span,
    Tracer,
    current_span,
    root_span,
    span,
)

__all__ = [
    "AlertEngine",
    "ClusterMonitor",
    "FlightRecorder",
    "Histogram",
    "HistogramRegistry",
    "MetricStore",
    "PostMortem",
    "SloRule",
    "Span",
    "ThresholdRule",
    "TimeSeries",
    "TraceLog",
    "Tracer",
    "collect_health_gauges",
    "default_rules",
    "chrome_trace",
    "coverage",
    "critical_path",
    "current_span",
    "export_chrome_trace",
    "format_time_report",
    "layer_breakdown",
    "root_span",
    "span",
    "where_did_time_go",
]
