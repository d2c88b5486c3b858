"""``repro.obs`` — structured tracing, metrics and profiling.

Zero-dependency observability for the live runtime: nestable spans,
counters/gauges, pluggable sinks, and a shared wall-clock helper.  See
``docs/OBSERVABILITY.md`` for the span model and the metric catalog, and
note that everything here sits *outside* the formal semantics — an
instrumented run and an uninstrumented run are observably identical.
"""

from .histo import (
    BUCKET_BOUNDS,
    BUCKET_SCHEMA,
    NULL_HISTOGRAM,
    Histogram,
    NullHistogram,
    percentile,
)
from .metrics import (
    CONTENT_TYPE as METRICS_CONTENT_TYPE,
    delta_histogram,
    histograms_from_families,
    metric_name,
    parse_prometheus,
    render_prometheus,
)
from .sinks import (
    InMemorySink,
    JsonlSink,
    Sink,
    SpanRecord,
    TextSink,
    filter_trace,
    format_metric_table,
    format_span_tree,
    spans_from_dicts,
)
from .trace import (
    CATALOG,
    GAUGES,
    NULL_TRACER,
    NullTracer,
    Span,
    Stopwatch,
    clock,
)

__all__ = [
    "BUCKET_BOUNDS",
    "BUCKET_SCHEMA",
    "CATALOG",
    "GAUGES",
    "Histogram",
    "InMemorySink",
    "JsonlSink",
    "METRICS_CONTENT_TYPE",
    "NULL_HISTOGRAM",
    "NULL_TRACER",
    "NullHistogram",
    "NullTracer",
    "Sink",
    "Span",
    "SpanRecord",
    "Stopwatch",
    "TextSink",
    "clock",
    "delta_histogram",
    "filter_trace",
    "format_metric_table",
    "format_span_tree",
    "histograms_from_families",
    "metric_name",
    "parse_prometheus",
    "percentile",
    "render_prometheus",
    "spans_from_dicts",
]
