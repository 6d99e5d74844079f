"""Measurement and reporting: pause percentiles and histograms, the
HotSpot-style GC log, and text-table rendering."""

from repro.metrics.gclog import (
    GcLogRecord,
    format_pause,
    kind_for_cause,
    parse_line,
    parse_log,
    render_log,
)
from repro.metrics.pauses import (
    DEFAULT_INTERVALS_MS,
    DEFAULT_PERCENTILES,
    duration_histogram,
    percentile,
    percentile_profile,
    tail_reduction,
)
from repro.metrics.report import (
    render_histogram_series,
    render_percentile_series,
    render_table,
)

__all__ = [
    "DEFAULT_INTERVALS_MS",
    "DEFAULT_PERCENTILES",
    "GcLogRecord",
    "format_pause",
    "kind_for_cause",
    "parse_line",
    "parse_log",
    "render_log",
    "duration_histogram",
    "percentile",
    "percentile_profile",
    "render_histogram_series",
    "render_percentile_series",
    "render_table",
    "tail_reduction",
]
