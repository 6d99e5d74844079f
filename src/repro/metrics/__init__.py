"""Measurement and reporting: pause percentiles/histograms, throughput,
memory footprint, and text-table rendering."""

from repro.metrics.gclog import (
    GcLogRecord,
    format_pause,
    kind_for_cause,
    parse_line,
    parse_log,
    render_log,
)
from repro.metrics.memory import MemoryReport, measure
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
from repro.metrics.throughput import ThroughputMeter

__all__ = [
    "DEFAULT_INTERVALS_MS",
    "DEFAULT_PERCENTILES",
    "GcLogRecord",
    "MemoryReport",
    "format_pause",
    "kind_for_cause",
    "parse_line",
    "parse_log",
    "render_log",
    "ThroughputMeter",
    "duration_histogram",
    "measure",
    "percentile",
    "percentile_profile",
    "render_histogram_series",
    "render_percentile_series",
    "render_table",
    "tail_reduction",
]
