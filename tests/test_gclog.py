"""Tests for the GC-log emitter/parser."""

import pytest

from repro.gc.collector import PauseEvent
from repro.gc.g1 import G1Collector
from repro.heap import BandwidthModel, RegionHeap
from repro.metrics.gclog import (
    GcLogRecord,
    format_pause,
    parse_line,
    parse_log,
    render_log,
)


def pause(kind="young", number=3, start_ns=1_234_000_000, duration_ns=2_481_000):
    return PauseEvent(
        gc_number=number,
        start_ns=start_ns,
        duration_ns=duration_ns,
        kind=kind,
        bytes_copied=1 << 20,
    )


class TestFormat:
    def test_line_shape(self):
        line = format_pause(pause(), 96, 61, 35)
        assert line == "[1.234s][info][gc] GC(3) Pause Young (normal) 61M->35M(96M) 2.481ms"

    def test_kind_mapping(self):
        assert "Pause Young (mixed)" in format_pause(pause("mixed"), 96, 1, 1)
        assert "Pause Full" in format_pause(pause("full"), 96, 1, 1)
        assert "Pause Mark Start" in format_pause(pause("zgc-mark-start"), 96, 1, 1)

    def test_unknown_kind_fallback(self):
        assert "Pause (weird)" in format_pause(pause("weird"), 96, 1, 1)


class TestRoundtrip:
    def test_parse_formatted_line(self):
        line = format_pause(pause(), 96, 61, 35)
        record = parse_line(line)
        assert record is not None
        assert record.gc_number == 3
        assert record.timestamp_s == pytest.approx(1.234)
        assert record.heap_before_mb == 61
        assert record.heap_after_mb == 35
        assert record.heap_capacity_mb == 96
        assert record.duration_ms == pytest.approx(2.481)

    def test_non_gc_lines_skipped(self):
        text = "\n".join(
            [
                "random stdout noise",
                format_pause(pause(number=1), 96, 10, 5),
                "[1.0s][info][safepoint] not a gc line",
                format_pause(pause(number=2, start_ns=2_000_000_000), 96, 12, 6),
            ]
        )
        records = parse_log(text)
        assert [r.gc_number for r in records] == [1, 2]

    def test_durations_extraction(self):
        records = [
            GcLogRecord(1.0, 1, "Pause Young (normal)", 10, 5, 96, 1.5),
            GcLogRecord(2.0, 2, "Pause Full", 50, 10, 96, 20.0),
        ]
        assert [r.duration_ms for r in records] == [1.5, 20.0]


class TestRenderFromCollector:
    def test_render_real_collector(self):
        collector = G1Collector(
            RegionHeap(8 << 20), BandwidthModel(), young_regions=2
        )
        for _ in range(4096):
            collector.allocate(1024, death_time_ns=collector.clock.now_ns + 1)
            collector.clock.advance_mutator(100)
        text = render_log(collector)
        records = parse_log(text)
        assert len(records) == len(collector.pauses)
        assert [r.gc_number for r in records] == [p.gc_number for p in collector.pauses]
        for record, event in zip(records, collector.pauses):
            assert record.duration_ms == pytest.approx(event.duration_ms, abs=0.001)
