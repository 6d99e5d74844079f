"""Tests for the Lucene-like workload: RAM buffer, segment flush,
merges, retention, and query mix."""

import pytest

from repro.workloads.base import run_workload
from repro.workloads.search import LuceneWorkload, Segment


def small_workload(**kwargs):
    defaults = dict(
        ram_buffer_bytes=256 << 10,
        merge_factor=2,
        max_open_segments=4,
        worker_threads=2,
        dictionary_size=500,
    )
    defaults.update(kwargs)
    return LuceneWorkload(**defaults)


class TestMix:
    def test_default_write_fraction_matches_paper(self):
        assert LuceneWorkload().write_fraction == pytest.approx(0.80)

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            LuceneWorkload(write_fraction=1.5)

    def test_both_op_types_run(self):
        workload = small_workload()
        run_workload(workload, "g1", operations=2000, heap_mb=32)
        assert workload.docs_indexed > 0
        assert workload.queries_run > 0
        assert workload.docs_indexed > workload.queries_run


class TestSegmentLifecycle:
    def test_flush_creates_segment_and_kills_ram_blocks(self):
        workload = small_workload()
        run_workload(workload, "g1", operations=2000, heap_mb=32)
        assert workload.flushes >= 1
        assert workload.ram_bytes < workload.ram_buffer_bytes

    def test_merges_reduce_segment_count(self):
        workload = small_workload()
        run_workload(workload, "g1", operations=6000, heap_mb=32)
        assert workload.merges >= 1
        level1 = [s for s in workload.segments if s.level >= 1]
        assert level1 or workload.merges > 0

    def test_retention_bounds_open_segments(self):
        workload = small_workload(max_open_segments=3)
        run_workload(workload, "g1", operations=8000, heap_mb=32)
        assert len(workload.segments) <= 3

    def test_closed_segment_objects_die(self):
        from repro.heap.object_model import SimObject

        segment = Segment()
        obj = SimObject(64, 0)
        segment.add(obj)
        segment.close(5000)
        assert not obj.is_live(5000)
        assert segment.objects == []


class TestProfiling:
    def test_store_filter_matches_paper(self):
        assert LuceneWorkload.profiled_packages == ("org.apache.lucene.store",)

    def test_rolp_learns_ram_buffer_lifetime(self):
        workload = small_workload()
        run_workload(workload, "rolp", operations=15_000, heap_mb=32)
        profiler = workload.vm.profiler
        # the RAMFile append site is instrumented and eventually advised
        assert workload.m_ram_append.instrumented
        assert profiler.inference.passes_run >= 1

    def test_query_path_outside_filter(self):
        workload = small_workload()
        run_workload(workload, "rolp", operations=5000, heap_mb=32)
        assert not workload.m_query.instrumented
