"""Tests for the Cassandra-like workload: memtable lifecycle, flush,
compaction, row cache, and the buffer-factory conflict structure."""

import pytest

from repro import build_vm
from repro.workloads.base import run_workload
from repro.workloads.kvstore import CassandraWorkload


def small_workload(**kwargs):
    defaults = dict(
        key_count=2000,
        memtable_flush_bytes=512 << 10,
        row_cache_entries=100,
        worker_threads=2,
    )
    defaults.update(kwargs)
    return CassandraWorkload.write_intensive(**defaults)


class TestPresets:
    def test_three_mixes(self):
        assert CassandraWorkload.write_intensive().mix.write_fraction == pytest.approx(0.75)
        assert CassandraWorkload.read_write().mix.write_fraction == pytest.approx(0.50)
        assert CassandraWorkload.read_intensive().mix.write_fraction == pytest.approx(0.25)

    def test_names(self):
        assert CassandraWorkload.write_intensive().name == "cassandra-wi"
        assert CassandraWorkload.read_intensive().name == "cassandra-ri"

    def test_profiled_packages_match_paper(self):
        packages = CassandraWorkload.write_intensive().profiled_packages
        assert any("cassandra.db" in p for p in packages)
        assert any("cassandra.utils" in p for p in packages)


class TestLifecycle:
    def test_memtable_flushes(self):
        workload = small_workload()
        run_workload(workload, "g1", operations=3000, heap_mb=32)
        assert workload.flushes >= 1
        assert workload.sstables or workload.compactions

    def test_flush_kills_cells(self):
        workload = small_workload()
        vm, _ = build_vm("g1", heap_mb=32)
        workload.build(vm)
        cells = []
        op = 0
        while workload.flushes == 0:
            workload.run_op(op)
            op += 1
            cells = cells or list(workload.memtable_cells)
        # every pre-flush cell is now dead
        now = vm.clock.now_ns
        assert all(not c.is_live(now) for c in cells)
        assert workload.memtable_bytes == 0

    def test_compaction_kills_inputs(self):
        workload = small_workload(compaction_threshold=2)
        run_workload(workload, "g1", operations=4000, heap_mb=32)
        assert workload.compactions >= 1
        # the active sstable list stays bounded
        assert len(workload.sstables) < 4

    def test_row_cache_bounded_with_eviction(self):
        workload = small_workload()
        run_workload(workload, "g1", operations=5000, heap_mb=32)
        assert len(workload.row_cache) <= workload.row_cache_entries
        # evicted entries are dead
        now = workload.vm.clock.now_ns
        live_cache = [e for e in workload.row_cache.values() if e.is_live(now)]
        assert len(live_cache) == len(workload.row_cache)


class TestConflictStructure:
    def test_buffer_factory_called_from_both_paths(self):
        workload = small_workload()
        run_workload(workload, "g1", operations=3000, heap_mb=32)
        factory = workload.m_buffer_allocate
        callers = set()
        for method in (workload.m_memtable_put, workload.m_read_execute):
            for site in method.call_sites.values():
                if factory in site.targets:
                    callers.add(method.name)
        assert callers == {"put", "execute"}

    def test_factory_not_inlined(self):
        workload = small_workload()
        run_workload(workload, "rolp", operations=3000, heap_mb=32)
        for method in (workload.m_memtable_put, workload.m_read_execute):
            for site in method.call_sites.values():
                if workload.m_buffer_allocate in site.targets:
                    assert not site.inlined

    def test_rolp_detects_cassandra_conflicts(self):
        # The standard workload shape: the memtable spans several GC
        # cycles, so cell/response lifetimes diverge into two triangles
        # with enough volume to survive the conflict debounce.  (The
        # full-size claim lives in benchmarks/test_table1_*.)
        workload = CassandraWorkload.write_intensive()
        run_workload(workload, "rolp", operations=50_000)
        profiler = workload.vm.profiler
        assert profiler.resolver.conflicts_seen >= 1


class TestAnnotations:
    def test_ng2c_hint_sites_counted(self):
        workload = small_workload()
        vm, _ = build_vm("ng2c", heap_mb=32)
        workload.build(vm)
        assert workload.annotated_sites == 5

    def test_ng2c_pretenures_from_hints(self):
        workload = small_workload()
        run_workload(workload, "ng2c", operations=3000, heap_mb=32)
        assert workload.vm.collector.pretenured_objects > 0

    def test_g1_ignores_hints(self):
        workload = small_workload()
        run_workload(workload, "g1", operations=1000, heap_mb=32)
        # G1 has no pretenuring machinery at all
        assert not hasattr(workload.vm.collector, "pretenured_objects")


class TestDeterminism:
    def test_same_seed_same_run(self):
        def run():
            workload = small_workload(seed=77)
            result = run_workload(workload, "g1", operations=2000, heap_mb=32)
            return (result.gc_cycles, result.elapsed_ms, workload.flushes)

        assert run() == run()
