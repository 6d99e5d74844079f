"""Tests for the phase-shifting workload module."""

import pytest

from repro.workloads.base import run_workload
from repro.workloads.shifting import PhaseShiftWorkload


class TestConstruction:
    def test_invalid_residual_fraction(self):
        with pytest.raises(ValueError):
            PhaseShiftWorkload(residual_cache_fraction=1.5)

    def test_defaults(self):
        workload = PhaseShiftWorkload()
        assert workload.phase == 1
        assert not workload.reverse


class TestPhases:
    def test_shift_flips_phase(self):
        workload = PhaseShiftWorkload(shift_at_op=10)
        run_workload(workload, "g1", operations=12, heap_mb=24)
        assert workload.phase == 2

    def test_no_shift_before_boundary(self):
        workload = PhaseShiftWorkload(shift_at_op=1000)
        run_workload(workload, "g1", operations=20, heap_mb=24)
        assert workload.phase == 1

    def test_forward_phase1_caches_everything(self):
        workload = PhaseShiftWorkload(shift_at_op=10_000)
        run_workload(workload, "g1", operations=200, heap_mb=24)
        assert len(workload.cache) == 200

    def test_reverse_phase1_mostly_young(self):
        workload = PhaseShiftWorkload(
            shift_at_op=10_000, reverse=True, residual_cache_fraction=0.0
        )
        run_workload(workload, "g1", operations=200, heap_mb=24)
        assert workload.cache == []

    def test_forward_phase2_residual_fraction(self):
        workload = PhaseShiftWorkload(
            shift_at_op=0, residual_cache_fraction=0.10
        )
        run_workload(workload, "g1", operations=1000, heap_mb=24)
        # ~10% of 1000 allocations cached (no eviction at this volume)
        assert 60 <= len(workload.cache) <= 140


class TestEviction:
    def test_cache_bounded_by_limit(self):
        workload = PhaseShiftWorkload(
            shift_at_op=10**9, cache_limit_bytes=64 << 10, object_bytes=1024
        )
        run_workload(workload, "g1", operations=500, heap_mb=24)
        assert workload.cache_bytes < 64 << 10

    def test_evicted_objects_die(self):
        workload = PhaseShiftWorkload(
            shift_at_op=10**9, cache_limit_bytes=32 << 10, object_bytes=1024
        )
        run_workload(workload, "g1", operations=100, heap_mb=24)
        now = workload.vm.clock.now_ns
        # survivors of the last eviction are the only live cache bytes
        live = [o for o in workload.cache if o.is_live(now)]
        assert len(live) == len(workload.cache)

    def test_site_id_zero_before_jit(self):
        workload = PhaseShiftWorkload()
        run_workload(workload, "g1", operations=5, heap_mb=24)
        assert workload.site_id() == 0
