"""Tests for the workload base class and run harness."""

import pytest

from repro.bench.workload_registry import all_workload_names, make_big_workload
from repro.core import RolpConfig
from repro.runtime import Method
from repro.workloads.base import RunResult, Workload, run_workload
from repro.workloads.dacapo import DaCapoWorkload, get_spec
from repro.workloads.shifting import PhaseShiftWorkload


class TinyWorkload(Workload):
    """Minimal concrete workload for harness tests."""

    name = "tiny"
    profiled_packages = ("app.data",)
    heap_mb = 16
    young_regions = 2
    default_ops = 50

    def build(self, vm):
        self.vm = vm
        self.make_thread("tiny-worker")

        def body(ctx):
            ctx.alloc(1, 256, lives_ns=10_000)
            ctx.work(500)

        self.m_op = Method("op", "app.data.Tiny", body)

    def run_op(self, op_index):
        self.vm.run(self.threads[0], self.m_op)


class TestWorkloadBase:
    def test_build_must_be_implemented(self):
        with pytest.raises(NotImplementedError):
            Workload().build(None)

    def test_run_op_must_be_implemented(self):
        with pytest.raises(NotImplementedError):
            Workload().run_op(0)

    def test_make_thread_requires_build(self):
        with pytest.raises(RuntimeError, match="build\\(\\) must run first"):
            TinyWorkload().make_thread("x")

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda n=name: make_big_workload(n), id=name)
            for name in all_workload_names()
        ]
        + [
            pytest.param(lambda: DaCapoWorkload(get_spec("avrora")), id="dacapo-avrora"),
            pytest.param(PhaseShiftWorkload, id="phase-shift"),
        ],
    )
    def test_run_op_requires_build(self, make):
        """An explicit raise, not an assert: it must hold under -O too."""
        with pytest.raises(RuntimeError, match="build\\(\\) must run first"):
            make().run_op(0)

    def test_package_filter_from_declared_packages(self):
        workload = TinyWorkload()
        pkg_filter = workload.package_filter()
        assert pkg_filter.accepts("app.data")
        assert pkg_filter.accepts("app.data.sub")
        assert not pkg_filter.accepts("app.web")

    def test_empty_packages_accept_all(self):
        workload = TinyWorkload()
        workload.profiled_packages = ()
        assert workload.package_filter().accepts("anything")

    def test_count_sites(self):
        workload = TinyWorkload()
        run_workload(workload, "g1", operations=5)
        alloc_sites, call_sites = workload.count_sites()
        assert alloc_sites == 1
        assert call_sites == 0

    def test_all_methods_discovers_method_attributes(self):
        workload = TinyWorkload()
        run_workload(workload, "g1", operations=5)
        assert workload.m_op in workload.all_methods()


class TestRunHarness:
    def test_default_ops_used(self):
        workload = TinyWorkload()
        result = run_workload(workload, "g1")
        assert result.operations == 50

    def test_explicit_ops_override(self):
        workload = TinyWorkload()
        result = run_workload(workload, "g1", operations=7)
        assert result.operations == 7

    def test_rolp_gets_workload_filter_by_default(self):
        workload = TinyWorkload()
        run_workload(workload, "rolp", operations=5)
        assert workload.vm.profiler.config.package_filter.accepts("app.data")
        assert not workload.vm.profiler.config.package_filter.accepts("app.web")

    def test_explicit_rolp_config_respected(self):
        workload = TinyWorkload()
        config = RolpConfig(pretenure_min_age=5)
        run_workload(workload, "rolp", operations=5, rolp_config=config)
        assert workload.vm.profiler.config.pretenure_min_age == 5

    def test_result_fields(self):
        workload = TinyWorkload()
        result = run_workload(workload, "g1", operations=20)
        assert isinstance(result, RunResult)
        assert result.workload == "tiny"
        assert result.collector == "g1"
        assert result.elapsed_ms > 0
        assert result.throughput_ops_s > 0
        assert result.vm_summary["allocations"] == 20
        assert result.profiler_summary is None

    def test_result_profiler_summary_for_rolp(self):
        workload = TinyWorkload()
        result = run_workload(workload, "rolp", operations=20)
        assert result.profiler_summary is not None

    def test_percentiles_and_histogram_api(self):
        workload = TinyWorkload()
        result = run_workload(workload, "g1", operations=50)
        profile = result.percentiles((50.0, 99.0))
        assert set(profile) == {50.0, 99.0}
        histogram = result.histogram()
        assert sum(c for _, c in histogram) == len(result.pauses)

    def test_pause_timeline_sorted(self):
        workload = TinyWorkload()
        result = run_workload(workload, "g1", operations=50)
        timeline = result.pause_timeline()
        assert timeline == sorted(timeline)
