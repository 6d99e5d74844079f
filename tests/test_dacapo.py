"""Tests for the synthetic DaCapo suite."""

import pytest

from repro.workloads.base import run_workload
from repro.workloads.dacapo import (
    DACAPO_SPECS,
    SPEC_BY_NAME,
    get_spec,
    make_dacapo,
)
from repro.workloads.dacapo.synthetic import MEDIUM, YOUNG


class TestSpecs:
    def test_thirteen_benchmarks(self):
        assert len(DACAPO_SPECS) == 13

    def test_paper_names_present(self):
        expected = {
            "avrora", "eclipse", "fop", "h2", "jython", "luindex",
            "lusearch", "pmd", "sunflow", "tomcat", "tradebeans",
            "tradesoap", "xalan",
        }
        assert set(SPEC_BY_NAME) == expected

    def test_table2_conflict_counts(self):
        assert get_spec("pmd").conflicts == 6
        assert get_spec("tomcat").conflicts == 4
        assert get_spec("tradesoap").conflicts == 3
        assert get_spec("avrora").conflicts == 0

    def test_lifetime_mix_sums_to_one(self):
        for spec in DACAPO_SPECS:
            assert sum(spec.lifetime_mix) == pytest.approx(1.0)

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            get_spec("nonexistent")

    def test_bad_mix_rejected(self):
        from repro.workloads.dacapo.specs import DaCapoSpec

        with pytest.raises(ValueError):
            DaCapoSpec(
                name="x", heap_mb=16, hot_methods=4, alloc_sites=4,
                calls_per_op=4, allocs_per_op=4, work_ns_per_op=100,
                lifetime_mix=(0.5, 0.2, 0.2), obj_bytes=64, conflicts=0,
            )


class TestWorkloadStructure:
    def test_build_creates_method_graph(self):
        workload = make_dacapo("avrora")
        run_workload(workload, "g1", operations=50)
        spec = get_spec("avrora")
        assert len(workload.services) == spec.hot_methods
        assert workload.helpers

    def test_factories_only_for_conflicted_specs(self):
        pmd = make_dacapo("pmd")
        run_workload(pmd, "g1", operations=10)
        assert len(pmd.factories) == 6
        avrora = make_dacapo("avrora")
        run_workload(avrora, "g1", operations=10)
        assert avrora.factories == []

    def test_site_lifetime_classes_match_mix(self):
        workload = make_dacapo("h2")
        spec = get_spec("h2")
        classes = [workload._class_for_site(i) for i in range(200)]
        young_share = classes.count(YOUNG) / len(classes)
        assert young_share == pytest.approx(spec.lifetime_mix[0], abs=0.08)

    def test_factory_sees_both_lifetime_classes(self):
        """The conflict ground truth: each factory must be called with
        at least two different lifetime classes."""
        workload = make_dacapo("pmd")
        run_workload(workload, "g1", operations=10)
        spec = get_spec("pmd")
        per_factory = {}
        for i in range(spec.hot_methods):
            factory_index = i % len(workload.factories)
            lifetime = MEDIUM if (i // len(workload.factories)) % 2 == 0 else YOUNG
            per_factory.setdefault(factory_index, set()).add(lifetime)
        assert all(len(classes) == 2 for classes in per_factory.values())


class TestExecution:
    def test_medium_objects_expire(self):
        workload = make_dacapo("h2")
        run_workload(workload, "g1", operations=2000)
        # the expiry queue drained at least partially
        assert len(workload.medium_queue._queue) < 10_000

    def test_methods_become_hot(self):
        workload = make_dacapo("avrora")
        run_workload(workload, "g1", operations=2000)
        compiled = [m for m in workload.services if m.compiled]
        assert len(compiled) == len(workload.services)

    def test_exceptions_exercised(self):
        workload = make_dacapo("avrora")
        run_workload(workload, "g1", operations=300)
        assert workload.vm.exceptions_thrown >= 3

    def test_deterministic(self):
        def run():
            workload = make_dacapo("luindex", seed=5)
            result = run_workload(workload, "g1", operations=800)
            return (result.gc_cycles, result.elapsed_ms)

        assert run() == run()

    def test_inlined_helpers_exist(self):
        workload = make_dacapo("fop")
        run_workload(workload, "rolp", operations=3000)
        inlined = [
            s
            for m in workload.services
            for s in m.call_sites.values()
            if s.inlined
        ]
        assert inlined  # small helpers were inlined (and not profiled)
