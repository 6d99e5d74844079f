"""End-to-end tests of the ROLP profiler against a small driven VM."""

from repro import build_vm
from repro.core import PackageFilter, RolpConfig
from repro.core.context import context_site, encode
from repro.heap.object_model import SimObject
from repro.runtime import Method


def rolp_vm(heap_mb=16, **config_kwargs):
    config = RolpConfig(**config_kwargs)
    vm, profiler = build_vm("rolp", heap_mb=heap_mb, rolp_config=config)
    return vm, profiler


class TestInstrumentationHooks:
    def test_package_filter_gates_instrumentation(self):
        vm, profiler = rolp_vm(package_filter=PackageFilter(include=["app.data"]))
        thread = vm.spawn_thread()
        data = Method("mk", "app.data.Factory", lambda ctx: ctx.alloc(1, 64))
        control = Method("mk", "app.web.Handler", lambda ctx: ctx.alloc(1, 64))
        for _ in range(vm.flags.compile_threshold + 1):
            vm.run(thread, data)
            vm.run(thread, control)
        assert data.instrumented
        assert not control.instrumented
        assert data.alloc_sites[1].profiled
        assert not control.alloc_sites[1].profiled

    def test_sites_registered_in_old_table(self):
        vm, profiler = rolp_vm()
        thread = vm.spawn_thread()
        m = Method("mk", "app.Factory", lambda ctx: ctx.alloc(1, 64))
        for _ in range(vm.flags.compile_threshold + 1):
            vm.run(thread, m)
        site_id = m.alloc_sites[1].site_id
        assert site_id in profiler.old_table.registered_sites


class TestAllocationHooks:
    def test_cold_code_allocations_unprofiled(self):
        vm, profiler = rolp_vm()
        thread = vm.spawn_thread()
        m = Method("mk", "app.Factory", lambda ctx: ctx.alloc(1, 64))
        obj = vm.run(thread, m)  # first run: interpreted
        assert obj.context == 0

    def test_hot_code_allocations_carry_context(self):
        vm, profiler = rolp_vm()
        thread = vm.spawn_thread()
        m = Method("mk", "app.Factory", lambda ctx: ctx.alloc(1, 64))
        for _ in range(vm.flags.compile_threshold + 2):
            obj = vm.run(thread, m)
        assert obj.context != 0
        assert context_site(obj.context) == m.alloc_sites[1].site_id

    def test_old_table_counts_allocations(self):
        vm, profiler = rolp_vm()
        thread = vm.spawn_thread()
        m = Method("mk", "app.Factory", lambda ctx: ctx.alloc(1, 64))
        for _ in range(vm.flags.compile_threshold + 10):
            vm.run(thread, m)
        site_id = m.alloc_sites[1].site_id
        context = encode(site_id, 0)
        assert profiler.old_table.curve(context)[0] >= 9


class TestSurvivorHooks:
    def test_biased_locked_survivor_discarded(self):
        _, profiler = rolp_vm()
        profiler.old_table.register_site(5)
        obj = SimObject(64, 0, context=encode(5, 0))
        obj.bias_lock(0x7F00_0001)
        profiler.on_gc_survivor(0, obj)
        assert profiler.survivals_discarded == 1
        assert profiler.survivals_recorded == 0

    def test_unknown_context_discarded(self):
        _, profiler = rolp_vm()
        obj = SimObject(64, 0, context=encode(999, 0))
        profiler.on_gc_survivor(0, obj)
        assert profiler.survivals_discarded == 1

    def test_valid_survivor_buffered_then_merged(self):
        _, profiler = rolp_vm()
        profiler.old_table.register_site(5)
        context = encode(5, 0)
        profiler.old_table.increment_alloc(context)
        obj = SimObject(64, 0, context=context)
        profiler.on_gc_survivor(0, obj)
        # buffered privately until the end of the cycle
        assert profiler.old_table.curve(context)[1] == 0
        profiler.on_gc_end(1, 1000, 1e6)
        assert profiler.old_table.curve(context)[1] == 1

    def test_workers_partition_by_id(self):
        _, profiler = rolp_vm()
        profiler.old_table.register_site(5)
        context = encode(5, 0)
        for worker_id in range(8):
            profiler.on_gc_survivor(worker_id, SimObject(64, 0, context=context))
        non_empty = sum(1 for w in profiler.workers if len(w))
        assert non_empty == len(profiler.workers)


class TestInferenceIntegration:
    def test_inference_runs_on_period(self):
        _, profiler = rolp_vm()
        period = profiler.config.inference_period_gcs
        for gc in range(1, period + 1):
            profiler.on_gc_end(gc, gc * 1000, 1e6)
        assert profiler.inference.passes_run == 1

    def test_learned_advice_feeds_allocation(self):
        """Drive a synthetic survival pattern and check the advice."""
        _, profiler = rolp_vm(min_samples=10)
        profiler.old_table.register_site(5)
        context = encode(5, 0)
        # 100 objects that survive to age 4 and die there
        row = profiler.old_table._row(context)
        row[4] = 100
        profiler.on_gc_end(16, 16_000, 1e6)
        assert profiler.allocation_advice(context) == 4

    def test_conflicted_context_gets_no_advice(self):
        _, profiler = rolp_vm(min_samples=10)
        profiler.old_table.register_site(5)
        context = encode(5, 0)
        row = profiler.old_table._row(context)
        row[0] = 500
        row[6] = 400
        profiler.on_gc_end(16, 16_000, 1e6)
        assert profiler.allocation_advice(context) == 0
        assert 5 in profiler.last_inference.conflicted_sites

    def test_old_table_memory_grows_on_persistent_conflict(self):
        """The sizing step happens once a conflict has persisted for two
        consecutive passes (one-off warmup artifacts are debounced)."""
        _, profiler = rolp_vm(min_samples=10)
        profiler.old_table.register_site(5)
        before = profiler.old_table_memory_bytes()
        for pass_index in (1, 2):
            row = profiler.old_table._row(encode(5, 0))
            row[0] = 500
            row[6] = 400
            profiler.on_gc_end(16 * pass_index, 16_000 * pass_index, 1e6)
        assert profiler.old_table_memory_bytes() == before + (4 << 20)

    def test_one_off_conflict_debounced(self):
        _, profiler = rolp_vm(min_samples=10)
        profiler.old_table.register_site(5)
        row = profiler.old_table._row(encode(5, 0))
        row[0] = 500
        row[6] = 400
        before = profiler.old_table_memory_bytes()
        profiler.on_gc_end(16, 16_000, 1e6)
        # clean second pass: the one-off conflict never starts a search
        row = profiler.old_table._row(encode(5, 0))
        row[4] = 200
        profiler.on_gc_end(32, 32_000, 1e6)
        assert profiler.old_table_memory_bytes() == before
        assert profiler.resolver.conflicts_seen == 0


class TestFragmentationFeedback:
    def test_copy_dominant_blame_decrements(self):
        _, profiler = rolp_vm()
        context = encode(5, 0)
        profiler.advice.update_estimate(context, 6)
        for _ in range(profiler.advice.cooldown_passes + 1):
            profiler.advice.begin_pass()
        blame = {context: (1 << 20, 0)}  # all evacuated, none wholesale
        profiler.on_fragmentation_report(blame)
        profiler._judge_fragmentation()
        assert profiler.advice.generation_for(context) == 5

    def test_wholesale_dominant_blame_spared(self):
        _, profiler = rolp_vm()
        context = encode(5, 0)
        profiler.advice.update_estimate(context, 6)
        for _ in range(profiler.advice.cooldown_passes + 1):
            profiler.advice.begin_pass()
        blame = {context: (1 << 20, 10 << 20)}  # mostly died-together
        profiler.on_fragmentation_report(blame)
        profiler._judge_fragmentation()
        assert profiler.advice.generation_for(context) == 6

    def test_small_blame_ignored(self):
        _, profiler = rolp_vm()
        context = encode(5, 0)
        profiler.advice.update_estimate(context, 6)
        for _ in range(profiler.advice.cooldown_passes + 1):
            profiler.advice.begin_pass()
        profiler.on_fragmentation_report({context: (1024, 0)})
        profiler._judge_fragmentation()
        assert profiler.advice.generation_for(context) == 6

    def test_evidence_accumulates_across_reports(self):
        _, profiler = rolp_vm()
        context = encode(5, 0)
        profiler.advice.update_estimate(context, 6)
        for _ in range(profiler.advice.cooldown_passes + 1):
            profiler.advice.begin_pass()
        half = profiler.config.fragmentation_blame_bytes // 2 + 1
        profiler.on_fragmentation_report({context: (half, 0)})
        profiler.on_fragmentation_report({context: (half, 0)})
        profiler._judge_fragmentation()
        assert profiler.advice.generation_for(context) == 5


class TestSummary:
    def test_summary_shape(self):
        _, profiler = rolp_vm()
        summary = profiler.summary()
        for key in (
            "instrumented_methods",
            "jitted_call_sites",
            "advice_entries",
            "conflicts",
            "old_table_mb",
            "inference_passes",
        ):
            assert key in summary
