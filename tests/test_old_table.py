"""Tests for the Object Lifetime Distribution table."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.heap.header import MAX_AGE
from repro.core.context import encode
from repro.core.old_table import STEP_BYTES, OldTable, WorkerTable

CTX = encode(7, 0)


def registered_table(*sites):
    table = OldTable()
    for site in sites or (7,):
        table.register_site(site)
    return table


class TestRegistration:
    def test_unregistered_context_rejected(self):
        table = OldTable()
        assert not table.is_known_context(CTX)
        assert not table.increment_alloc(CTX)

    def test_registered_site_accepts_any_stack_state(self):
        table = registered_table(7)
        assert table.is_known_context(encode(7, 12345))

    def test_zero_context_never_known(self):
        table = registered_table(7)
        assert not table.is_known_context(0)

    def test_register_zero_site_ignored(self):
        table = OldTable()
        table.register_site(0)
        assert 0 not in table.registered_sites

    def test_stale_bias_pointer_rejected(self):
        # a thread-pointer-looking context whose site id is unregistered
        table = registered_table(7)
        assert not table.is_known_context(0x7F00_1234)


class TestAllocationCounting:
    def test_increment_goes_to_column_zero(self):
        table = registered_table()
        table.increment_alloc(CTX)
        table.increment_alloc(CTX)
        assert table.curve(CTX)[0] == 2

    def test_distinct_contexts_distinct_rows(self):
        table = registered_table(7)
        a, b = encode(7, 1), encode(7, 2)
        table.increment_alloc(a)
        assert table.curve(a)[0] == 1
        assert table.curve(b)[0] == 0

    def test_total_objects(self):
        table = registered_table()
        for _ in range(5):
            table.increment_alloc(CTX)
        assert table.total_objects(CTX) == 5


class TestSurvivalUpdates:
    def test_survival_moves_one_object_up(self):
        table = registered_table()
        table.increment_alloc(CTX)
        table.apply_survival(CTX, 0)
        curve = table.curve(CTX)
        assert curve[0] == 0
        assert curve[1] == 1

    def test_saturated_age_never_moves(self):
        table = registered_table()
        table.increment_alloc(CTX)
        for _ in range(MAX_AGE):
            # walk the object up to the last column
            age = next(i for i, c in enumerate(table.curve(CTX)) if c)
            table.apply_survival(CTX, age)
        assert table.curve(CTX)[MAX_AGE] == 1
        table.apply_survival(CTX, MAX_AGE)
        assert table.curve(CTX)[MAX_AGE] == 1

    def test_decrement_floors_at_zero(self):
        table = registered_table()
        table.apply_survival(CTX, 3)  # no one was ever at column 3
        curve = table.curve(CTX)
        assert curve[3] == 0
        assert curve[4] == 1

    @given(
        allocations=st.integers(min_value=0, max_value=200),
        survivals=st.lists(
            st.integers(min_value=0, max_value=MAX_AGE - 1), max_size=200
        ),
    )
    def test_population_conservation(self, allocations, survivals):
        """Survival updates move objects between columns; they never
        create or destroy them (beyond the floor-at-zero clamp, which
        only ever adds)."""
        table = registered_table()
        for _ in range(allocations):
            table.increment_alloc(CTX)
        before = table.total_objects(CTX)
        created = 0
        for age in survivals:
            if table.curve(CTX)[age] == 0:
                created += 1  # floor clamp: dec skipped, inc applied
            table.apply_survival(CTX, age)
        assert table.total_objects(CTX) == before + created


class TestWorkerTables:
    def test_private_buffer_then_merge(self):
        table = registered_table()
        table.increment_alloc(CTX)
        worker = WorkerTable()
        worker.record_survival(CTX, 0)
        worker.record_survival(CTX, 0)
        # nothing visible before the merge
        assert table.curve(CTX)[1] == 0
        table.merge_worker(worker)
        assert table.curve(CTX)[1] == 2
        assert len(worker) == 0  # cleared by the merge

    def test_multiple_workers_accumulate(self):
        table = registered_table()
        for _ in range(4):
            table.increment_alloc(CTX)
        workers = [WorkerTable() for _ in range(4)]
        for worker in workers:
            worker.record_survival(CTX, 0)
        for worker in workers:
            table.merge_worker(worker)
        assert table.curve(CTX)[1] == 4


class TestIncrementLoss:
    def test_no_loss_by_default(self):
        table = registered_table()
        for _ in range(1000):
            table.increment_alloc(CTX)
        assert table.lost_increments == 0

    def test_configured_loss_is_observed(self):
        table = OldTable(increment_loss_probability=0.5, seed=1)
        table.register_site(7)
        for _ in range(1000):
            table.increment_alloc(CTX)
        assert 300 < table.lost_increments < 700
        assert table.curve(CTX)[0] + table.lost_increments == 1000

    def test_loss_is_deterministic_under_seed(self):
        def run():
            table = OldTable(increment_loss_probability=0.1, seed=42)
            table.register_site(7)
            for _ in range(500):
                table.increment_alloc(CTX)
            return table.lost_increments

        assert run() == run()

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            OldTable(increment_loss_probability=1.0)


class TestFreshnessAndMemory:
    def test_clear_drops_counts_keeps_registration(self):
        table = registered_table()
        table.increment_alloc(CTX)
        table.clear()
        assert table.total_objects(CTX) == 0
        assert table.is_known_context(CTX)

    def test_base_memory_is_4mb(self):
        assert OldTable().memory_bytes() == STEP_BYTES == 4 << 20

    def test_memory_grows_4mb_per_conflict(self):
        table = registered_table(1, 2, 3)
        table.expand_for_conflict(1)
        assert table.memory_bytes() == 8 << 20
        table.expand_for_conflict(2)
        assert table.memory_bytes() == 12 << 20
        # expanding the same site twice does not double-count
        table.expand_for_conflict(1)
        assert table.memory_bytes() == 12 << 20

    def test_expand_unregistered_site_ignored(self):
        table = registered_table(1)
        table.expand_for_conflict(99)
        assert table.memory_bytes() == 4 << 20

    def test_contexts_for_site(self):
        table = registered_table(7, 8)
        table.increment_alloc(encode(7, 1))
        table.increment_alloc(encode(7, 2))
        table.increment_alloc(encode(8, 1))
        assert len(table.contexts_for_site(7)) == 2
        assert len(table.contexts_for_site(8)) == 1
