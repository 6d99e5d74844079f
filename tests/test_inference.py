"""Tests for lifetime inference: peak detection, triangle separation,
inflow correction, conflict flagging, and the inference engine."""

from hypothesis import given
from hypothesis import strategies as st

from repro.heap.header import NUM_AGES
from repro.core.context import encode
from repro.core.inference import (
    InferenceEngine,
    analyze_curve,
    distinct_triangles,
    find_peaks,
)
from repro.core.old_table import OldTable

curves = st.lists(
    st.integers(min_value=0, max_value=10_000), min_size=NUM_AGES, max_size=NUM_AGES
)


def curve(**columns):
    """Build a 16-column curve from sparse {age: count} kwargs."""
    result = [0] * NUM_AGES
    for key, value in columns.items():
        result[int(key.lstrip("a"))] = value
    return result


class TestFindPeaks:
    def test_empty_curve(self):
        assert find_peaks([0] * NUM_AGES) == []

    def test_single_triangle(self):
        c = curve(a2=10, a3=50, a4=100, a5=40, a6=5)
        assert find_peaks(c) == [4]

    def test_two_triangles(self):
        c = curve(a0=100, a6=80)
        assert find_peaks(c) == [0, 6]

    def test_noise_below_min_count_ignored(self):
        c = curve(a0=1000, a9=4)
        assert find_peaks(c, min_count=8) == [0]

    def test_insignificant_secondary_bump_ignored(self):
        c = curve(a0=1000, a9=20)
        assert find_peaks(c, significance=0.05) == [0]
        assert 9 in find_peaks(c, significance=0.01)

    def test_plateau_counts_once(self):
        c = curve(a3=50, a4=50, a5=50)
        assert find_peaks(c) == [3]

    def test_peak_at_last_column(self):
        c = curve(a14=20, a15=90)
        assert find_peaks(c) == [15]

    @given(c=curves)
    def test_peaks_are_valid_indices(self, c):
        for peak in find_peaks(c):
            assert 0 <= peak < NUM_AGES
            assert c[peak] > 0

    @given(c=curves)
    def test_peaks_sorted_ascending(self, c):
        peaks = find_peaks(c)
        assert peaks == sorted(peaks)


class TestDistinctTriangles:
    def test_deep_valley_keeps_both(self):
        c = curve(a0=100, a1=5, a6=80)
        assert distinct_triangles(c, [0, 6]) == [0, 6]

    def test_shallow_valley_merges_to_taller(self):
        c = curve(a2=100, a3=70, a4=90)
        assert distinct_triangles(c, [2, 4]) == [2]

    def test_single_peak_passthrough(self):
        assert distinct_triangles(curve(a3=10), [3]) == [3]

    def test_empty_passthrough(self):
        assert distinct_triangles(curve(), []) == []


class TestAnalyzeCurve:
    def test_triangle_estimate(self):
        analysis = analyze_curve(1, curve(a3=20, a4=90, a5=30))
        assert analysis.estimated_age == 4
        assert not analysis.is_conflict

    def test_conflict_flagged(self):
        analysis = analyze_curve(1, curve(a0=500, a6=400))
        assert analysis.is_conflict
        assert analysis.peaks == (0, 6)

    def test_inflow_correction_removes_fresh_allocation_peak(self):
        """A context whose objects all die at age 6: column 0 holds one
        inter-GC interval's fresh allocations (~total/16), which must
        not read as a die-young cohort."""
        total_live = 900
        c = curve(a6=total_live)
        fresh = (total_live + 60) // 16
        c[0] = fresh  # plausible steady-state inflow
        analysis = analyze_curve(1, c, inflow_period=16)
        assert not analysis.is_conflict
        assert analysis.estimated_age == 6

    def test_genuine_die_young_survives_correction(self):
        """Objects that actually die before their first GC accumulate in
        column 0 far beyond one interval's inflow."""
        c = curve(a0=1000, a6=500)
        analysis = analyze_curve(1, c, inflow_period=16)
        assert analysis.is_conflict

    def test_total_reported(self):
        assert analyze_curve(1, curve(a0=10, a5=20)).total == 30

    @given(c=curves)
    def test_estimate_in_range(self, c):
        analysis = analyze_curve(1, c)
        assert 0 <= analysis.estimated_age < NUM_AGES

    @given(c=curves)
    def test_conflict_iff_multiple_peaks(self, c):
        analysis = analyze_curve(1, c)
        assert analysis.is_conflict == (len(analysis.peaks) >= 2)


class TestInferenceEngine:
    def _table_with(self, context, counts):
        table = OldTable()
        table.register_site(context >> 16)
        row = table._row(context)
        for i, value in enumerate(counts):
            row[i] = value
        return table

    def test_due_every_period(self):
        engine = InferenceEngine(period_gcs=16)
        assert not engine.due(0)
        assert not engine.due(15)
        assert engine.due(16)
        assert engine.due(32)
        assert not engine.due(17)

    def test_run_analyzes_and_clears(self):
        ctx = encode(3, 0)
        table = self._table_with(ctx, curve(a4=100))
        engine = InferenceEngine(min_samples=10)
        result = engine.run(table, 16)
        assert result.analyses[ctx].estimated_age == 4
        assert table.total_objects(ctx) == 0  # freshness clear

    def test_min_samples_gate(self):
        ctx = encode(3, 0)
        table = self._table_with(ctx, curve(a4=5))
        engine = InferenceEngine(min_samples=10)
        result = engine.run(table, 16)
        assert ctx not in result.analyses

    def test_conflicted_sites_collected(self):
        ctx = encode(9, 0)
        table = self._table_with(ctx, curve(a0=500, a6=400))
        engine = InferenceEngine(min_samples=10)
        result = engine.run(table, 16)
        assert 9 in result.conflicted_sites

    def test_pretenured_contexts_never_conflict(self):
        """Once a context is pretenured, its column 0 is pure inflow
        artifact (no survival flow) and must be ignored."""
        ctx = encode(9, 0)
        table = self._table_with(ctx, curve(a0=5000, a6=400))
        engine = InferenceEngine(min_samples=10)
        result = engine.run(table, 16, pretenured=lambda c: True)
        analysis = result.analyses[ctx]
        assert not analysis.is_conflict
        assert not result.conflicted_sites
        assert analysis.estimated_age == 6

    def test_pretenured_context_below_samples_after_col0_skip(self):
        ctx = encode(9, 0)
        table = self._table_with(ctx, curve(a0=5000, a6=4))
        engine = InferenceEngine(min_samples=10)
        result = engine.run(table, 16, pretenured=lambda c: True)
        assert ctx not in result.analyses

    def test_passes_counted(self):
        engine = InferenceEngine()
        table = OldTable()
        engine.run(table, 16)
        engine.run(table, 32)
        assert engine.passes_run == 2
