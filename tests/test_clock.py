"""Tests for the simulated clock."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.runtime.clock import NS_PER_S, SimClock

durations = st.lists(
    st.floats(min_value=0, max_value=1e9, allow_nan=False), max_size=30
)


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now_ns == 0

    def test_custom_start(self):
        assert SimClock(start_ns=500).now_ns == 500

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            SimClock(start_ns=-1)

    def test_mutator_advance(self):
        clock = SimClock()
        clock.advance_mutator(1500)
        assert clock.now_ns == 1500
        assert clock.total_mutator_ns == 1500
        assert clock.total_pause_ns == 0

    def test_pause_advance(self):
        clock = SimClock()
        clock.advance_pause(2500)
        assert clock.now_ns == 2500
        assert clock.total_pause_ns == 2500
        assert clock.total_mutator_ns == 0

    def test_time_cannot_go_backwards(self):
        clock = SimClock()
        with pytest.raises(ValueError):
            clock.advance_mutator(-1)
        with pytest.raises(ValueError):
            clock.advance_pause(-1)

    def test_unit_conversions(self):
        clock = SimClock()
        clock.advance_mutator(2 * NS_PER_S)
        assert clock.now_ms == pytest.approx(2000.0)

    def test_fractional_ns_truncated(self):
        clock = SimClock()
        clock.advance_mutator(10.9)
        assert clock.now_ns == 10

    @given(mutator=durations, pauses=durations)
    def test_accounting_identity(self, mutator, pauses):
        clock = SimClock()
        for ns in mutator:
            clock.advance_mutator(ns)
        for ns in pauses:
            clock.advance_pause(ns)
        assert clock.now_ns == clock.total_mutator_ns + clock.total_pause_ns

    @given(steps=durations)
    def test_monotonic(self, steps):
        clock = SimClock()
        previous = 0
        for ns in steps:
            clock.advance_mutator(ns)
            assert clock.now_ns >= previous
            previous = clock.now_ns
