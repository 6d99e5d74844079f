"""Tests for simulated heap objects (liveness oracle + header ops)."""

import pytest

from repro.heap.header import MAX_AGE
from repro.heap.object_model import IMMORTAL, SimObject


class TestConstruction:
    def test_basic(self):
        obj = SimObject(size=128, alloc_time_ns=1000)
        assert obj.size == 128
        assert obj.alloc_time_ns == 1000
        assert obj.death_time_ns == IMMORTAL
        assert obj.age == 0
        assert obj.copies == 0

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            SimObject(size=0, alloc_time_ns=0)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            SimObject(size=-8, alloc_time_ns=0)

    def test_context_installed(self):
        obj = SimObject(size=64, alloc_time_ns=0, context=0xABCD_1234)
        assert obj.context == 0xABCD_1234

    def test_unprofiled_context_zero(self):
        assert SimObject(size=64, alloc_time_ns=0).context == 0


class TestLivenessOracle:
    def test_immortal_is_live(self):
        obj = SimObject(size=64, alloc_time_ns=0)
        assert obj.is_live(10**15)

    def test_live_before_death(self):
        obj = SimObject(size=64, alloc_time_ns=0, death_time_ns=5000)
        assert obj.is_live(4999)
        assert not obj.is_live(5000)
        assert not obj.is_live(5001)

    def test_kill_at(self):
        obj = SimObject(size=64, alloc_time_ns=100)
        obj.kill_at(900)
        assert not obj.is_live(900)
        assert obj.death_time_ns == 900

    def test_cannot_die_before_birth(self):
        obj = SimObject(size=64, alloc_time_ns=1000)
        with pytest.raises(ValueError):
            obj.kill_at(999)


class TestAging:
    def test_grow_older(self):
        obj = SimObject(size=64, alloc_time_ns=0)
        for expected in range(1, MAX_AGE + 1):
            obj.grow_older()
            assert obj.age == expected

    def test_age_saturates(self):
        obj = SimObject(size=64, alloc_time_ns=0)
        for _ in range(MAX_AGE + 10):
            obj.grow_older()
        assert obj.age == MAX_AGE

    def test_aging_preserves_context(self):
        obj = SimObject(size=64, alloc_time_ns=0, context=0x0042_0007)
        obj.grow_older()
        assert obj.context == 0x0042_0007


class TestBiasLocking:
    def test_bias_clobbers_context(self):
        obj = SimObject(size=64, alloc_time_ns=0, context=0x0042_0007)
        obj.bias_lock(0x7F00_1100)
        assert obj.biased_locked
        assert obj.context == 0x7F00_1100

    def test_unbiased_by_default(self):
        assert not SimObject(size=64, alloc_time_ns=0).biased_locked
