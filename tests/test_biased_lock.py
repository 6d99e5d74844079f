"""Tests for the biased-locking model and its profiling side effects."""

from repro.heap.object_model import SimObject
from repro.runtime.biased_lock import BiasedLockManager
from repro.runtime.thread import SimThread


class TestBiasedLockManager:
    def test_lock_sets_bias_and_clobbers_context(self):
        manager = BiasedLockManager()
        thread = SimThread(3)
        obj = SimObject(64, 0, context=0x0042_0007)
        manager.lock(thread, obj)
        assert obj.biased_locked
        assert obj.context != 0x0042_0007
        assert manager.locks_taken == 1
        assert manager.contexts_clobbered == 1

    def test_unprofiled_object_not_counted_as_clobbered(self):
        manager = BiasedLockManager()
        obj = SimObject(64, 0)
        manager.lock(SimThread(1), obj)
        assert manager.contexts_clobbered == 0

    def test_thread_pointer_distinct_per_thread(self):
        manager = BiasedLockManager()
        a, b = SimObject(64, 0), SimObject(64, 0)
        manager.lock(SimThread(1), a)
        manager.lock(SimThread(2), b)
        assert a.context != b.context

    def test_revoke_leaves_stale_pointer(self):
        manager = BiasedLockManager()
        obj = SimObject(64, 0, context=0x0042_0007)
        manager.lock(SimThread(1), obj)
        pointer = obj.context
        manager.revoke(obj)
        assert not obj.biased_locked
        assert obj.context == pointer  # corrupted, as the paper accepts
        assert manager.revocations == 1

    def test_thread_lock_count(self):
        manager = BiasedLockManager()
        thread = SimThread(1)
        for _ in range(3):
            manager.lock(thread, SimObject(64, 0))
        assert thread.biased_objects == 3
