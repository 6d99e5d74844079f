"""Fault-injection tests for the heap/header invariant verifier.

Each test corrupts one invariant the simulator otherwise maintains and
asserts the verifier fires with a structured, identifier-bearing
:class:`InvariantViolation` naming the corrupted entity.  A verifier
that only passes on healthy heaps proves nothing; these tests prove
every rule can actually fail.
"""

import pickle

import pytest

from repro.analysis import (
    NULL_VERIFIER,
    InvariantViolation,
    VerifierSuite,
    make_verifier,
    set_default_verify_level,
)
from repro.analysis.heap_verifier import HeapVerifier
from repro.gc import CMSCollector, G1Collector
from repro.heap import BandwidthModel, RegionHeap
from repro.heap import header as hdr
from repro.heap.object_model import SimObject
from repro.heap.region import Space
from repro.runtime import JavaVM, VMFlags
from repro.runtime.biased_lock import BiasedLockManager
from repro.runtime.thread import SimThread


def small_heap(regions=8, region_bytes=1 << 16):
    return RegionHeap(regions * region_bytes, region_bytes=region_bytes)


def populated_heap():
    """A heap with eden, old, and humongous contents."""
    heap = small_heap()
    objs = [SimObject(512 * (i + 1), 0) for i in range(4)]
    for obj in objs[:3]:
        heap.allocate(obj, Space.EDEN)
    heap.allocate(objs[3], Space.OLD)
    return heap, objs


class _Capabilities:
    """Stand-in collector exposing only the capability flags."""

    name = "stub"
    ages_on_copy = False
    in_place_old_sweep = False
    supports_dynamic_gens = False
    tenuring_threshold = 15

    def __init__(self, **overrides):
        for key, value in overrides.items():
            setattr(self, key, value)


def expect_violation(rule, heap, **kwargs):
    verifier = HeapVerifier()
    with pytest.raises(InvariantViolation) as info:
        verifier.verify(heap, **kwargs)
    assert info.value.rule == rule
    assert verifier.violations == 1
    return info.value


class TestCleanHeap:
    def test_clean_heap_passes(self):
        heap, _ = populated_heap()
        verifier = HeapVerifier()
        checks = verifier.verify(heap)
        assert checks > 0
        assert verifier.violations == 0

    def test_empty_heap_passes(self):
        verifier = HeapVerifier()
        assert verifier.verify(small_heap()) > 0

    def test_humongous_spanning_object_passes(self):
        heap = small_heap()
        big = SimObject(heap.region_bytes * 2 + 100, 0)
        heap.allocate(big, Space.EDEN)  # rerouted to HUMONGOUS
        assert big.region.space is Space.HUMONGOUS
        HeapVerifier().verify(heap)


class TestRegionAccountingFaults:
    def test_corrupted_used_counter_fires(self):
        heap, objs = populated_heap()
        region = objs[0].region
        region.used += 64  # drift between counter and object list
        violation = expect_violation("heap/region-used", heap)
        assert violation.details["region"] == region.index
        assert violation.details["used"] == region.used
        assert violation.details["object_bytes"] == region.used - 64

    def test_free_list_drop_fires(self):
        heap, _ = populated_heap()
        heap._free.pop()  # a FREE region vanishes from the free list
        violation = expect_violation("heap/free-list", heap)
        assert violation.details["free_list"] < violation.details["free_regions"]

    def test_committed_counter_drift_fires(self):
        heap, _ = populated_heap()
        heap._committed_regions += 1
        violation = expect_violation("heap/committed", heap)
        assert violation.details["committed_bytes"] == heap.committed_bytes

    def test_space_count_drift_fires(self):
        heap, _ = populated_heap()
        heap.space_counts[Space.EDEN] += 1  # a claim the walk never saw
        violation = expect_violation("heap/space-counts", heap)
        assert violation.details["space"] == "eden"
        assert violation.details["counted"] == violation.details["walked"] + 1

    def test_stored_occupancy_drift_fires(self):
        heap, _ = populated_heap()
        walked = heap.occupancy
        heap.occupancy += 1 / len(heap.regions)  # a claim the walk never saw
        violation = expect_violation("heap/occupancy", heap)
        assert violation.details["occupancy"] == heap.occupancy
        assert violation.details["expected"] == walked == 2 / 8

    def test_stale_cms_waste_fraction_fires(self):
        heap = RegionHeap(8 << 20)
        cms = CMSCollector(heap, BandwidthModel(), young_regions=2, tenuring_threshold=1)
        objs = [cms.allocate(1024) for _ in range(1024)]
        cms.collect_young()  # promotes the population to old space
        for obj in objs[::3]:
            obj.kill_at(cms.clock.now_ns)
        cms._concurrent_cycle()  # sweeps in place: waste
        walked = cms._old_waste_fraction()
        assert cms.waste_fraction == walked > 0
        HeapVerifier().verify(heap, collector=cms)
        cms.waste_fraction = 0.0  # a sweep the stored value never saw
        violation = expect_violation("gc/waste-fraction", heap, collector=cms)
        assert violation.details["stored"] == 0.0
        assert violation.details["walked"] == walked

    def test_stale_alloc_cache_fires(self):
        heap, objs = populated_heap()
        region = objs[0].region  # cached as the (EDEN, 0) bump region
        assert heap.current_alloc_region(Space.EDEN) is region
        region.space = Space.OLD  # retargeted without a cache update
        violation = expect_violation("heap/alloc-cache", heap)
        assert violation.details["region"] == region.index
        assert violation.details["cached_space"] == "eden"
        assert violation.details["actual_space"] == "old"

    def test_humongous_ragged_capacity_fires(self):
        heap = small_heap()
        big = SimObject(heap.region_bytes * 2 + 100, 0)
        heap.allocate(big, Space.EDEN)
        big.region.capacity += heap.region_bytes  # claims a region it never took
        violation = expect_violation("heap/humongous", heap)
        assert violation.details["phase"] == "manual"

    def test_humongous_shared_region_fires(self):
        heap = small_heap()
        big = SimObject(heap.region_bytes - 10, 0)
        heap.allocate(big, Space.EDEN)
        squatter = SimObject(8, 0)
        big.region.allocate(squatter)
        violation = expect_violation("heap/humongous", heap)
        assert violation.details["objects"] == 2


class TestObjectGraphFaults:
    def test_broken_backpointer_fires(self):
        heap, objs = populated_heap()
        objs[1].region = None
        violation = expect_violation("heap/backpointer", heap)
        assert violation.details["backpointer"] is None

    def test_duplicate_object_fires(self):
        heap, objs = populated_heap()
        other = objs[3].region  # the OLD region
        other.objects.append(objs[0])
        other.used += objs[0].size
        violation = expect_violation("heap/duplicate-object", heap)
        assert violation.details["region"] == other.index

    def test_non_word_header_fires(self):
        heap, objs = populated_heap()
        objs[0].header = hdr.MASK_64 + 1
        violation = expect_violation("header/bits", heap)
        assert violation.details["region"] == objs[0].region.index


class TestHeaderFaults:
    def test_stray_age_bits_fire_under_aging_collector(self):
        heap, objs = populated_heap()
        obj = objs[3]  # OLD-space object, so no eden placement rule
        obj.header = hdr.set_age(obj.header, 3)  # never copied, yet aged
        violation = expect_violation(
            "header/age", heap, collector=_Capabilities(ages_on_copy=True)
        )
        assert violation.details["age"] == 3
        assert violation.details["copies"] == 0

    def test_age_beyond_copies_fires_even_without_aging(self):
        heap, objs = populated_heap()
        obj = objs[3]
        obj.header = hdr.set_age(obj.header, 2)
        expect_violation("header/age", heap, collector=_Capabilities())

    def test_age_equal_to_copies_passes(self):
        heap, objs = populated_heap()
        obj = objs[3]
        obj.copies = 2
        obj.header = hdr.set_age(obj.header, 2)
        HeapVerifier().verify(heap, collector=_Capabilities(ages_on_copy=True))

    def test_biased_bit_without_lock_record_fires(self):
        heap, objs = populated_heap()
        obj = objs[2]
        obj.header = hdr.bias_lock(obj.header, 0x7F00_0100)
        violation = expect_violation(
            "header/bias-agreement", heap, biased=BiasedLockManager()
        )
        assert violation.details["region"] == obj.region.index
        assert "0x7f00" in violation.format()  # thread pointer rendered hex

    def test_bias_pointer_disagreeing_with_record_fires(self):
        heap, objs = populated_heap()
        obj = objs[2]
        manager = BiasedLockManager()
        manager.lock(SimThread(5), obj)
        # profiling write lands on a live lock word (the Section 3.2.2
        # hazard the checker exists to catch)
        obj.header = hdr.install_context(obj.header, 0x1234)
        violation = expect_violation("header/bias-agreement", heap, biased=manager)
        assert violation.details["thread"] == 5

    def test_record_without_biased_bit_fires(self):
        heap, objs = populated_heap()
        obj = objs[2]
        manager = BiasedLockManager()
        manager.lock(SimThread(5), obj)
        obj.header = hdr.revoke_bias(obj.header)  # bit cleared, record kept
        violation = expect_violation("header/bias-agreement", heap, biased=manager)
        assert violation.details["thread"] == 5

    def test_live_bias_with_record_passes(self):
        heap, objs = populated_heap()
        manager = BiasedLockManager()
        manager.lock(SimThread(5), objs[2])
        HeapVerifier().verify(heap, biased=manager)


class TestPlacementFaults:
    def test_aged_object_in_eden_fires(self):
        heap, objs = populated_heap()
        obj = objs[0]
        obj.copies = 3  # keep header/age consistent: the *placement* is wrong
        obj.header = hdr.set_age(obj.header, 3)
        violation = expect_violation("placement/eden-age", heap)
        assert violation.details["age"] == 3

    def test_survivor_object_below_window_fires(self):
        heap = small_heap()
        obj = SimObject(256, 0)
        heap.allocate(obj, Space.SURVIVOR)  # age 0: must have been copied
        violation = expect_violation(
            "placement/survivor-age",
            heap,
            collector=_Capabilities(ages_on_copy=True, tenuring_threshold=4),
        )
        assert violation.details["tenuring_threshold"] == 4

    def test_survivor_object_at_threshold_fires(self):
        heap = small_heap()
        obj = SimObject(256, 0)
        obj.copies = 4
        obj.header = hdr.set_age(obj.header, 4)
        heap.allocate(obj, Space.SURVIVOR)
        expect_violation(
            "placement/survivor-age",
            heap,
            collector=_Capabilities(ages_on_copy=True, tenuring_threshold=4),
        )

    def test_dynamic_region_gen_out_of_range_fires(self):
        heap = small_heap()
        region = heap.claim_region(Space.DYNAMIC, gen=15)  # 15 is OLD's number
        region.allocate(SimObject(128, 0))
        violation = expect_violation("placement/dynamic-gen", heap)
        assert violation.details["gen"] == 15

    def test_dynamic_region_under_non_ng2c_collector_fires(self):
        heap = small_heap()
        heap.claim_region(Space.DYNAMIC, gen=3).allocate(SimObject(128, 0))
        violation = expect_violation(
            "placement/dynamic-unsupported", heap, collector=_Capabilities()
        )
        assert violation.details["collector"] == "stub"

    def test_dynamic_region_with_support_passes(self):
        heap = small_heap()
        heap.claim_region(Space.DYNAMIC, gen=3).allocate(SimObject(128, 0))
        HeapVerifier().verify(
            heap, collector=_Capabilities(supports_dynamic_gens=True)
        )

    def test_generation_number_on_plain_region_fires(self):
        heap = small_heap()
        region = heap.claim_region(Space.OLD)
        region.gen = 3  # only DYNAMIC regions carry generations
        violation = expect_violation("placement/space-gen", heap)
        assert violation.details["space"] == "old"


class TestViolationStructure:
    def test_violation_carries_rule_and_identifiers(self):
        heap, objs = populated_heap()
        objs[0].region.used += 1
        try:
            HeapVerifier().verify(heap, phase="before-gc")
        except InvariantViolation as exc:
            assert exc.rule == "heap/region-used"
            assert exc.details["phase"] == "before-gc"
            assert exc.format().startswith("[heap/region-used]")
            doc = exc.as_dict()
            assert doc["rule"] == "heap/region-used"
            assert doc["details"]["region"] == objs[0].region.index
        else:  # pragma: no cover - the fault must fire
            pytest.fail("verifier did not fire")

    def test_violation_pickles_across_pool_workers(self):
        original = InvariantViolation(
            "heap/committed", "drift", region=3, committed_bytes=1 << 20
        )
        clone = pickle.loads(pickle.dumps(original))
        assert clone.rule == original.rule
        assert clone.details == original.details
        assert str(clone) == str(original)


class TestDefaultsAndWiring:
    def test_verification_is_off_by_default(self):
        assert VMFlags().verify_level == 0
        vm = JavaVM(G1Collector(RegionHeap(8 << 20), BandwidthModel()))
        assert vm.verifier is NULL_VERIFIER
        assert not vm.verifier.enabled
        assert vm.collector.verifier is NULL_VERIFIER

    def test_null_verifier_hooks_are_noops(self):
        assert NULL_VERIFIER.verify_heap(None) == 0
        NULL_VERIFIER.at_gc_start(None)
        NULL_VERIFIER.at_safepoint(None)
        NULL_VERIFIER.on_bias_lock(None, None)
        assert NULL_VERIFIER.checks_run == 0

    def test_make_verifier_levels(self):
        assert make_verifier(0) is NULL_VERIFIER
        assert make_verifier(1).locks is None
        assert make_verifier(2).locks is not None

    def test_invalid_level_rejected(self):
        with pytest.raises(ValueError):
            VMFlags(verify_level=5)
        with pytest.raises(ValueError):
            VerifierSuite(0)

    def test_ambient_level_applies_to_new_vms(self):
        previous = set_default_verify_level(2)
        try:
            vm = JavaVM(G1Collector(RegionHeap(8 << 20), BandwidthModel()))
            assert isinstance(vm.verifier, VerifierSuite)
            assert vm.verifier.level == 2
            # explicit flags always win over the ambient default
            off = JavaVM(
                G1Collector(RegionHeap(8 << 20), BandwidthModel()),
                flags=VMFlags(verify_level=0),
            )
            assert off.verifier is NULL_VERIFIER
        finally:
            set_default_verify_level(previous)

    def test_gc_boundaries_drive_the_verifier(self):
        heap = RegionHeap(8 << 20)
        vm = JavaVM(
            G1Collector(heap, BandwidthModel()), flags=VMFlags(verify_level=1)
        )
        assert vm.collector.verifier is vm.verifier
        vm.collector.collect_full("test")
        assert vm.verifier.checks_run > 0
        assert vm.verifier.violations == 0
