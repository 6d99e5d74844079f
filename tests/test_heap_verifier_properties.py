"""Property-based tests: the heap's incremental accounting always
agrees with the verifier's independent walk.

Random allocate/release sequences drive :class:`RegionHeap` through
every lifecycle path (bump allocation, region claiming, humongous
stretching, wholesale release), and after every step the verifier's
re-derived aggregates must match both the heap's counters and an
externally tracked model.  The verifier also runs end-to-end
under every collector's random workload to prove GC-boundary walks
never false-positive on healthy heaps.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.heap_verifier import HeapVerifier
from repro.gc.cms import CMSCollector
from repro.gc.g1 import G1Collector
from repro.gc.ng2c import NG2CCollector
from repro.gc.zgc import ZGCCollector
from repro.heap import BandwidthModel, RegionHeap
from repro.heap.heap import SimOutOfMemoryError
from repro.heap.object_model import SimObject
from repro.heap.region import Space

REGION = 1 << 16  # 64 KiB regions keep the humongous path reachable

ALLOC_SPACES = (Space.EDEN, Space.SURVIVOR, Space.OLD)

#: an op: (kind, space selector, size in bytes)
#: sizes reach past 2*REGION so spanning humongous objects occur
ops = st.lists(
    st.tuples(
        st.sampled_from(["alloc", "release"]),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=16, max_value=3 * REGION),
    ),
    min_size=1,
    max_size=60,
)


def apply_ops(heap, sequence):
    """Replay an op sequence; returns the externally tracked live model."""
    allocated = []  # every object successfully placed
    for kind, which, size in sequence:
        space = ALLOC_SPACES[which]
        if kind == "alloc":
            obj = SimObject(size, 0)
            try:
                heap.allocate(obj, space)
            except SimOutOfMemoryError:
                continue  # heap full: a legal outcome, not a corruption
            allocated.append(obj)
        else:  # release a committed, non-humongous region wholesale
            victims = [
                r
                for r in heap.regions
                if r.space in ALLOC_SPACES
            ]
            if victims:
                victim = victims[which % len(victims)]
                for obj in victim.objects:
                    allocated.remove(obj)
                heap.release_region(victim)
    return allocated


class TestAccountingAgainstTheWalk:
    @settings(deadline=None, max_examples=60)
    @given(sequence=ops)
    def test_walk_matches_counters_after_every_step(self, sequence):
        heap = RegionHeap(32 * REGION, region_bytes=REGION)
        verifier = HeapVerifier()
        live = apply_ops(heap, sequence)
        checks = verifier.verify(heap)
        assert checks > 0
        assert verifier.violations == 0
        # the verifier passed; cross-check its subject against the
        # external model so "passed" cannot mean "checked nothing"
        assert heap.used_bytes() == sum(obj.size for obj in live)
        assert heap.free_regions == sum(
            1 for r in heap.regions if r.space is Space.FREE
        )
        assert heap.committed_bytes == (
            len(heap.regions) - heap.free_regions
        ) * REGION
        assert heap.max_committed_bytes >= heap.committed_bytes

    @settings(deadline=None, max_examples=60)
    @given(sequence=ops)
    def test_verifier_detects_planted_drift(self, sequence):
        """Whatever state the ops produce, one planted byte of counter
        drift in any occupied region must be caught."""
        heap = RegionHeap(32 * REGION, region_bytes=REGION)
        apply_ops(heap, sequence)
        occupied = [r for r in heap.regions if r.space is not Space.FREE]
        if not occupied:
            return
        occupied[len(occupied) // 2].used += 1
        verifier = HeapVerifier()
        try:
            verifier.verify(heap)
        except Exception as exc:  # noqa: BLE001 - asserting on the type below
            assert exc.__class__.__name__ == "InvariantViolation"
            assert verifier.violations == 1
        else:
            raise AssertionError("planted drift went undetected")

    @settings(deadline=None, max_examples=40)
    @given(
        sizes=st.lists(
            st.integers(min_value=REGION // 2 + 1, max_value=4 * REGION),
            min_size=1,
            max_size=6,
        )
    )
    def test_humongous_claims_exactly_cover_their_capacity(self, sizes):
        heap = RegionHeap(64 * REGION, region_bytes=REGION)
        placed = 0
        for size in sizes:
            try:
                heap.allocate(SimObject(size, 0), Space.EDEN)
            except SimOutOfMemoryError:
                break
            placed += 1
        verifier = HeapVerifier()
        verifier.verify(heap)
        humongous = heap.regions_in(Space.HUMONGOUS)
        assert sum(r.capacity for r in humongous) == len(humongous) * REGION
        assert sum(len(r.objects) for r in humongous) == placed


#: a GC-workload step, as in test_gc_properties: (kb, lifetime, gen hint)
gc_steps = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=64),
        st.one_of(st.none(), st.integers(min_value=0, max_value=30)),
        st.integers(min_value=0, max_value=15),
    ),
    min_size=1,
    max_size=80,
)

COLLECTORS = [
    lambda heap: G1Collector(heap, BandwidthModel(), young_regions=2),
    lambda heap: CMSCollector(heap, BandwidthModel(), young_regions=2),
    lambda heap: ZGCCollector(heap, BandwidthModel()),
    lambda heap: NG2CCollector(
        heap, BandwidthModel(), young_regions=2, use_profiler_advice=False
    ),
]
IDS = ["g1", "cms", "zgc", "ng2c"]


class TestCollectorsNeverTripTheVerifier:
    @settings(deadline=None, max_examples=25)
    @given(steps=gc_steps, which=st.integers(min_value=0, max_value=3))
    def test_random_workload_walks_clean(self, steps, which):
        heap = RegionHeap(8 << 20)
        collector = COLLECTORS[which](heap)
        verifier = HeapVerifier()
        for kb, lifetime, gen_hint in steps:
            collector.clock.advance_mutator(1000)
            now = collector.clock.now_ns
            death = now + lifetime * 1000 if lifetime is not None else float("inf")
            try:
                collector.allocate(kb << 10, 0, death, gen_hint)
            except SimOutOfMemoryError:
                break
            verifier.verify(heap, collector=collector, phase="property")
        collector.collect_full("property-final")
        verifier.verify(heap, collector=collector, phase="property-final")
        assert verifier.violations == 0
