"""HotSpot ``-XX:+VerifyBeforeGC/AfterGC``-style heap walker.

Independently re-derives every aggregate the :class:`RegionHeap` keeps
incrementally (free counts, committed bytes, per-region ``used``) and
checks each object header against the invariants the paper relies on:
age tracks survival count, the allocation context round-trips through
:mod:`repro.heap.header`, biased-lock bits agree with the
:class:`BiasedLockManager`'s records, and objects sit in regions whose
space/generation matches what the collector's placement policy allows.

The walk is O(regions + objects) and runs only at GC pause boundaries
and safepoints when verification is enabled, mirroring HotSpot's
approach of paying the full-heap walk only under a debug flag.
"""

from __future__ import annotations

from repro.analysis.violations import InvariantViolation
from repro.heap import header as hdr
from repro.heap.heap import RegionHeap
from repro.heap.region import Region, Space
from repro.telemetry import NULL_TELEMETRY

#: Dynamic generations NG2C may place objects in (OLD is gen 15, young 0).
_DYNAMIC_GENS = range(1, hdr.NUM_AGES - 1)


class HeapVerifier:
    """Walks a :class:`RegionHeap` and raises on the first inconsistency.

    The verifier never mutates the heap; it may therefore run between
    any two simulation steps without perturbing results.  Collector
    capability flags (``ages_on_copy``, ``in_place_old_sweep``,
    ``supports_dynamic_gens``) select which placement/aging rules apply,
    so one walker serves G1, CMS, ZGC and NG2C alike.
    """

    def __init__(self) -> None:
        self.checks_run = 0
        self.violations = 0
        self._phase = "manual"
        self._in_place_waste = False
        self.bind_telemetry(NULL_TELEMETRY)

    def bind_telemetry(self, telemetry) -> None:
        metrics = telemetry.metrics
        self._m_checks = metrics.counter(
            "verify_checks_total", "Invariant checks executed by the heap verifier"
        )
        self._m_violations = metrics.counter(
            "verify_violations_total", "Invariant violations detected, by rule"
        )

    # -- entry point ---------------------------------------------------------

    def verify(
        self,
        heap: RegionHeap,
        collector=None,
        biased=None,
        phase: str = "manual",
    ) -> int:
        """Walk ``heap`` and return the number of checks performed.

        Raises :class:`InvariantViolation` on the first broken invariant.
        ``biased`` is the VM's :class:`BiasedLockManager` (header bias
        bits are cross-checked against its records when provided).
        """
        self._phase = phase
        self._in_place_waste = bool(getattr(collector, "in_place_old_sweep", False))
        before = self.checks_run
        try:
            self._verify_region_table(heap)
            self._verify_alloc_cache(heap)
            self._verify_space_counts(heap)
            self._verify_stored_triggers(heap, collector)
            self._verify_humongous(heap)
            self._verify_objects(heap, collector, biased)
            if biased is not None:
                self._verify_bias_records(biased)
        finally:
            done = self.checks_run - before
            self._m_checks.inc(done)
        return done

    # -- failure plumbing ----------------------------------------------------

    def _check(self, ok: bool, rule: str, message: str, **details: object) -> None:
        self.checks_run += 1
        if not ok:
            self.violations += 1
            self._m_violations.inc(1, rule=rule)
            raise InvariantViolation(rule, message, phase=self._phase, **details)

    # -- region table --------------------------------------------------------

    def _verify_region_table(self, heap: RegionHeap) -> None:
        free_spaces = 0
        for position, region in enumerate(heap.regions):
            self._check(
                region.index == position,
                "heap/region-index",
                "region table position does not match region.index",
                region=region.index,
                position=position,
            )
            if region.space is Space.FREE:
                free_spaces += 1
                self._check(
                    region.used == 0 and not region.objects and region.gen == 0,
                    "heap/free-list",
                    "free region still carries contents",
                    region=region.index,
                    used=region.used,
                    objects=len(region.objects),
                )
            else:
                object_bytes = sum(o.size for o in region.objects)
                slack_ok = self._used_matches(region, object_bytes, heap)
                self._check(
                    0 <= region.used <= region.capacity and slack_ok,
                    "heap/region-used",
                    "region used-byte accounting disagrees with its object list",
                    region=region.index,
                    space=region.space.value,
                    used=region.used,
                    object_bytes=object_bytes,
                    capacity=region.capacity,
                )
        free_list = heap.free_list()
        self._check(
            len(free_list) == free_spaces,
            "heap/free-list",
            "free-list length disagrees with FREE-space region count",
            free_list=len(free_list),
            free_regions=free_spaces,
        )
        self._check(
            all(r.space is Space.FREE for r in free_list),
            "heap/free-list",
            "free list holds a non-free region",
        )
        expected_committed = (len(heap.regions) - free_spaces) * heap.region_bytes
        self._check(
            heap.committed_bytes == expected_committed,
            "heap/committed",
            "committed-byte counter disagrees with the region walk",
            committed_bytes=heap.committed_bytes,
            expected=expected_committed,
        )
        # ``in_place_old_sweep`` can leave waste, so the aggregate is a
        # lower bound there; everywhere else this catches drift between
        # the incremental counters and reality.
        self._check(
            heap.used_bytes() <= heap.committed_bytes,
            "heap/committed",
            "used bytes exceed committed bytes",
            used_bytes=heap.used_bytes(),
            committed_bytes=heap.committed_bytes,
        )

    def _used_matches(self, region: Region, object_bytes: int, heap: RegionHeap) -> bool:
        """Exact equality, except spaces where a sweep legitimately
        leaves dead bytes behind (CMS's non-moving old sweep)."""
        if self._in_place_waste and region.space in (Space.OLD, Space.HUMONGOUS):
            return object_bytes <= region.used
        return object_bytes == region.used

    # -- allocation-region cache ---------------------------------------------

    def _verify_alloc_cache(self, heap: RegionHeap) -> None:
        for (space, gen), region in heap.alloc_region_map().items():
            self._check(
                region.space is space and region.gen == gen,
                "heap/alloc-cache",
                "cached allocation region retargeted without cache update",
                region=region.index,
                cached_space=space.value,
                cached_gen=gen,
                actual_space=region.space.value,
                actual_gen=region.gen,
            )

    # -- per-space region counters ---------------------------------------------

    def _verify_space_counts(self, heap: RegionHeap) -> None:
        """The incrementally maintained per-space counts (the collectors'
        O(1) triggering checks read these) must agree with a region walk.

        Ordered after the region-table and alloc-cache rules so that a
        fault with a more specific cause (e.g. a region retargeted behind
        the cache's back) is reported under its own rule first.
        """
        walked = {space: 0 for space in Space}
        for region in heap.regions:
            walked[region.space] += 1
        for space in Space:
            self._check(
                heap.space_counts[space] == walked[space],
                "heap/space-counts",
                "incremental per-space region count disagrees with the walk",
                space=space.value,
                counted=heap.space_counts[space],
                walked=walked[space],
            )

    # -- stored trigger inputs ---------------------------------------------------

    def _verify_stored_triggers(self, heap: RegionHeap, collector) -> None:
        """The values the per-allocation triggers read as plain values
        must equal what they stand for: the heap's occupancy (recomputed
        at every region claim and release) and a CMS collector's old-space
        waste fraction (recomputed where promotion, the sweep or a
        compaction changes it)."""
        committed = sum(1 for r in heap.regions if r.space is not Space.FREE)
        expected = committed * heap.region_bytes / heap.capacity_bytes
        self._check(
            heap.occupancy == expected,
            "heap/occupancy",
            "stored heap occupancy disagrees with the region walk",
            occupancy=heap.occupancy,
            expected=expected,
        )
        if self._in_place_waste:
            walked = collector._old_waste_fraction()
            self._check(
                collector.waste_fraction == walked,
                "gc/waste-fraction",
                "stored old-space waste fraction disagrees with the region walk",
                collector=collector.name,
                stored=collector.waste_fraction,
                walked=walked,
            )

    # -- humongous contiguity --------------------------------------------------

    def _verify_humongous(self, heap: RegionHeap) -> None:
        humongous = heap.regions_in(Space.HUMONGOUS)
        claimed_capacity = 0
        for region in humongous:
            claimed_capacity += region.capacity
            self._check(
                len(region.objects) <= 1,
                "heap/humongous",
                "humongous region shared by multiple objects",
                region=region.index,
                objects=len(region.objects),
            )
            self._check(
                region.capacity % heap.region_bytes == 0,
                "heap/humongous",
                "humongous capacity not a whole number of regions",
                region=region.index,
                capacity=region.capacity,
            )
        # Stretched head capacities must exactly account for the
        # zero-capacity continuation regions claimed alongside them.
        self._check(
            claimed_capacity == len(humongous) * heap.region_bytes,
            "heap/humongous",
            "humongous capacities do not cover the claimed region count",
            capacity_sum=claimed_capacity,
            regions=len(humongous),
            region_bytes=heap.region_bytes,
        )

    # -- objects ----------------------------------------------------------------

    def _verify_objects(self, heap: RegionHeap, collector, biased) -> None:
        ages_on_copy = bool(getattr(collector, "ages_on_copy", False))
        dynamic_ok = bool(getattr(collector, "supports_dynamic_gens", False))
        threshold = getattr(collector, "tenuring_threshold", None)
        seen = set()
        for region in heap.regions:
            if region.space is Space.FREE:
                continue
            self._verify_region_placement(region, collector, dynamic_ok)
            for obj in region.objects:
                self._check(
                    id(obj) not in seen,
                    "heap/duplicate-object",
                    "object reachable from two regions",
                    region=region.index,
                    size=obj.size,
                )
                seen.add(id(obj))
                self._check(
                    obj.region is region,
                    "heap/backpointer",
                    "object's region back-pointer disagrees with the walk",
                    region=region.index,
                    backpointer=getattr(obj.region, "index", None),
                )
                self._verify_header(obj, region, collector, ages_on_copy, biased)
                self._verify_placement(obj, region, ages_on_copy, threshold)

    def _verify_region_placement(self, region: Region, collector, dynamic_ok: bool) -> None:
        if region.space is Space.DYNAMIC:
            self._check(
                region.gen in _DYNAMIC_GENS,
                "placement/dynamic-gen",
                "dynamic region generation outside NG2C's 1..14 range",
                region=region.index,
                gen=region.gen,
            )
            self._check(
                collector is None or dynamic_ok,
                "placement/dynamic-unsupported",
                "dynamic-generation region under a collector without "
                "dynamic-generation support",
                region=region.index,
                collector=getattr(collector, "name", None),
            )
        else:
            self._check(
                region.gen == 0,
                "placement/space-gen",
                "non-dynamic region carries a generation number",
                region=region.index,
                space=region.space.value,
                gen=region.gen,
            )

    def _verify_header(
        self, obj, region: Region, collector, ages_on_copy: bool, biased
    ) -> None:
        header = obj.header
        self._check(
            isinstance(header, int) and 0 <= header <= hdr.MASK_64,
            "header/bits",
            "header is not a 64-bit word",
            region=region.index,
            header=header,
        )
        # Round-trip: rewriting each field with its own value must be the
        # identity, i.e. no field leaks into a neighbour's bits.
        roundtrip = hdr.install_context(header, hdr.extract_context(header))
        roundtrip = hdr.set_age(roundtrip, hdr.get_age(roundtrip))
        roundtrip = hdr.set_identity_hash(roundtrip, hdr.get_identity_hash(roundtrip))
        self._check(
            roundtrip == header,
            "header/roundtrip",
            "header fields do not round-trip through repro.heap.header",
            region=region.index,
            header=header,
            roundtrip=roundtrip,
        )
        context = hdr.extract_context(header)
        self._check(
            hdr.pack_context(hdr.context_site(context), hdr.context_stack_state(context))
            == context,
            "header/roundtrip",
            "allocation context does not round-trip through pack_context",
            region=region.index,
            context=context,
        )
        if collector is not None:
            age, copies = obj.age, obj.copies
            if ages_on_copy:
                ok = age == min(copies, hdr.MAX_AGE)
            else:
                ok = age <= copies
            self._check(
                ok,
                "header/age",
                "object age disagrees with its GC survival count",
                region=region.index,
                age=age,
                copies=copies,
            )
        if biased is not None and hdr.is_biased_locked(header):
            record = biased.bias_record(obj)
            self._check(
                record is not None,
                "header/bias-agreement",
                "biased-lock bit set but the lock manager has no record",
                region=region.index,
                context=context,
            )
            thread_pointer, thread_id = record
            self._check(
                context == thread_pointer,
                "header/bias-agreement",
                "biased header's thread pointer disagrees with the lock record",
                region=region.index,
                context=context,
                thread_pointer=thread_pointer,
                thread=thread_id,
            )

    def _verify_placement(self, obj, region: Region, ages_on_copy: bool, threshold) -> None:
        if region.space is Space.EDEN:
            self._check(
                obj.age == 0,
                "placement/eden-age",
                "aged object sitting in eden",
                region=region.index,
                age=obj.age,
                context=obj.context,
            )
        elif region.space is Space.SURVIVOR and ages_on_copy:
            self._check(
                1 <= obj.age and (threshold is None or obj.age < threshold),
                "placement/survivor-age",
                "survivor-space object outside the 1..tenuring-threshold window",
                region=region.index,
                age=obj.age,
                tenuring_threshold=threshold,
            )

    # -- bias-record reverse direction ------------------------------------------

    def _verify_bias_records(self, biased) -> None:
        for obj, thread_pointer, thread_id in biased.iter_bias_records():
            self._check(
                hdr.is_biased_locked(obj.header),
                "header/bias-agreement",
                "lock manager records a bias the header does not carry",
                thread=thread_id,
                thread_pointer=thread_pointer,
                context=hdr.extract_context(obj.header),
            )
