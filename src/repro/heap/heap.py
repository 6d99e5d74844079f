"""Region-based heap manager.

Owns the region table, hands out allocation regions per space, and keeps
aggregate accounting (used bytes, per-space region counts, max footprint).
Collectors sit on top of this: they decide *which* regions to evacuate;
the heap provides the mechanism (claim region, allocate, reset).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.heap.object_model import SimObject
from repro.heap.region import DEFAULT_REGION_BYTES, Region, Space


class SimOutOfMemoryError(MemoryError):
    """Raised when no free region can satisfy an allocation.

    Subclasses :class:`MemoryError` so generic handlers still work, but
    the prefixed name keeps simulated-heap exhaustion visually distinct
    from the interpreter's own memory errors at ``except`` sites.
    """


class RegionHeap:
    """A fixed-capacity heap carved into equal regions.

    Parameters
    ----------
    capacity_bytes:
        Total heap size (the paper's workloads use 6 GB; DaCapo sizes per
        Table 2).
    region_bytes:
        Region size; objects larger than half a region are treated as
        humongous and get dedicated regions.
    """

    def __init__(
        self,
        capacity_bytes: int,
        region_bytes: int = DEFAULT_REGION_BYTES,
    ) -> None:
        if capacity_bytes < region_bytes:
            raise ValueError("heap must hold at least one region")
        self.region_bytes = region_bytes
        self.regions: List[Region] = [
            Region(i, region_bytes) for i in range(capacity_bytes // region_bytes)
        ]
        self._free: List[Region] = list(reversed(self.regions))
        #: current allocation region per (space, gen)
        self._alloc_region: Dict[Tuple[Space, int], Region] = {}
        #: high-water mark of committed (non-free) bytes
        self.max_committed_bytes = 0
        self._committed_regions = 0
        #: humongous threshold, hoisted off the per-allocation path
        self._humongous_bytes = region_bytes // 2
        self._capacity_bytes = len(self.regions) * region_bytes
        #: per-space region counts, read in place by the collectors'
        #: per-allocation triggers.  Sound because a region's space only
        #: ever changes through claim_region (FREE -> space, via
        #: Region.retarget) and release_region (space -> FREE, via
        #: Region.reset); the heap verifier cross-checks these against a
        #: region walk.
        self.space_counts: Dict[Space, int] = {space: 0 for space in Space}
        self.space_counts[Space.FREE] = len(self.regions)
        #: committed fraction of total capacity.  A plain value, read by
        #: every collector's per-allocation trigger: claim_region and
        #: release_region (the only places the committed-region count
        #: changes) recompute it with one expression, and the heap
        #: verifier cross-checks it against a region walk.
        self.occupancy = 0.0

    # -- capacity -----------------------------------------------------------

    @property
    def capacity_bytes(self) -> int:
        return self._capacity_bytes

    @property
    def free_regions(self) -> int:
        return len(self._free)

    @property
    def committed_bytes(self) -> int:
        return self._committed_regions * self.region_bytes

    def used_bytes(self) -> int:
        return sum(r.used for r in self.regions if r.space is not Space.FREE)

    def regions_in(self, space: Space, gen: Optional[int] = None) -> List[Region]:
        return [
            r
            for r in self.regions
            if r.space is space and (gen is None or r.gen == gen)
        ]

    # -- verifier views (read-only snapshots of internal state) --------------

    def free_list(self) -> Tuple[Region, ...]:
        """Snapshot of the free list, in pop order (for the verifier)."""
        return tuple(self._free)

    def alloc_region_map(self) -> Dict[Tuple[Space, int], Region]:
        """Snapshot of the per-(space, gen) bump-allocation cache."""
        return dict(self._alloc_region)

    # -- region lifecycle ----------------------------------------------------

    def claim_region(self, space: Space, gen: int = 0) -> Region:
        """Take a region off the free list for ``space``."""
        if not self._free:
            raise SimOutOfMemoryError(
                "heap exhausted: %d regions, none free" % len(self.regions)
            )
        region = self._free.pop()
        region.retarget(space, gen)
        self._committed_regions += 1
        counts = self.space_counts
        counts[Space.FREE] -= 1
        counts[space] += 1
        committed = self._committed_regions * self.region_bytes
        self.occupancy = committed / self._capacity_bytes
        if committed > self.max_committed_bytes:
            self.max_committed_bytes = committed
        return region

    def release_region(self, region: Region) -> None:
        """Reclaim a region wholesale (all contents garbage or evacuated)."""
        if region.space is Space.FREE:
            raise ValueError("region %d already free" % region.index)
        key = (region.space, region.gen)
        if self._alloc_region.get(key) is region:
            del self._alloc_region[key]
        counts = self.space_counts
        counts[region.space] -= 1
        counts[Space.FREE] += 1
        region.reset()
        self._free.append(region)
        self._committed_regions -= 1
        self.occupancy = self._committed_regions * self.region_bytes / self._capacity_bytes

    def current_alloc_region(self, space: Space, gen: int = 0) -> Optional[Region]:
        """The region currently receiving bump allocations for a space
        (None when the next allocation will claim a fresh region)."""
        return self._alloc_region.get((space, gen))

    # -- allocation ----------------------------------------------------------

    def allocate(self, obj: SimObject, space: Space, gen: int = 0) -> Region:
        """Allocate ``obj`` into ``space`` (bump pointer; claims regions
        as needed).  Humongous objects get dedicated regions.
        """
        size = obj.size
        if size > self._humongous_bytes:  # more than half a region
            return self._allocate_humongous(obj)
        key = (space, gen)
        region = self._alloc_region.get(key)
        if region is not None and region.used + size <= region.capacity:
            # Region.allocate's bump, in this frame: the steady state
            region.objects.append(obj)
            obj.region = region
            region.used += size
            return region
        region = self.claim_region(space, gen)
        self._alloc_region[key] = region
        region.allocate(obj)
        return region

    def _allocate_humongous(self, obj: SimObject) -> Region:
        if obj.size > self.region_bytes:
            # Spanning humongous objects are modelled as a single logical
            # region with stretched capacity; accounting stays correct
            # because used == capacity for the claimed footprint.
            spanned = -(-obj.size // self.region_bytes)
            if spanned > self.free_regions:
                raise SimOutOfMemoryError("no room for humongous object")
            region = self.claim_region(Space.HUMONGOUS)
            region.capacity = spanned * self.region_bytes
            # account for the extra physically-claimed regions
            for _ in range(spanned - 1):
                extra = self.claim_region(Space.HUMONGOUS)
                extra.capacity = 0
            region.allocate(obj)
            return region
        region = self.claim_region(Space.HUMONGOUS)
        region.allocate(obj)
        return region
