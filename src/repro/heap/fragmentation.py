"""Heap fragmentation metrics.

Section 6 of the paper: when the lifetime of objects allocated through a
context *decreases*, the only visible symptom is rising fragmentation in
the regions those objects were pretenured into — dead objects stranded
among live ones.  The collector reports fragmentation at the end of each
tracing cycle; ROLP then identifies the offending allocation contexts and
decrements their estimated lifetimes.

This module finds the over-fragmented regions and attributes their dead
bytes to allocation contexts.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List

from repro.heap.region import Region, Space


def fragmented_regions(
    regions: Iterable[Region], now_ns: int, threshold: float = 0.25
) -> List[Region]:
    """Regions whose garbage fraction exceeds ``threshold``.

    These are the regions whose live objects will have to be evacuated,
    i.e. the ones that generate copy cost.
    """
    return [
        r
        for r in regions
        if r.space is not Space.FREE and r.used > 0 and r.fragmentation(now_ns) > threshold
    ]


def dead_bytes_by_context(regions: Iterable[Region], now_ns: int) -> Dict[int, int]:
    """Dead bytes per allocation context across ``regions``.

    Context 0 (unprofiled allocations) is skipped — there is no
    profiling decision to revise for it; biased-locked headers carry a
    clobbered context and are skipped too.
    """
    blame: Dict[int, int] = defaultdict(int)
    for region in regions:
        for obj in region.objects:
            if obj.is_live(now_ns):
                continue
            context = obj.context
            if context and not obj.biased_locked:
                blame[context] += obj.size
    return dict(blame)


def guilty_contexts(
    regions: Iterable[Region], now_ns: int, threshold: float = 0.25
) -> Dict[int, int]:
    """Allocation contexts responsible for fragmentation, with dead bytes.

    For each over-threshold region, attribute its *dead* bytes to the
    allocation contexts of the dead objects.  ROLP uses this map to
    decrement the estimated lifetime of over-tenured contexts
    (Section 6).
    """
    return dead_bytes_by_context(fragmented_regions(regions, now_ns, threshold), now_ns)
