"""Region-based simulated heap substrate.

Public surface: the 64-bit header bit model, simulated objects, regions,
the region heap, the bandwidth cost model, and fragmentation metrics.
"""

from repro.heap.bandwidth import BandwidthModel
from repro.heap.fragmentation import fragmented_regions, guilty_contexts
from repro.heap.heap import RegionHeap, SimOutOfMemoryError
from repro.heap.object_model import IMMORTAL, SimObject
from repro.heap.region import DEFAULT_REGION_BYTES, Region, Space

__all__ = [
    "BandwidthModel",
    "DEFAULT_REGION_BYTES",
    "IMMORTAL",
    "Region",
    "RegionHeap",
    "SimObject",
    "SimOutOfMemoryError",
    "Space",
    "fragmented_regions",
    "guilty_contexts",
]
