"""Garbage collector models: G1, CMS, ZGC, and the NG2C pretenuring
collector that consumes ROLP advice."""

from repro.gc.cms import CMSCollector
from repro.gc.collector import Collector, PauseEvent
from repro.gc.g1 import G1Collector
from repro.gc.generational import GenerationalCollector
from repro.gc.ng2c import NG2CCollector, OLD_GEN
from repro.gc.zgc import ZGCCollector

__all__ = [
    "CMSCollector",
    "Collector",
    "G1Collector",
    "GenerationalCollector",
    "NG2CCollector",
    "OLD_GEN",
    "PauseEvent",
    "ZGCCollector",
]
