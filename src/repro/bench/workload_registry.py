"""The six large-scale workloads of the paper's evaluation (Table 1),
constructable by name, plus shared run helpers for the benchmarks."""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.workloads.adversarial import make_adversarial
from repro.workloads.base import Workload, run_workload
from repro.workloads.graph import GraphChiWorkload
from repro.workloads.kvstore import CassandraWorkload
from repro.workloads.search import LuceneWorkload
from repro.workloads.traced import make_traced_sample
from repro.bench.config import CASSANDRA_OPS, GRAPHCHI_OPS, LUCENE_OPS, scaled_ops

#: constructors for the paper's six large-scale workloads; every
#: constructor accepts the base Workload kwargs (notably ``seed``)
BIG_WORKLOADS: Dict[str, Callable[..., Workload]] = {
    "cassandra-wi": CassandraWorkload.write_intensive,
    "cassandra-rw": CassandraWorkload.read_write,
    "cassandra-ri": CassandraWorkload.read_intensive,
    "lucene": LuceneWorkload,
    "graphchi-cc": lambda **kwargs: GraphChiWorkload("cc", **kwargs),
    "graphchi-pr": lambda **kwargs: GraphChiWorkload("pr", **kwargs),
}

#: per-workload default operation counts (pre-scaling).  The read-heavy
#: Cassandra mixes fill the memtable proportionally slower, so their
#: profile (and hence their run) needs proportionally more operations to
#: get past warmup — mirroring the paper's fixed 30-minute wall-clock
#: runs, which give every mix the same amount of GC activity.
BIG_WORKLOAD_OPS: Dict[str, int] = {
    "cassandra-wi": CASSANDRA_OPS,
    "cassandra-rw": int(CASSANDRA_OPS * 1.4),
    "cassandra-ri": int(CASSANDRA_OPS * 2.0),
    "lucene": LUCENE_OPS,
    "graphchi-cc": GRAPHCHI_OPS,
    "graphchi-pr": GRAPHCHI_OPS,
}

#: additional registered workloads (adversarial/traced).  Deliberately a
#: SEPARATE table: default experiment grids iterate
#: ``sorted(BIG_WORKLOADS)`` and their goldens must not change when new
#: scenarios are registered; extras are opt-in via ``--workloads`` and
#: the fuzz machinery.
EXTRA_WORKLOADS: Dict[str, Callable[..., Workload]] = {
    "adversarial": lambda **kwargs: make_adversarial(**kwargs),
    "traced-sample": lambda **kwargs: make_traced_sample(**kwargs),
}

#: default (pre-scaling) operation counts for the extras
EXTRA_WORKLOAD_OPS: Dict[str, int] = {
    "adversarial": 20_000,
    "traced-sample": 30_000,
}


def all_workload_names():
    """Every constructable workload name (paper six + extras), sorted."""
    return sorted(set(BIG_WORKLOADS) | set(EXTRA_WORKLOADS))


def make_big_workload(name: str, seed: Optional[int] = None) -> Workload:
    """Construct a workload by name; ``seed=None`` keeps each
    workload's own default (the experiment runner passes per-cell
    derived seeds)."""
    constructor = BIG_WORKLOADS.get(name) or EXTRA_WORKLOADS.get(name)
    if constructor is None:
        raise KeyError(
            "unknown workload %r (have: %s)"
            % (name, ", ".join(all_workload_names()))
        )
    return constructor() if seed is None else constructor(seed=seed)


def big_workload_ops(name: str) -> int:
    """The scaled default operation count for a registered workload."""
    ops = BIG_WORKLOAD_OPS.get(name)
    if ops is None:
        ops = EXTRA_WORKLOAD_OPS[name]
    return scaled_ops(ops)


def run_big_workload(
    name: str,
    collector: str,
    operations: Optional[int] = None,
    seed: Optional[int] = None,
    **kwargs,
):
    """Run one of the six workloads; returns ``(RunResult, Workload)``."""
    workload = make_big_workload(name, seed=seed)
    ops = operations if operations is not None else big_workload_ops(name)
    result = run_workload(workload, collector, operations=ops, **kwargs)
    return result, workload


def run_summary(
    name: str, collector: str, operations: int, seed: int, telemetry
) -> Dict[str, object]:
    """One whole run summarised as a row: what ``rolp-bench trace``
    prints and what a served run or session step returns."""
    result, _ = run_big_workload(
        name, collector, operations=operations, seed=seed, telemetry=telemetry
    )
    return {
        "workload": name,
        "collector": collector,
        "operations": result.operations,
        "elapsed_ms": result.elapsed_ms,
        "throughput_ops_s": result.throughput_ops_s,
        "pause_count": len(result.pauses),
        "total_pause_ms": sum(result.pause_ms),
        "gc_cycles": result.gc_cycles,
        "max_memory_bytes": result.max_memory_bytes,
    }
