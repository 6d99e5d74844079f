"""Cassandra-like key-value store workload.

Models the GC-relevant anatomy of Apache Cassandra driven by YCSB:

* **write path** — mutations append 1 KB cells to an in-memory
  *memtable*; the cells live until the memtable fills and is flushed
  (middle-lived: a handful of GC cycles);
* **flush** — turns the memtable into an *SSTable*: data blocks, bloom
  filter and index summary objects that live until a compaction merges
  them away (long-lived);
* **compaction** — every ``compaction_threshold`` SSTables are merged:
  the inputs die, short-lived merge buffers churn, and a deduplicated
  output SSTable is born;
* **read path** — zipfian point reads allocate short-lived request /
  response / iterator objects, and populate a bounded *row cache* whose
  entries live until LRU eviction;
* **factory conflict** — both the write path (middle-lived cells) and
  the read path (short-lived response buffers) obtain their buffers
  through the same ``BufferPool.allocate`` allocation site, reached via
  different call paths.  This is exactly the allocation-context conflict
  ROLP's thread-stack-state tracking exists to disambiguate (paper
  Sections 3-5; Table 1 reports 2 conflicts for Cassandra).

Class/package names mirror Cassandra's so the paper's package filters
(``cassandra.db``, ``cassandra.utils``, ``cassandra.memory``...) apply
unchanged.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional

from repro.heap.object_model import SimObject
from repro.runtime import JavaVM, Method
from repro.workloads.base import Workload
from repro.workloads.ycsb import (
    MIX_READ_INTENSIVE,
    MIX_READ_WRITE,
    MIX_WRITE_INTENSIVE,
    OperationChooser,
    OperationMix,
    RecordSpec,
    ScrambledZipfianGenerator,
)

#: NG2C generation hints (the hand annotations of the NG2C baseline)
GEN_MEMTABLE_CELL = 2
GEN_SSTABLE_DATA = 4
GEN_SSTABLE_META = 4
GEN_ROW_CACHE = 6


class SSTable:
    """One on-disk table's in-heap footprint (blocks + metadata)."""

    __slots__ = ("objects", "bytes")

    def __init__(self) -> None:
        self.objects: List[SimObject] = []
        self.bytes = 0

    def add(self, obj: SimObject) -> None:
        self.objects.append(obj)
        self.bytes += obj.size

    def kill(self, now_ns: int) -> None:
        for obj in self.objects:
            obj.kill_at(now_ns)
        self.objects.clear()


class CassandraWorkload(Workload):
    """YCSB-driven Cassandra model.

    Parameters
    ----------
    mix:
        Operation mix; the paper's WI/RW/RI presets are exposed through
        :meth:`write_intensive`, :meth:`read_write`,
        :meth:`read_intensive`.
    """

    name = "cassandra"
    profiled_packages = (
        "org.apache.cassandra.db",
        "org.apache.cassandra.utils",
        "org.apache.cassandra.memory",
    )
    # The paper gives each platform a memory budget "high enough to
    # avoid memory pressure" (6 GB there; scaled here).  Compaction
    # peaks (4 live input SSTables + the output) set the requirement.
    heap_mb = 96
    young_regions = 2
    default_ops = 60_000

    def __init__(
        self,
        mix: OperationMix = MIX_WRITE_INTENSIVE,
        key_count: int = 50_000,
        memtable_flush_bytes: int = 8 << 20,
        compaction_threshold: int = 4,
        row_cache_entries: int = 2_000,
        record: Optional[RecordSpec] = None,
        worker_threads: int = 4,
        seed: int = 42,
    ) -> None:
        super().__init__(seed)
        self.mix = mix
        self.record = record or RecordSpec()
        self.key_chooser = ScrambledZipfianGenerator(key_count, seed=seed)
        self.op_chooser = OperationChooser(mix, seed=seed + 1)
        self.memtable_flush_bytes = memtable_flush_bytes
        self.compaction_threshold = compaction_threshold
        self.row_cache_entries = row_cache_entries
        self.worker_threads = worker_threads

        # runtime state
        self.memtable_cells: List[SimObject] = []
        self.memtable_bytes = 0
        self.sstables: List[SSTable] = []
        self.row_cache: "OrderedDict[int, SimObject]" = OrderedDict()
        self.flushes = 0
        self.compactions = 0

    # -- preset constructors (the paper's three workloads) ---------------------

    @classmethod
    def write_intensive(cls, **kwargs) -> "CassandraWorkload":
        """WI — 75% writes (Table 1)."""
        workload = cls(mix=MIX_WRITE_INTENSIVE, **kwargs)
        workload.name = "cassandra-wi"
        return workload

    @classmethod
    def read_write(cls, **kwargs) -> "CassandraWorkload":
        """RW — 50% writes (Table 1)."""
        workload = cls(mix=MIX_READ_WRITE, **kwargs)
        workload.name = "cassandra-rw"
        return workload

    @classmethod
    def read_intensive(cls, **kwargs) -> "CassandraWorkload":
        """RI — 25% writes (Table 1)."""
        workload = cls(mix=MIX_READ_INTENSIVE, **kwargs)
        workload.name = "cassandra-ri"
        return workload

    # -- method graph -------------------------------------------------------------

    def build(self, vm: JavaVM) -> None:
        self.vm = vm
        for i in range(self.worker_threads):
            self.make_thread("MutationStage-%d" % i)

        # The shared buffer factory: the conflict site.  Large enough
        # that the JIT will not inline it, so the call sites from the
        # write and read paths stay distinct (and trackable).
        def buffer_allocate(ctx, size, lives_ns, gen_hint):
            ctx.work(60)
            return ctx.alloc(1, size, lives_ns=lives_ns, gen_hint=gen_hint)

        self.m_buffer_allocate = Method(
            "allocate",
            "org.apache.cassandra.utils.memory.BufferPool",
            buffer_allocate,
            bytecode_size=90,
        )

        # Second factory (slab allocator) shared by the cache fill path
        # and the commit-log path: the paper reports 2 conflicts.
        def slab_allocate(ctx, size, lives_ns, gen_hint):
            ctx.work(50)
            return ctx.alloc(1, size, lives_ns=lives_ns, gen_hint=gen_hint)

        self.m_slab_allocate = Method(
            "allocate",
            "org.apache.cassandra.utils.memory.SlabAllocator",
            slab_allocate,
            bytecode_size=80,
        )

        def memtable_put(ctx, key):
            # request envelope: dies as soon as the op completes
            ctx.alloc(1, 160, lives_ns=20_000)
            # the cell: lives until flush (unknown at allocation time)
            cell = ctx.call(
                2,
                self.m_buffer_allocate,
                self.record.record_bytes,
                None,
                GEN_MEMTABLE_CELL,
            )
            # commit-log entry via the slab allocator: dies young
            ctx.call(3, self.m_slab_allocate, 128, 30_000, 0)
            ctx.work(45_000)
            return cell

        self.m_memtable_put = Method(
            "put", "org.apache.cassandra.db.Memtable", memtable_put, bytecode_size=220
        )

        def read_execute(ctx, key):
            ctx.alloc(1, 144, lives_ns=15_000)  # ReadCommand
            # response buffer through the SAME factory as cells
            response = ctx.call(
                2, self.m_buffer_allocate, self.record.record_bytes, 25_000, 0
            )
            ctx.alloc(3, 96, lives_ns=15_000)  # iterator
            ctx.work(55_000)
            return response

        self.m_read_execute = Method(
            "execute",
            "org.apache.cassandra.db.ReadCommand",
            read_execute,
            bytecode_size=260,
        )

        def cache_put(ctx, key):
            # cache entry via the slab allocator: lives until eviction
            entry = ctx.call(
                1,
                self.m_slab_allocate,
                self.record.record_bytes,
                None,
                GEN_ROW_CACHE,
            )
            ctx.work(8_000)
            return entry

        self.m_cache_put = Method(
            "put", "org.apache.cassandra.db.RowCacheService", cache_put, bytecode_size=120
        )

        def flush_run(ctx, memtable_bytes):
            # SSTable data blocks: 64 KB chunks, long-lived.  The write
            # loop is hot even though flush() is invoked rarely — the
            # JIT OSR-compiles it mid-execution.
            table = SSTable()
            block_count = max(1, memtable_bytes // (64 << 10))
            ctx.loop(block_count)
            for i in range(block_count):
                block = ctx.alloc(1, 64 << 10, gen_hint=GEN_SSTABLE_DATA)
                table.add(block)
            table.add(ctx.alloc(2, 32 << 10, gen_hint=GEN_SSTABLE_META))  # bloom
            table.add(ctx.alloc(3, 16 << 10, gen_hint=GEN_SSTABLE_META))  # index
            ctx.work(400_000)
            return table

        self.m_flush = Method(
            "flush",
            "org.apache.cassandra.db.Memtable",
            flush_run,
            bytecode_size=300,
            osr_eligible=True,
        )

        def compaction_run(ctx, inputs):
            # merge iterators + scratch buffers: die with the compaction
            ctx.loop(sum(t.bytes for t in inputs) // (64 << 10))
            for i in range(8):
                ctx.alloc(1, 32 << 10, lives_ns=200_000)
            output = SSTable()
            output_bytes = max(t.bytes for t in inputs)
            for i in range(max(1, output_bytes // (64 << 10))):
                output.add(ctx.alloc(2, 64 << 10, gen_hint=GEN_SSTABLE_DATA))
            ctx.work(1_200_000)
            return output

        self.m_compaction = Method(
            "run",
            "org.apache.cassandra.db.compaction.CompactionTask",
            compaction_run,
            bytecode_size=400,
            osr_eligible=True,
        )

        # unprofiled transport dispatcher (outside the package filter)
        def message_process(ctx, op, key):
            ctx.alloc(1, 80, lives_ns=10_000)  # frame
            if op == "read":
                return ctx.call(2, self.m_read_execute, key)
            return ctx.call(3, self.m_memtable_put, key)

        self.m_process = Method(
            "process",
            "org.apache.cassandra.transport.Message",
            message_process,
            bytecode_size=180,
        )

        #: hand annotations for the NG2C baseline (gen_hint != 0 sites)
        self.annotated_sites = 5

    # -- operations --------------------------------------------------------------------

    def run_op(self, op_index: int) -> None:
        if self.vm is None:
            raise RuntimeError("build() must run first")
        thread = self.threads[op_index % len(self.threads)]
        op = self.op_chooser.next()
        key = self.key_chooser.next()

        if op == "read":
            self.vm.run(thread, self.m_process, "read", key)
            self._maybe_cache_fill(thread, key)
        else:  # update / insert / scan all write through the memtable
            cell = self.vm.run(thread, self.m_process, "write", key)
            if cell is not None:
                self.memtable_cells.append(cell)
                self.memtable_bytes += cell.size
            if self.memtable_bytes >= self.memtable_flush_bytes:
                self._flush(thread)

    # -- lifecycle events ----------------------------------------------------------------

    def _maybe_cache_fill(self, thread, key: int) -> None:
        if key in self.row_cache:
            self.row_cache.move_to_end(key)
            return
        entry = self.vm.run(thread, self.m_cache_put, key)
        if entry is None:
            return
        self.row_cache[key] = entry
        if len(self.row_cache) > self.row_cache_entries:
            _, evicted = self.row_cache.popitem(last=False)
            evicted.kill_at(self.vm.clock.now_ns)

    def _flush(self, thread) -> None:
        now = self.vm.clock.now_ns
        for cell in self.memtable_cells:
            cell.kill_at(now)
        flushed_bytes = self.memtable_bytes
        self.memtable_cells = []
        self.memtable_bytes = 0
        table = self.vm.run(thread, self.m_flush, flushed_bytes)
        if table is not None:
            self.sstables.append(table)
        self.flushes += 1
        if len(self.sstables) >= self.compaction_threshold:
            self._compact(thread)

    def _compact(self, thread) -> None:
        inputs = self.sstables[: self.compaction_threshold]
        self.sstables = self.sstables[self.compaction_threshold:]
        output = self.vm.run(thread, self.m_compaction, inputs)
        now = self.vm.clock.now_ns
        for table in inputs:
            table.kill(now)
        if output is not None:
            self.sstables.append(output)
        self.compactions += 1
