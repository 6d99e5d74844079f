"""Lucene-like text-search engine workload.

Models the GC-relevant anatomy of Apache Lucene indexing a document
stream (the paper indexes a Wikipedia dump at 25k ops/s, 80% writes):

* **indexing** — ``IndexWriter.addDocument`` tokenizes a document
  (short-lived analyzer/token objects) and appends postings into an
  in-RAM buffer (``store.RAMFile`` blocks: middle-lived, they die when
  the RAM buffer is flushed into a segment);
* **segment flush** — when the RAM buffer reaches its budget, a segment
  is written: the heap keeps the segment's reader structures (term
  index, norms) alive until the segment is merged away (long-lived);
* **tiered merges** — groups of segments are merged; input reader
  structures die, a bigger output segment's structures are born.  Old
  segments beyond a retention budget are closed (their heap footprint
  dies), which bounds the index's heap mass like a production reader
  pool does;
* **queries** — term queries allocate parser/scorer/top-k objects that
  die within the request.

The paper's package filter for Lucene is ``lucene.store`` and it reports
**zero** allocation-context conflicts (Table 1) — accordingly, the
middle/long-lived allocations here live in ``org.apache.lucene.store``
classes with no cross-lifetime factory sharing inside the filtered
packages.
"""

from __future__ import annotations

from typing import List

from repro.heap.object_model import SimObject
from repro.runtime import JavaVM, Method
from repro.workloads.base import Workload
from repro.workloads.ycsb import UniformGenerator

#: NG2C generation hints (hand annotations for the NG2C baseline)
GEN_RAM_BUFFER = 3
GEN_SEGMENT = 7


class Segment:
    """A flushed segment's in-heap reader structures."""

    __slots__ = ("objects", "bytes", "level")

    def __init__(self, level: int = 0) -> None:
        self.objects: List[SimObject] = []
        self.bytes = 0
        self.level = level

    def add(self, obj: SimObject) -> None:
        self.objects.append(obj)
        self.bytes += obj.size

    def close(self, now_ns: int) -> None:
        for obj in self.objects:
            obj.kill_at(now_ns)
        self.objects.clear()


class LuceneWorkload(Workload):
    """Wikipedia-style indexing with a query mix.

    Parameters
    ----------
    write_fraction:
        Fraction of operations that index a document (paper: 0.8).
    ram_buffer_bytes:
        In-RAM postings budget before a segment flush.
    merge_factor:
        Segments per merge (tiered merging).
    max_open_segments:
        Reader-pool retention; the oldest segments beyond it are closed.
    """

    name = "lucene"
    profiled_packages = ("org.apache.lucene.store",)
    heap_mb = 64
    young_regions = 2
    default_ops = 60_000

    def __init__(
        self,
        write_fraction: float = 0.80,
        dictionary_size: int = 40_000,
        ram_buffer_bytes: int = 6 << 20,
        merge_factor: int = 4,
        max_open_segments: int = 10,
        avg_doc_terms: int = 16,
        worker_threads: int = 4,
        seed: int = 42,
    ) -> None:
        super().__init__(seed)
        if not 0.0 <= write_fraction <= 1.0:
            raise ValueError("write_fraction must be in [0, 1]")
        self.write_fraction = write_fraction
        self.term_chooser = UniformGenerator(dictionary_size, seed=seed)
        self.ram_buffer_bytes = ram_buffer_bytes
        self.merge_factor = merge_factor
        self.max_open_segments = max_open_segments
        self.avg_doc_terms = avg_doc_terms
        self.worker_threads = worker_threads

        # runtime state
        self.ram_blocks: List[SimObject] = []
        self.ram_bytes = 0
        self.segments: List[Segment] = []
        self.docs_indexed = 0
        self.queries_run = 0
        self.flushes = 0
        self.merges = 0

    # -- method graph -------------------------------------------------------------

    def build(self, vm: JavaVM) -> None:
        self.vm = vm
        for i in range(self.worker_threads):
            self.make_thread("IndexThread-%d" % i)

        def ram_file_append(ctx, size):
            # postings block in the RAM buffer: dies at segment flush
            ctx.work(40)
            return ctx.alloc(1, size, gen_hint=GEN_RAM_BUFFER)

        self.m_ram_append = Method(
            "append",
            "org.apache.lucene.store.RAMFile",
            ram_file_append,
            bytecode_size=70,
        )

        def add_document(ctx, term_count):
            ctx.alloc(1, 200, lives_ns=20_000)  # Document
            ctx.alloc(2, 180, lives_ns=20_000)  # TokenStream
            for i in range(term_count):
                ctx.alloc(3, 48, lives_ns=12_000)  # Token / TermAttr
            # postings buffer block: ~1 KB of postings per document
            block = ctx.call(4, self.m_ram_append, 1024)
            ctx.work(30_000)
            return block

        self.m_add_document = Method(
            "addDocument",
            "org.apache.lucene.index.IndexWriter",
            add_document,
            bytecode_size=280,
        )

        def flush_segment(ctx, ram_bytes):
            # Reader structures: term index + norms, ~15% of segment
            # size, in 16 KB chunks (many small objects, like the real
            # FST/norms arrays).
            segment = Segment(level=0)
            structure_bytes = max(64 << 10, int(ram_bytes * 0.15))
            chunks = max(1, structure_bytes // (16 << 10))
            ctx.loop(chunks * 4)
            for i in range(chunks):
                segment.add(ctx.alloc(1, 16 << 10, gen_hint=GEN_SEGMENT))
            segment.add(ctx.alloc(2, 32 << 10, gen_hint=GEN_SEGMENT))  # term dict
            ctx.work(500_000)
            return segment

        self.m_flush = Method(
            "flush",
            "org.apache.lucene.store.SegmentWriter",
            flush_segment,
            bytecode_size=320,
            osr_eligible=True,
        )

        def merge_segments(ctx, inputs):
            ctx.loop(16)
            for i in range(6):
                ctx.alloc(1, 16 << 10, lives_ns=150_000)  # merge scratch
            output = Segment(level=max(s.level for s in inputs) + 1)
            output_bytes = int(sum(s.bytes for s in inputs) * 0.6)
            for i in range(max(1, output_bytes // (16 << 10))):
                output.add(ctx.alloc(2, 16 << 10, gen_hint=GEN_SEGMENT))
            ctx.work(1_500_000)
            return output

        self.m_merge = Method(
            "merge",
            "org.apache.lucene.store.SegmentMerger",
            merge_segments,
            bytecode_size=380,
            osr_eligible=True,
        )

        def run_query(ctx, term):
            ctx.alloc(1, 160, lives_ns=10_000)  # parsed query
            ctx.alloc(2, 220, lives_ns=15_000)  # scorer
            ctx.alloc(3, 512, lives_ns=15_000)  # top-k heap
            ctx.work(35_000)

        self.m_query = Method(
            "search",
            "org.apache.lucene.search.IndexSearcher",
            run_query,
            bytecode_size=240,
        )

        self.annotated_sites = 4

    # -- operations --------------------------------------------------------------------

    def run_op(self, op_index: int) -> None:
        if self.vm is None:
            raise RuntimeError("build() must run first")
        thread = self.threads[op_index % len(self.threads)]
        if self.rng.random() < self.write_fraction:
            terms = max(4, int(self.rng.gauss(self.avg_doc_terms, 4)))
            block = self.vm.run(thread, self.m_add_document, terms)
            if block is not None:
                self.ram_blocks.append(block)
                self.ram_bytes += block.size
            self.docs_indexed += 1
            if self.ram_bytes >= self.ram_buffer_bytes:
                self._flush(thread)
        else:
            self.vm.run(thread, self.m_query, self.term_chooser.next())
            self.queries_run += 1

    # -- lifecycle events ----------------------------------------------------------------

    def _flush(self, thread) -> None:
        now = self.vm.clock.now_ns
        for block in self.ram_blocks:
            block.kill_at(now)
        flushed = self.ram_bytes
        self.ram_blocks = []
        self.ram_bytes = 0
        segment = self.vm.run(thread, self.m_flush, flushed)
        if segment is not None:
            self.segments.append(segment)
        self.flushes += 1
        self._maybe_merge(thread)
        self._enforce_retention()

    def _maybe_merge(self, thread) -> None:
        for level in (0, 1):
            tier = [s for s in self.segments if s.level == level]
            if len(tier) < self.merge_factor:
                continue
            inputs = tier[: self.merge_factor]
            output = self.vm.run(thread, self.m_merge, inputs)
            now = self.vm.clock.now_ns
            for segment in inputs:
                segment.close(now)
                self.segments.remove(segment)
            if output is not None:
                self.segments.append(output)
            self.merges += 1

    def _enforce_retention(self) -> None:
        while len(self.segments) > self.max_open_segments:
            oldest = self.segments.pop(0)
            oldest.close(self.vm.clock.now_ns)
