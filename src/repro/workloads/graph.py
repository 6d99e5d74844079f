"""GraphChi-like out-of-core graph computation workload.

Models the GC-relevant anatomy of GraphChi running Connected Components
and PageRank over a large graph (the paper uses a Twitter follower graph
with 42M vertices / 1.5B edges; the simulator synthesizes a scaled
power-law graph with the same shape of heap behaviour):

* **vertex values** — one long-lived array chunk per vertex block,
  alive for the whole computation;
* **interval processing** — GraphChi slides over the graph in shard
  intervals: each interval loads its edge data blocks (middle-lived:
  alive exactly for the interval, several GC cycles), runs the update
  function over the sub-graph (short-lived update/message objects), and
  drops the blocks when the interval ends;
* **factory conflict** — edge blocks and per-update scratch buffers are
  both obtained from ``DataBlockManager.allocateBlock`` through
  different call paths; the paper reports 3 conflicts for GraphChi;
* **algorithm phases** — Connected Components converges: later
  iterations schedule fewer vertices, so interval lifetimes shorten over
  the run (exercising ROLP's workload-change adaptation); PageRank runs
  fixed full-graph iterations.

Packages mirror GraphChi's (``graphchi.datablocks``, ``graphchi.engine``
— the paper's Table 1 filter set).
"""

from __future__ import annotations

from typing import List, Optional

from repro.heap.object_model import SimObject
from repro.runtime import JavaVM, Method
from repro.workloads.base import Workload

#: NG2C generation hints (hand annotations for the NG2C baseline)
GEN_VERTEX_DATA = 9
GEN_EDGE_BLOCK = 3


class GraphShard:
    """One shard's edge-block footprint while its interval is loaded."""

    __slots__ = ("blocks",)

    def __init__(self) -> None:
        self.blocks: List[SimObject] = []

    def unload(self, now_ns: int) -> None:
        for block in self.blocks:
            block.kill_at(now_ns)
        self.blocks.clear()


class GraphChiWorkload(Workload):
    """Vertex-centric computation over a synthetic power-law graph.

    One ``run_op`` processes one *sub-interval* (a slice of a shard's
    vertices): the granularity keeps the op loop uniform with the other
    workloads while intervals still span many operations (and GC
    cycles), which is what makes edge blocks middle-lived.

    Parameters
    ----------
    algorithm:
        ``"cc"`` (Connected Components, converging) or ``"pr"``
        (PageRank, fixed iterations).
    """

    name = "graphchi"
    profiled_packages = ("edu.cmu.graphchi.datablocks", "edu.cmu.graphchi.engine")
    heap_mb = 64
    young_regions = 2
    default_ops = 60_000

    def __init__(
        self,
        algorithm: str = "cc",
        vertices: int = 240_000,
        edges_per_vertex: float = 15.0,
        shards: int = 6,
        subintervals_per_shard: int = 48,
        worker_threads: int = 4,
        seed: int = 42,
    ) -> None:
        super().__init__(seed)
        if algorithm not in ("cc", "pr"):
            raise ValueError("algorithm must be 'cc' or 'pr'")
        self.algorithm = algorithm
        self.name = "graphchi-%s" % algorithm
        self.vertices = vertices
        self.edges = int(vertices * edges_per_vertex)
        self.shards = shards
        self.subintervals_per_shard = subintervals_per_shard
        self.worker_threads = worker_threads

        # execution state
        self.vertex_blocks: List[SimObject] = []
        self.current_shard: Optional[GraphShard] = None
        self.shard_cursor = 0
        self.subinterval_cursor = 0
        self.iteration = 0
        self.intervals_processed = 0
        #: fraction of vertices still active (CC converges)
        self.active_fraction = 1.0

    # -- method graph -------------------------------------------------------------

    def build(self, vm: JavaVM) -> None:
        self.vm = vm
        for i in range(self.worker_threads):
            self.make_thread("ExecutorThread-%d" % i)

        def allocate_block(ctx, size, lives_ns, gen_hint):
            # The shared block factory: reached from the shard loader
            # (middle-lived edge blocks) and from the update function
            # (short-lived scratch) — the conflict the paper reports.
            ctx.work(40)
            return ctx.alloc(1, size, lives_ns=lives_ns, gen_hint=gen_hint)

        self.m_allocate_block = Method(
            "allocateBlock",
            "edu.cmu.graphchi.datablocks.DataBlockManager",
            allocate_block,
            bytecode_size=80,
        )

        def load_subinterval(ctx, block_count):
            blocks = []
            for i in range(block_count):
                block = ctx.call(
                    1, self.m_allocate_block, 32 << 10, None, GEN_EDGE_BLOCK
                )
                if block is not None:
                    blocks.append(block)
            ctx.work(250_000)
            return blocks

        self.m_load_subinterval = Method(
            "loadSubInterval",
            "edu.cmu.graphchi.engine.MemoryShard",
            load_subinterval,
            bytecode_size=260,
        )

        def update_vertices(ctx, vertex_count):
            for i in range(max(1, vertex_count // 24)):
                # per-update scratch through the same factory
                ctx.call(1, self.m_allocate_block, 2048, 40_000, 0)
                ctx.alloc(2, 96, lives_ns=15_000)  # ChiVertex view
                ctx.alloc(3, 64, lives_ns=10_000)  # message/update
            ctx.work(vertex_count * 140)

        self.m_update = Method(
            "update",
            "edu.cmu.graphchi.engine.VertexInterval",
            update_vertices,
            bytecode_size=300,
        )

        def init_vertex_data(ctx, chunk_count):
            ctx.loop(chunk_count * 2)
            chunks = []
            for i in range(chunk_count):
                chunks.append(ctx.alloc(1, 128 << 10, gen_hint=GEN_VERTEX_DATA))
            return chunks

        self.m_init_vertex_data = Method(
            "initVertexData",
            "edu.cmu.graphchi.datablocks.VertexDataBlockManager",
            init_vertex_data,
            bytecode_size=200,
            osr_eligible=True,
        )

        self.annotated_sites = 3

        # Allocate the vertex value arrays up front (value + degree +
        # in/out adjacency index per vertex, in 128 KB chunks) — alive
        # for the whole run.
        value_bytes = self.vertices * 24
        chunk_count = max(1, value_bytes // (128 << 10))
        thread = self.threads[0]
        chunks = vm.run(thread, self.m_init_vertex_data, chunk_count)
        self.vertex_blocks = chunks or []

    # -- operations --------------------------------------------------------------------

    def run_op(self, op_index: int) -> None:
        if self.vm is None:
            raise RuntimeError("build() must run first")
        thread = self.threads[op_index % len(self.threads)]

        if self.current_shard is None:
            self._start_interval(thread)

        vertices_per_sub = max(
            1,
            int(
                self.vertices
                / self.shards
                / self.subintervals_per_shard
                * self.active_fraction
            ),
        )
        self.vm.run(thread, self.m_update, vertices_per_sub)

        self.subinterval_cursor += 1
        if self.subinterval_cursor >= self.subintervals_per_shard:
            self._finish_interval()

    # -- interval lifecycle ----------------------------------------------------------------

    def _start_interval(self, thread) -> None:
        edges_per_shard = self.edges / self.shards * self.active_fraction
        block_count = max(1, int(edges_per_shard * 8 / (32 << 10)))
        blocks = self.vm.run(thread, self.m_load_subinterval, block_count)
        shard = GraphShard()
        shard.blocks = blocks or []
        self.current_shard = shard
        self.subinterval_cursor = 0

    def _finish_interval(self) -> None:
        assert self.current_shard is not None
        self.current_shard.unload(self.vm.clock.now_ns)
        self.current_shard = None
        self.intervals_processed += 1
        self.shard_cursor += 1
        if self.shard_cursor >= self.shards:
            self.shard_cursor = 0
            self._finish_iteration()

    def _finish_iteration(self) -> None:
        self.iteration += 1
        if self.algorithm == "cc":
            # Connected components converge: label propagation activates
            # geometrically fewer vertices each sweep (floor at 10%).
            self.active_fraction = max(0.1, 0.75 ** self.iteration)
        # PageRank keeps all vertices active every iteration.
