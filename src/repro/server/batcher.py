"""Bounded admission queue + coalescing batch executor.

Small jobs are expensive to run one-at-a-time (a ``Runner.run`` call
that must simulate or read the disk cache crosses into an executor
thread and possibly a worker pool), so the server admits jobs into a
bounded queue and a single worker task drains them in *batches* of up
to ``max_batch``, handing each batch to one
:meth:`repro.bench.runner.Runner.run_async` call.

A job whose result the runner's memo already holds skips all of that
when the batcher is idle — the queue empty, no batch awaiting the
executor, not paused: :meth:`JobBatcher.submit` runs it through
``Runner.run`` at once and returns a resolved future.  Nothing is queued
and nothing is in flight, so the runner is still used by one thread at a
time and no job overtakes one admitted before it.  Memo-held jobs that
arrive while the batcher is busy or paused still queue and reach the
worker; a batch the memo holds entirely is then answered on the loop
thread without the executor crossing: the worker awaits each batch
before taking the next, and such a batch holds the loop for at most
``max_batch`` memo lookups (a run of them, drained back to back, for at
most ``queue_limit``).

Coalescing and admission answers change throughput only, never
results: cells are content-addressed (kind + params + derived seed), the
runner memo/cache deduplicates identical cells inside and across
batches, and the per-job payload is a pure function of the cell — so a
job's bytes are identical whether it ran alone, in a batch of 16, was
answered at admission or was served from cache (the AppScale datastore's
BatchStatement coalescing is the exemplar; the determinism contract is
this repo's own).

Backpressure is explicit, not implicit: when the queue is full,
:meth:`JobBatcher.submit` raises :class:`AdmissionQueueFull` and the app
layer turns that into ``429`` + ``Retry-After`` — an *accepted* job, by
contrast, is never dropped: it either resolves with its result or fails
with the batch's error.
"""

from __future__ import annotations

import asyncio
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Deque, List, NamedTuple, Optional

from repro.bench.runner import Cell, Runner
from repro.telemetry import MetricsRegistry

#: default admission-queue capacity (jobs waiting for a batch slot)
DEFAULT_QUEUE_LIMIT = 64

#: default maximum jobs coalesced into one runner call
DEFAULT_MAX_BATCH = 16


class AdmissionQueueFull(Exception):
    """The bounded admission queue is at capacity — the caller should
    back off and retry (HTTP 429 + Retry-After)."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        super().__init__("admission queue at capacity (%d)" % capacity)


class BatchExecutionError(Exception):
    """The batch a job was coalesced into failed to execute."""


class ServerStopping(Exception):
    """The batcher was stopped while this job was still queued."""


class _Job(NamedTuple):
    cell: Cell
    future: "asyncio.Future"


class JobBatcher:
    """One worker task draining a bounded queue into runner batches.

    All methods must be called from the event loop thread.  ``pause()``
    / ``resume()`` exist for the deterministic backpressure tests: a
    paused batcher admits jobs until the queue fills, which makes the
    429 path exactly reproducible without racing the worker.
    """

    def __init__(
        self,
        runner: Runner,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        max_batch: int = DEFAULT_MAX_BATCH,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.runner = runner
        self.queue_limit = max(1, int(queue_limit))
        self.max_batch = max(1, int(max_batch))
        self.metrics = metrics
        self._queue: Deque[_Job] = deque()
        self._wake = asyncio.Event()
        self._paused = False
        self._stopped = False
        #: a batch is awaiting the executor (a memo-held batch, answered
        #: on the loop thread, never suspends the worker)
        self._in_flight = False
        self._worker_task: Optional[asyncio.Task] = None
        # single worker thread for the batches that simulate or read the
        # disk cache (memo-only batches never reach it); the worker task
        # awaiting each batch is what serializes Runner.run calls (the
        # runner is not thread-safe); parallelism comes from the
        # runner's own --jobs worker pool inside each batch
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="rolp-batch"
        )
        # monotonic books: accepted == completed + failed + abandoned +
        # queued; a job answered at admission counts in accepted and
        # completed, never in batches
        self.accepted = 0
        self.rejected = 0
        self.batches = 0
        self.completed = 0
        self.failed = 0
        self.abandoned = 0

    # -------------------------------------------------------------- lifecycle

    def start(self) -> None:
        if self._worker_task is None:
            self._worker_task = asyncio.get_running_loop().create_task(self._worker())

    async def stop(self) -> None:
        """Stop the worker: the batch already in flight finishes, then
        every job still queued fails with :class:`ServerStopping` (it
        was never executed, and saying so beats hanging its client)."""
        self._stopped = True
        self._wake.set()
        if self._worker_task is not None:
            await self._worker_task
            self._worker_task = None
        while self._queue:
            job = self._queue.popleft()
            self.abandoned += 1
            if not job.future.done():
                job.future.set_exception(ServerStopping())
        self._executor.shutdown(wait=True)

    def pause(self) -> None:
        self._paused = True

    def resume(self) -> None:
        self._paused = False
        self._wake.set()

    # -------------------------------------------------------------- admission

    @property
    def depth(self) -> int:
        return len(self._queue)

    def counters(self) -> dict:
        """The full monotonic ledger (also exported under ``/metrics``)."""
        return {
            "accepted": self.accepted,
            "rejected": self.rejected,
            "batches": self.batches,
            "completed": self.completed,
            "failed": self.failed,
            "abandoned": self.abandoned,
            "max_batch": self.max_batch,
        }

    def _gauge(self) -> None:
        if self.metrics is not None:
            self.metrics.gauge(
                "server_queue_depth", "jobs waiting in the admission queue"
            ).set(len(self._queue))

    def submit(self, cell: Cell) -> "asyncio.Future":
        """Admit one job; returns the future resolving to its cell
        result, already resolved when the batcher is idle and the
        runner's memo holds the cell.  Raises :class:`AdmissionQueueFull`
        when the queue is at capacity — the job was *not* admitted."""
        if self._stopped:
            raise ServerStopping()
        if len(self._queue) >= self.queue_limit:
            self.rejected += 1
            if self.metrics is not None:
                self.metrics.counter(
                    "server_jobs_rejected_total", "jobs refused with 429 queue-full"
                ).inc()
            raise AdmissionQueueFull(self.queue_limit)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        if not (self._queue or self._in_flight or self._paused) and self.runner.holds(cell):
            # idle: no admitted job can be overtaken, and no batch is
            # using the runner on the executor thread
            future.set_result(self.runner.run([cell])[0])
            self.completed += 1
        else:
            self._queue.append(_Job(cell, future))
            self._gauge()
            self._wake.set()
        self.accepted += 1
        if self.metrics is not None:
            self.metrics.counter(
                "server_jobs_accepted_total", "jobs queued or answered at admission"
            ).inc()
        return future

    # -------------------------------------------------------------- execution

    async def _worker(self) -> None:
        while True:
            await self._wake.wait()
            self._wake.clear()
            if self._stopped:
                return
            # the _stopped check keeps stop() honest: the in-flight batch
            # finishes, but still-queued jobs are abandoned to stop()'s
            # ServerStopping sweep instead of draining arbitrarily long
            while self._queue and not self._paused and not self._stopped:
                batch: List[_Job] = [
                    self._queue.popleft()
                    for _ in range(min(self.max_batch, len(self._queue)))
                ]
                self._gauge()
                cells = [job.cell for job in batch]
                self._in_flight = True
                try:
                    results = await self.runner.run_async(cells, self._executor)
                except Exception as exc:  # fail the batch, keep serving
                    self.failed += len(batch)
                    error = BatchExecutionError(
                        "batch of %d failed: %s" % (len(batch), exc)
                    )
                    error.__cause__ = exc
                    for job in batch:
                        if not job.future.done():
                            job.future.set_exception(error)
                    continue
                finally:
                    self._in_flight = False
                self.batches += 1
                self.completed += len(batch)
                if self.metrics is not None:
                    self.metrics.counter(
                        "server_batches_total", "coalesced runner batches executed"
                    ).inc()
                    self.metrics.histogram(
                        "server_batch_size",
                        (1, 2, 4, 8, 16, 32, 64),
                        "jobs coalesced per runner batch",
                    ).observe(len(batch))
                for job, result in zip(batch, results):
                    if not job.future.done():  # client may have timed out
                        job.future.set_result(result)
