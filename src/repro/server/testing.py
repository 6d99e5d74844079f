"""Test infrastructure for the fleet server.

Three pieces, shared by the test suite and the ``server-smoke`` CI job:

* :class:`TestClient` — drives a :class:`ServerApp` fully in-process
  (no sockets, no ports, no real HTTP), which is what makes the
  protocol and soak suites deterministic and parallel-safe;
* :class:`HttpClient` — a minimal asyncio raw-TCP HTTP/1.1 client for
  exercising the real wire (:mod:`repro.server.http`) and for the CLI
  load generator;
* :class:`LoadPlan` / :func:`run_load` — the deterministic load
  generator: a seeded arrival *plan* (which client creates which
  session and submits which jobs, fixed by ``random.Random(seed)``
  before anything runs) executed by concurrent asyncio clients.
  Wall-clock never enters any assertion: correctness is judged by
  diffing each response's canonical job payload against the serial
  :class:`~repro.bench.runner.Runner` expectation, and latencies are
  only *reported*, never asserted here.
"""

from __future__ import annotations

import asyncio
import json
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple
from urllib.parse import urlsplit

from repro.bench.runner import Cell, make_cell
from repro.server import jobs as jobs_mod
from repro.server.app import Request, Response, ServerApp


class ClientResponse:
    """Uniform response wrapper for both clients."""

    def __init__(self, status: int, raw: bytes, headers: Dict[str, str]) -> None:
        self.status = status
        self.raw = raw
        self.headers = headers

    def json(self) -> dict:
        return json.loads(self.raw.decode())


class TestClient:
    """In-process client: ``await client.post('/v1/sessions', {...})``."""

    __test__ = False  # not a pytest collection target despite the name

    def __init__(self, app: ServerApp) -> None:
        self.app = app

    async def request(
        self,
        method: str,
        path: str,
        body: Optional[object] = None,
        query: Optional[Dict[str, str]] = None,
        raw_body: Optional[bytes] = None,
    ) -> ClientResponse:
        payload = raw_body
        if payload is None:
            payload = b"" if body is None else json.dumps(body).encode()
        response: Response = await self.app.handle(
            Request(
                method=method,
                path=path,
                body=payload,
                query=dict(query or {}),
            )
        )
        return ClientResponse(response.status, response.encoded(), dict(response.headers))

    async def get(self, path: str, query: Optional[Dict[str, str]] = None) -> ClientResponse:
        return await self.request("GET", path, query=query)

    async def post(self, path: str, body: Optional[object] = None, **kwargs) -> ClientResponse:
        return await self.request("POST", path, body=body, **kwargs)

    async def delete(self, path: str) -> ClientResponse:
        return await self.request("DELETE", path)


class HttpClient:
    """Raw-TCP HTTP/1.1 client (one connection per request; the server
    supports keep-alive but the load generator favours independence)."""

    def __init__(self, base_url: str) -> None:
        split = urlsplit(base_url)
        if split.hostname is None or split.port is None:
            raise ValueError("URL needs a host and a port: %r" % base_url)
        self.host = split.hostname
        self.port = split.port

    async def request(
        self, method: str, path: str, body: Optional[object] = None
    ) -> ClientResponse:
        payload = b"" if body is None else json.dumps(body).encode()
        reader, writer = await asyncio.open_connection(self.host, self.port)
        try:
            head = (
                "%s %s HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\n"
                "Content-Length: %d\r\nConnection: close\r\n\r\n"
                % (method, path, self.host, len(payload))
            )
            writer.write(head.encode() + payload)
            await writer.drain()
            status_line = await reader.readline()
            status = int(status_line.split()[1])
            headers: Dict[str, str] = {}
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            length = int(headers.get("content-length", "0"))
            raw = await reader.readexactly(length) if length else b""
            return ClientResponse(status, raw, headers)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def get(self, path: str) -> ClientResponse:
        return await self.request("GET", path)

    async def post(self, path: str, body: Optional[object] = None) -> ClientResponse:
        return await self.request("POST", path, body)

    async def delete(self, path: str) -> ClientResponse:
        return await self.request("DELETE", path)


# ------------------------------------------------------------- load generator

@dataclass(frozen=True)
class PlannedJob:
    """One planned submission: a whole-run job or a session step."""

    action: str  # "run" | "step"
    ops: int


@dataclass(frozen=True)
class PlannedClient:
    """One client's whole script, fixed before anything runs."""

    index: int
    workload: str
    collector: str
    operations: int
    jobs: Tuple[PlannedJob, ...]


@dataclass
class LoadPlan:
    """A seeded arrival plan: ``clients`` scripts drawn from
    ``random.Random(seed)`` — the same seed always yields the same
    plan, so the serial expectation can be computed without running
    any server at all."""

    seed: int
    clients: List[PlannedClient]

    @classmethod
    def generate(
        cls,
        seed: int,
        clients: int,
        jobs_per_client: int = 1,
        workloads: Sequence[str] = ("lucene", "graphchi-cc"),
        collectors: Sequence[str] = ("g1", "rolp"),
        operations: int = 2_000,
        step_fraction: float = 0.5,
    ) -> "LoadPlan":
        rng = random.Random(seed)
        planned = []
        for index in range(clients):
            job_list = tuple(
                PlannedJob(
                    action="step" if rng.random() < step_fraction else "run",
                    ops=operations,
                )
                for _ in range(jobs_per_client)
            )
            planned.append(
                PlannedClient(
                    index=index,
                    workload=rng.choice(list(workloads)),
                    collector=rng.choice(list(collectors)),
                    operations=operations,
                    jobs=job_list,
                )
            )
        return cls(seed=seed, clients=planned)

    def expected_cells(self) -> List[Cell]:
        """Every cell the plan will cause, in a deterministic order —
        step indices are assigned exactly as the server will assign
        them (per-session, 0-based), because each planned client gets
        its own session."""
        cells: List[Cell] = []
        for client in self.clients:
            step = 0
            for job in client.jobs:
                if job.action == "step":
                    cells.append(
                        make_cell(
                            "session_step",
                            workload=client.workload,
                            collector=client.collector,
                            operations=job.ops,
                            step=step,
                        )
                    )
                    step += 1
                else:
                    cells.append(
                        make_cell(
                            "trace_run",
                            workload=client.workload,
                            collector=client.collector,
                            operations=job.ops,
                        )
                    )
        return cells


@dataclass
class LoadReport:
    """What one load run observed.  ``payloads`` are the canonical job
    payload bytes in plan order — the byte-identity surface."""

    clients: int = 0
    jobs_completed: int = 0
    rejected_429: int = 0
    retries: int = 0
    latencies_ms: List[float] = field(default_factory=list)
    payloads: List[bytes] = field(default_factory=list)
    fingerprints: List[str] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)

    def p99_ms(self) -> float:
        if not self.latencies_ms:
            return 0.0
        ordered = sorted(self.latencies_ms)
        return ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]

    def as_dict(self) -> Dict[str, object]:
        return {
            "clients": self.clients,
            "jobs_completed": self.jobs_completed,
            "rejected_429": self.rejected_429,
            "retries": self.retries,
            "p99_ms": round(self.p99_ms(), 3),
            "fingerprints": list(self.fingerprints),
            "errors": list(self.errors),
        }


async def _drive_client(
    client,
    planned: PlannedClient,
    report: LoadReport,
    slots: List[Optional[bytes]],
    base: int,
    clock,
    max_retries: int = 2_000,
) -> None:
    """One scripted client: create session → run jobs (retrying 429s —
    backpressure means *later*, not *never*) → close session."""
    created = await client.post(
        "/v1/sessions",
        {
            "workload": planned.workload,
            "collector": planned.collector,
            "operations": planned.operations,
        },
    )
    if created.status != 201:
        report.errors.append(
            "client %d: create -> %d" % (planned.index, created.status)
        )
        return
    sid = created.json()["session"]["id"]
    for offset, job in enumerate(planned.jobs):
        path = "/v1/sessions/%s/%s" % (sid, job.action)
        body = {"ops": job.ops} if job.action == "step" else {}
        for attempt in range(max_retries):
            started = clock()
            response = await client.post(path, body)
            if response.status == 429:
                report.rejected_429 += 1
                report.retries += 1
                # back off so the batcher's executor thread actually gets
                # wall time to drain the queue (a bare yield would spin
                # the retry budget away before one batch completes);
                # capped exponential keeps overload tests fast
                await asyncio.sleep(min(0.1, 0.002 * (1 << min(attempt, 6))))
                continue
            break
        if response.status != 200:
            report.errors.append(
                "client %d job %d: %s -> %d (%r)"
                % (planned.index, offset, job.action, response.status,
                   response.raw[:200])
            )
            return
        report.latencies_ms.append((clock() - started) * 1e3)
        document = response.json()
        payload = document["job"]
        slots[base + offset] = jobs_mod.canonical_json(payload).encode()
        report.jobs_completed += 1
    await client.delete("/v1/sessions/%s" % sid)


async def run_load(
    make_client,
    plan: LoadPlan,
    clock=None,
) -> LoadReport:
    """Execute ``plan`` with one concurrent task per planned client.

    ``make_client`` returns a client (TestClient or HttpClient) per
    planned client.  The report's ``payloads`` land in *plan* order no
    matter how the tasks interleave, so comparisons against
    :func:`repro.server.jobs.expected_payloads` are stable.
    """
    if clock is None:
        import time

        clock = time.monotonic
    total_jobs = sum(len(c.jobs) for c in plan.clients)
    slots: List[Optional[bytes]] = [None] * total_jobs
    report = LoadReport(clients=len(plan.clients))
    offsets: List[int] = []
    base = 0
    for client in plan.clients:
        offsets.append(base)
        base += len(client.jobs)
    await asyncio.gather(
        *(
            _drive_client(
                make_client(planned), planned, report, slots, offsets[i], clock
            )
            for i, planned in enumerate(plan.clients)
        )
    )
    report.payloads = [payload for payload in slots if payload is not None]
    report.fingerprints = [
        json.loads(payload.decode())["fingerprint"] for payload in report.payloads
    ]
    return report


def expected_payload_bytes(plan: LoadPlan, base_seed: int) -> List[bytes]:
    """The serial-Runner expectation for every planned job, in plan
    order, as canonical bytes — what a conforming server must return."""
    cells = plan.expected_cells()
    return [
        jobs_mod.canonical_json(payload).encode()
        for payload in jobs_mod.expected_payloads(cells, base_seed)
    ]
