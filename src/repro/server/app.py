"""The transport-free fleet-server application.

:class:`ServerApp` maps ``(method, path, body)`` to a protocol-conformant
response — no sockets anywhere, so the protocol suite and the
deterministic soak tests drive it fully in-process through
:class:`repro.server.testing.TestClient`, and the HTTP front end
(:mod:`repro.server.http`) is a thin codec on top.

Request handling is uniform:

1. route — unknown path → 404 ``unknown-endpoint``; known path, wrong
   verb → 405 ``method-not-allowed``;
2. parse — non-JSON or non-object body → 400 ``malformed-body``;
3. validate — request-schema mismatch → 400 ``invalid-field`` with the
   offending path in ``detail``; semantic misfits get their own slugs
   (``unknown-kind``, ``unknown-workload``, ``invalid-params``, ...);
4. admit — the batcher's bounded queue may refuse with 429
   ``queue-full`` + ``Retry-After``;
5. execute — the job future resolves from a coalesced runner batch;
   ``request_timeout_s`` bounds the wait (504 ``timeout``; the job
   itself keeps its queue slot and still executes — timeouts abandon
   the *wait*, never corrupt the batch).

Every response body carries ``"schema": "rolp-bench/server/v1"``.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.bench.runner import Runner, make_cell
from repro.server import jobs as jobs_mod
from repro.server.batcher import (
    AdmissionQueueFull,
    BatchExecutionError,
    DEFAULT_MAX_BATCH,
    DEFAULT_QUEUE_LIMIT,
    JobBatcher,
    ServerStopping,
)
from repro.server.protocol import (
    REQUEST_SCHEMAS,
    SCHEMA,
    SchemaError,
    envelope,
    error_envelope,
    schema_document,
    validate,
)
from repro.server.sessions import (
    DEFAULT_IDLE_TIMEOUT_S,
    DEFAULT_OPERATIONS,
    Session,
    SessionManager,
)
from repro.telemetry import TelemetrySession

#: default wall-clock bound on one request's wait for its result
DEFAULT_REQUEST_TIMEOUT_S = 60.0

#: Retry-After seconds advertised with 429 responses
RETRY_AFTER_S = 1


@dataclass
class Request:
    """One parsed request, transport-agnostic."""

    method: str
    path: str
    body: bytes = b""
    query: Dict[str, str] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)


@dataclass
class Response:
    """One response: status + JSON body (or raw text for Prometheus)."""

    status: int
    body: Optional[dict] = None
    text: Optional[str] = None
    headers: Dict[str, str] = field(default_factory=dict)

    @property
    def content_type(self) -> str:
        return "application/json" if self.text is None else "text/plain; charset=utf-8"

    def encoded(self) -> bytes:
        if self.text is not None:
            return self.text.encode()
        return (jobs_mod.canonical_json(self.body) + "\n").encode()


def _error(reason: str, detail: str, **headers: str) -> Response:
    status, body = error_envelope(reason, detail)
    return Response(status, body, headers=dict(headers))


class ServerApp:
    """Session manager + batcher + runner behind a JSON route table."""

    def __init__(
        self,
        runner: Optional[Runner] = None,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        max_batch: int = DEFAULT_MAX_BATCH,
        request_timeout_s: Optional[float] = DEFAULT_REQUEST_TIMEOUT_S,
        idle_timeout_s: float = DEFAULT_IDLE_TIMEOUT_S,
        clock=None,
        base_seed: Optional[int] = None,
    ) -> None:
        self.telemetry = TelemetrySession(record_trace=False)
        self.runner = runner if runner is not None else Runner(jobs=1, cache=None)
        # an explicit base_seed always wins, even over a supplied
        # runner's — every seed and trace id downstream derives from it
        if base_seed is not None:
            self.runner.base_seed = base_seed
        self.base_seed = self.runner.base_seed
        if self.runner.session is None:
            # bench_runner_* counters land in /metrics alongside ours
            self.runner.session = self.telemetry
        self.manager = SessionManager(
            **({"clock": clock} if clock is not None else {}),
            idle_timeout_s=idle_timeout_s,
            base_seed=self.base_seed,
            telemetry_session=self.telemetry,
        )
        self.batcher = JobBatcher(
            self.runner,
            queue_limit=queue_limit,
            max_batch=max_batch,
            metrics=self.telemetry.metrics,
        )
        self.request_timeout_s = request_timeout_s
        self._reaper_task: Optional[asyncio.Task] = None

    # -------------------------------------------------------------- lifecycle

    async def startup(self, reap_interval_s: Optional[float] = None) -> None:
        self.batcher.start()
        if reap_interval_s:
            self._reaper_task = asyncio.get_running_loop().create_task(
                self._reap_loop(reap_interval_s)
            )

    async def shutdown(self) -> None:
        if self._reaper_task is not None:
            self._reaper_task.cancel()
            try:
                await self._reaper_task
            except asyncio.CancelledError:
                pass
            self._reaper_task = None
        await self.batcher.stop()

    async def _reap_loop(self, interval_s: float) -> None:
        while True:
            await asyncio.sleep(interval_s)
            self.manager.reap()

    # ---------------------------------------------------------------- routing

    async def handle(self, request: Request) -> Response:
        """Dispatch one request; never raises — every failure mode is
        an error envelope."""
        try:
            response = await self._dispatch(request)
        except SchemaError as exc:
            response = _error("invalid-field", str(exc))
        except jobs_mod.JobValidationError as exc:
            response = _error(exc.reason, exc.detail)
        except AdmissionQueueFull as exc:
            response = _error(
                "queue-full",
                "admission queue at capacity (%d); retry after %ds"
                % (exc.capacity, RETRY_AFTER_S),
                **{"Retry-After": str(RETRY_AFTER_S)},
            )
        except asyncio.TimeoutError:
            response = _error(
                "timeout",
                "request exceeded the %.3fs deadline" % (self.request_timeout_s or 0),
            )
        except ServerStopping:
            response = _error("server-stopping", "server is shutting down")
        except BatchExecutionError as exc:
            response = _error("internal-error", str(exc))
        self._count_request(request, response.status)
        return response

    async def _dispatch(self, request: Request) -> Response:
        method = request.method.upper()
        parts = [part for part in request.path.split("/") if part]
        return await self._route(method, parts, request)

    def _count_request(self, request: Request, status: int) -> None:
        self.telemetry.metrics.counter(
            "server_requests_total", "requests by method and status"
        ).inc(1, method=request.method.upper(), status=status)

    async def _route(self, method: str, parts, request: Request) -> Response:
        if parts == ["healthz"]:
            if method != "GET":
                return _error("method-not-allowed", "healthz supports GET only")
            return self._healthz()
        if parts == ["metrics"]:
            if method != "GET":
                return _error("method-not-allowed", "metrics supports GET only")
            return self._metrics(request.query.get("format", "json"))
        if parts == ["v1", "schema"]:
            if method != "GET":
                return _error("method-not-allowed", "schema supports GET only")
            return Response(200, schema_document())
        if parts == ["v1", "sessions"]:
            if method == "POST":
                return await self._create_session(request)
            if method == "GET":
                return self._list_sessions()
            return _error("method-not-allowed", "sessions supports GET and POST")
        if len(parts) == 3 and parts[:2] == ["v1", "sessions"]:
            sid = parts[2]
            if method == "GET":
                return self._query_session(sid)
            if method == "DELETE":
                return self._close_session(sid)
            return _error("method-not-allowed", "session supports GET and DELETE")
        if len(parts) == 4 and parts[:2] == ["v1", "sessions"]:
            sid, action = parts[2], parts[3]
            if action == "run" and method == "POST":
                return await self._run_job(sid, request)
            if action == "step" and method == "POST":
                return await self._step(sid, request)
            if action == "close" and method == "POST":
                return self._close_session(sid)
            if action == "recording" and method == "GET":
                return self._recording(sid)
            if action in ("run", "step", "close", "recording"):
                return _error(
                    "method-not-allowed",
                    "%s supports %s only"
                    % (action, "GET" if action == "recording" else "POST"),
                )
        return _error(
            "unknown-endpoint", "no route for %s /%s" % (method, "/".join(parts))
        )

    # ------------------------------------------------------------------ bodies

    @staticmethod
    def _parse_body(request: Request, schema_name: str) -> dict:
        """Decode + schema-validate a JSON object body (empty = ``{}``)."""
        raw = request.body.strip()
        if not raw:
            body: object = {}
        else:
            try:
                body = json.loads(raw)
            except ValueError:
                raise jobs_mod.JobValidationError(
                    "malformed-body", "request body is not valid JSON"
                )
        if not isinstance(body, dict):
            raise jobs_mod.JobValidationError(
                "malformed-body",
                "request body must be a JSON object, got %s" % type(body).__name__,
            )
        validate(body, REQUEST_SCHEMAS[schema_name])
        return body

    # ------------------------------------------------------------- session ops

    async def _create_session(self, request: Request) -> Response:
        body = self._parse_body(request, "session_create")
        workload = body.get("workload", "lucene")
        collector = body.get("collector", "g1")
        # reuse the job-layer name checks so the slugs match everywhere
        jobs_mod._check_names({"workload": workload, "collector": collector})
        session = self.manager.create(
            workload=workload,
            collector=collector,
            operations=body.get("operations", DEFAULT_OPERATIONS),
            ops_per_step=body.get("ops_per_step"),
            idle_timeout_s=body.get("idle_timeout_s"),
            flight_recorder=body.get("flight_recorder"),
        )
        self.telemetry.metrics.counter(
            "server_sessions_created_total", "sessions created"
        ).inc()
        return Response(201, envelope("session", session.payload(self.manager.clock())))

    def _list_sessions(self) -> Response:
        now = self.manager.clock()
        sessions = [
            self.manager.get(sid).payload(now) for sid in self.manager.ids()
        ]
        body = envelope("sessions", sessions)
        body["count"] = len(sessions)
        return Response(200, body)

    def _require_session(self, sid: str) -> Session:
        session = self.manager.touch(sid)
        if session is None:
            raise jobs_mod.JobValidationError(
                "unknown-session", "no session %r (closed, reaped or never created)" % sid
            )
        return session

    def _query_session(self, sid: str) -> Response:
        session = self._require_session(sid)
        return Response(200, envelope("session", session.payload(self.manager.clock())))

    def _close_session(self, sid: str) -> Response:
        session = self.manager.close(sid)
        if session is None:
            return _error(
                "unknown-session", "no session %r (closed, reaped or never created)" % sid
            )
        self.telemetry.metrics.counter(
            "server_sessions_closed_total", "sessions closed by clients"
        ).inc()
        return Response(
            200,
            envelope(
                "closed",
                {
                    "id": session.id,
                    "steps": session.steps,
                    "jobs": session.jobs,
                    "trace_id": session.trace_id,
                },
            ),
        )

    def _recording(self, sid: str) -> Response:
        session = self._require_session(sid)
        if session.recorder is None:
            return _error(
                "recording-disabled",
                "session %s was created without flight_recorder" % sid,
            )
        body = envelope("events", [e.to_jsonl() for e in session.recorder.events()])
        body["session_id"] = session.id
        body["trace_id"] = session.trace_id
        body["counters"] = session.recorder.counters()
        return Response(200, body)

    # ---------------------------------------------------------------- job ops

    async def _await_result(self, future: "asyncio.Future") -> object:
        """Await an admitted job under the per-request deadline.  The
        shield keeps a timed-out job executing — a timeout abandons the
        *wait*, never tears a job out of a batch mid-flight."""
        if self.request_timeout_s is not None:
            return await asyncio.wait_for(
                asyncio.shield(future), self.request_timeout_s
            )
        return await future

    async def _run_job(self, sid: str, request: Request) -> Response:
        session = self._require_session(sid)
        body = self._parse_body(request, "job")
        if "kind" in body:
            cell = jobs_mod.build_cell(body["kind"], body.get("params", {}))
        else:
            if "params" in body:
                raise jobs_mod.JobValidationError(
                    "invalid-field", "$.params: params requires kind"
                )
            cell = make_cell(
                "trace_run",
                workload=session.workload,
                collector=session.collector,
                operations=session.operations,
            )
        # admission may 429; only an *admitted* job counts against the
        # session (submit and note are synchronous — no interleaving)
        future = self.batcher.submit(cell)
        seed = self.runner.seed_for(cell)
        trace_id = self.runner.trace_id_for(cell)
        self.manager.note_job(session, cell.key, trace_id)
        result = await self._await_result(future)
        return Response(
            200, envelope("job", jobs_mod.job_payload(cell, seed, trace_id, result))
        )

    async def _step(self, sid: str, request: Request) -> Response:
        session = self._require_session(sid)
        body = self._parse_body(request, "step")
        ops = body.get("ops", session.ops_per_step)
        # peek the next step index, admit, then claim — all synchronous,
        # so a 429 rejection never burns an index and concurrent steps
        # on one session cannot race the counter
        step = session.steps
        cell = make_cell(
            "session_step",
            workload=session.workload,
            collector=session.collector,
            operations=ops,
            step=step,
        )
        future = self.batcher.submit(cell)
        claimed = self.manager.next_step(session)
        if claimed != step:
            raise BatchExecutionError(
                "step counter raced on session %s: claimed %d, expected %d"
                % (session.id, claimed, step)
            )
        seed = self.runner.seed_for(cell)
        result = await self._await_result(future)
        payload = jobs_mod.job_payload(cell, seed, self.runner.trace_id_for(cell), result)
        response = envelope("job", payload)
        response["step"] = step
        return Response(200, response)

    # ------------------------------------------------------------- monitoring

    def _healthz(self) -> Response:
        return Response(
            200,
            {
                "schema": SCHEMA,
                "status": "ok",
                "accepting": self.batcher.depth < self.batcher.queue_limit,
                "sessions_active": self.manager.active_count,
                "queue_depth": self.batcher.depth,
            },
        )

    def _metrics(self, fmt: str) -> Response:
        if fmt == "prometheus":
            return Response(200, text=self.telemetry.metrics.to_prometheus())
        body = envelope("sessions", self.manager.snapshot())
        body["queue"] = {
            "depth": self.batcher.depth,
            "capacity": self.batcher.queue_limit,
            "accepted": self.batcher.accepted,
            "rejected": self.batcher.rejected,
        }
        body["batcher"] = self.batcher.counters()
        body["metrics"] = self.telemetry.metrics.to_json()
        return Response(200, body)
