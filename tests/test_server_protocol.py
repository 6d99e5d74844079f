"""Protocol-conformance suite for the fleet server.

Every endpoint's request/response is validated against the versioned
``rolp-bench/server/v1`` schemas in :mod:`repro.server.protocol` —
including every error envelope: unknown session → 404, malformed body
→ 400 with a reason slug, full queue → 429 + Retry-After, wrong verb →
405, expired deadline → 504.  The schema document itself is asserted
stable (version string, reason-slug table, envelope keys), so any wire
change must come with an explicit schema bump.
"""

import asyncio
import json

import pytest

from repro.bench import runner as runner_mod
from repro.bench.runner import Runner, cell_implementation, make_cell
from repro.server import protocol
from repro.server.app import ServerApp
from repro.server.batcher import JobBatcher, ServerStopping
from repro.server.http import (
    MAX_HEAD_BYTES,
    MAX_HEADER_LINES,
    HttpFrontend,
    _ProtocolError,
)
from repro.server.jobs import result_fingerprint
from repro.server.testing import ClientResponse, HttpClient, TestClient


@pytest.fixture(autouse=True)
def small_scale(monkeypatch):
    monkeypatch.setenv("ROLP_BENCH_SCALE", "0.05")


#: tiny but real simulation budget for endpoint tests
OPS = 2_000


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


def run(coro):
    return asyncio.run(coro)


class GateRunner:
    """A runner fake: its memo holds the cells in ``memo`` (``run``
    answers them at once) and each ``run_async`` batch waits for
    ``release``."""

    def __init__(self, memo=()):
        self.memo = set(memo)
        self.entered = asyncio.Event()
        self.release = asyncio.Event()
        self.runs = []
        self.batches = []

    def holds(self, cell):
        return cell in self.memo

    def run(self, cells):
        self.runs.append(list(cells))
        return [{"ok": cell.key} for cell in cells]

    async def run_async(self, cells, executor):
        self.batches.append(list(cells))
        self.entered.set()
        await self.release.wait()
        return [{"ok": cell.key} for cell in cells]


def trace_cells(count):
    return [
        make_cell("trace_run", workload="lucene", collector="g1", operations=OPS + i)
        for i in range(count)
    ]


def make_app(**kwargs):
    kwargs.setdefault("clock", FakeClock())
    return ServerApp(runner=Runner(jobs=1, cache=None), **kwargs)


async def started(app):
    await app.startup()
    return TestClient(app)


def check(response, status, schema_name=None):
    """Assert status and validate the body against its response schema."""
    assert response.status == status, response.raw
    body = response.json()
    name = protocol.check_response(body)
    if schema_name is not None:
        assert name == schema_name, (name, body)
    return body


def check_error(response, status, reason):
    body = check(response, status, "error")
    assert body["error"]["status"] == status
    assert body["error"]["reason"] == reason
    assert body["error"]["detail"]
    return body


# ------------------------------------------------------------ schema stability

class TestSchemaStability:
    def test_schema_version_string(self):
        assert protocol.SCHEMA == "rolp-bench/server/v1"

    def test_reason_slug_table_is_stable(self):
        # the wire contract: slugs and their statuses may only change
        # with a schema-version bump
        assert protocol.REASONS == {
            "malformed-body": 400,
            "invalid-field": 400,
            "unknown-kind": 400,
            "invalid-params": 400,
            "unknown-workload": 400,
            "unknown-collector": 400,
            "unknown-session": 404,
            "unknown-endpoint": 404,
            "method-not-allowed": 405,
            "recording-disabled": 409,
            "queue-full": 429,
            "timeout": 504,
            "internal-error": 500,
            "server-stopping": 503,
        }

    def test_schema_document_lists_every_schema(self):
        doc = protocol.schema_document()
        protocol.validate(doc, protocol.SCHEMA_RESPONSE)
        assert sorted(doc["requests"]) == ["job", "session_create", "step"]
        assert sorted(doc["responses"]) == [
            "error", "health", "job", "metrics", "recording", "schema",
            "session", "session_closed", "session_list", "step",
        ]

    def test_every_schema_is_self_consistent(self):
        # every declared schema must itself be a dict with a type
        for name, schema in protocol.iter_schemas():
            assert isinstance(schema, dict), name
            assert schema.get("type") == "object", name

    def test_validator_rejects_and_locates(self):
        with pytest.raises(protocol.SchemaError) as err:
            protocol.validate(
                {"workload": 3}, protocol.SESSION_CREATE_REQUEST
            )
        assert "$.workload" in str(err.value)
        with pytest.raises(protocol.SchemaError):
            protocol.validate({"nope": 1}, protocol.SESSION_CREATE_REQUEST)
        protocol.validate({}, protocol.SESSION_CREATE_REQUEST)


# ------------------------------------------------------------- happy endpoints

class TestEndpoints:
    def test_healthz(self):
        async def scenario():
            app = make_app()
            client = await started(app)
            body = check(await client.get("/healthz"), 200, "health")
            assert body["status"] == "ok"
            assert body["accepting"] is True
            await app.shutdown()

        run(scenario())

    def test_schema_endpoint(self):
        async def scenario():
            app = make_app()
            client = await started(app)
            body = check(await client.get("/v1/schema"), 200, "schema")
            assert body["schema"] == protocol.SCHEMA
            assert body["reasons"] == protocol.REASONS
            await app.shutdown()

        run(scenario())

    def test_session_lifecycle_endpoints(self):
        async def scenario():
            app = make_app()
            client = await started(app)
            created = check(
                await client.post(
                    "/v1/sessions",
                    {"workload": "lucene", "collector": "g1", "operations": OPS},
                ),
                201,
                "session",
            )
            session = created["session"]
            assert session["id"] == "s-000001"
            assert session["seq"] == 1
            assert session["steps"] == session["jobs"] == 0

            listed = check(await client.get("/v1/sessions"), 200, "session_list")
            assert listed["count"] == 1
            assert listed["sessions"][0]["id"] == session["id"]

            queried = check(
                await client.get("/v1/sessions/%s" % session["id"]), 200, "session"
            )
            assert queried["session"]["trace_id"] == session["trace_id"]

            closed = check(
                await client.delete("/v1/sessions/%s" % session["id"]),
                200,
                "session_closed",
            )
            assert closed["closed"]["id"] == session["id"]
            assert check(await client.get("/v1/sessions"), 200)["count"] == 0
            await app.shutdown()

        run(scenario())

    def test_run_and_step_payloads(self):
        async def scenario():
            app = make_app()
            client = await started(app)
            body = await client.post(
                "/v1/sessions",
                {"workload": "graphchi-cc", "collector": "rolp", "operations": OPS},
            )
            sid = body.json()["session"]["id"]

            ran = check(await client.post("/v1/sessions/%s/run" % sid), 200, "job")
            job = ran["job"]
            assert job["kind"] == "trace_run"
            assert job["fingerprint"] == result_fingerprint(job["result"])

            stepped = check(
                await client.post("/v1/sessions/%s/step" % sid, {"ops": OPS}),
                200,
                "step",
            )
            assert stepped["step"] == 0
            assert stepped["job"]["kind"] == "session_step"
            assert stepped["job"]["result"]["step"] == 0

            # counters visible through query
            queried = check(await client.get("/v1/sessions/%s" % sid), 200)
            assert queried["session"]["jobs"] == 1
            assert queried["session"]["steps"] == 1
            await app.shutdown()

        run(scenario())

    def test_explicit_kind_job(self):
        async def scenario():
            app = make_app()
            client = await started(app)
            sid = (await client.post("/v1/sessions", {"operations": OPS})).json()[
                "session"
            ]["id"]
            ran = check(
                await client.post(
                    "/v1/sessions/%s/run" % sid,
                    {
                        "kind": "trace_run",
                        "params": {
                            "workload": "lucene",
                            "collector": "g1",
                            "operations": OPS,
                        },
                    },
                ),
                200,
                "job",
            )
            assert "workload='lucene'" in ran["job"]["cell_key"]
            await app.shutdown()

        run(scenario())

    def test_metrics_json_and_prometheus(self):
        async def scenario():
            app = make_app()
            client = await started(app)
            await client.post("/v1/sessions", {"operations": OPS})
            body = check(await client.get("/metrics"), 200, "metrics")
            assert body["sessions"]["created"] == 1
            assert body["sessions"]["active"] == 1
            assert body["queue"]["capacity"] >= 1
            text = await client.get("/metrics", query={"format": "prometheus"})
            assert text.status == 200
            assert b"# HELP" in text.raw or b"server_" in text.raw
            await app.shutdown()

        run(scenario())

    def test_recording_endpoint(self):
        async def scenario():
            app = make_app()
            client = await started(app)
            sid = (
                await client.post(
                    "/v1/sessions", {"operations": OPS, "flight_recorder": 256}
                )
            ).json()["session"]["id"]
            await client.post("/v1/sessions/%s/step" % sid, {"ops": OPS})
            body = check(
                await client.get("/v1/sessions/%s/recording" % sid), 200, "recording"
            )
            assert body["session_id"] == sid
            names = [event["name"] for event in body["events"]]
            assert "session/create" in names
            assert "session/step" in names
            assert body["counters"]["events_seen"] >= len(body["events"])
            await app.shutdown()

        run(scenario())


# ------------------------------------------------------------- error envelopes

class TestErrorEnvelopes:
    def test_unknown_session_is_404(self):
        async def scenario():
            app = make_app()
            client = await started(app)
            check_error(await client.get("/v1/sessions/s-999999"), 404, "unknown-session")
            check_error(
                await client.post("/v1/sessions/s-999999/run"), 404, "unknown-session"
            )
            check_error(
                await client.post("/v1/sessions/s-999999/step"), 404, "unknown-session"
            )
            check_error(
                await client.delete("/v1/sessions/s-999999"), 404, "unknown-session"
            )
            await app.shutdown()

        run(scenario())

    def test_double_close_is_clean_404(self):
        async def scenario():
            app = make_app()
            client = await started(app)
            sid = (await client.post("/v1/sessions", {"operations": OPS})).json()[
                "session"
            ]["id"]
            assert (await client.delete("/v1/sessions/%s" % sid)).status == 200
            check_error(
                await client.delete("/v1/sessions/%s" % sid), 404, "unknown-session"
            )
            await app.shutdown()

        run(scenario())

    def test_malformed_body_is_400_with_slug(self):
        async def scenario():
            app = make_app()
            client = await started(app)
            for raw_body in (
                b"{not json",
                b"[1, 2]",
                # not JSON numbers (a NaN passes every `minimum` check)
                b'{"idle_timeout_s": NaN}',
                b'{"idle_timeout_s": Infinity}',
                b'{"operations": -Infinity}',
            ):
                check_error(
                    await client.post("/v1/sessions", raw_body=raw_body),
                    400,
                    "malformed-body",
                )
            assert app.manager.ids() == []
            await app.shutdown()

        run(scenario())

    def test_schema_violations_are_400_invalid_field(self):
        async def scenario():
            app = make_app()
            client = await started(app)
            body = check_error(
                await client.post("/v1/sessions", {"workload": 7}),
                400,
                "invalid-field",
            )
            assert "$.workload" in body["error"]["detail"]
            check_error(
                await client.post("/v1/sessions", {"surprise": True}),
                400,
                "invalid-field",
            )
            check_error(
                await client.post("/v1/sessions", {"operations": 0}),
                400,
                "invalid-field",
            )
            await app.shutdown()

        run(scenario())

    def test_unknown_names_have_dedicated_slugs(self):
        async def scenario():
            app = make_app()
            client = await started(app)
            check_error(
                await client.post("/v1/sessions", {"workload": "nope"}),
                400,
                "unknown-workload",
            )
            check_error(
                await client.post("/v1/sessions", {"collector": "nope"}),
                400,
                "unknown-collector",
            )
            sid = (await client.post("/v1/sessions", {"operations": OPS})).json()[
                "session"
            ]["id"]
            check_error(
                await client.post(
                    "/v1/sessions/%s/run" % sid, {"kind": "no_such_kind"}
                ),
                400,
                "unknown-kind",
            )
            check_error(
                await client.post(
                    "/v1/sessions/%s/run" % sid,
                    {"kind": "trace_run", "params": {"bogus_param": 1}},
                ),
                400,
                "invalid-params",
            )
            # the hot-path kernels are test fixtures
            # (tests/test_perf_equivalence.py), not cells: the kind they
            # once ran under is no job kind
            perf_params = {"kernel": "alloc", "ops": 2000, "backend": "reference", "repeat": 1}
            check_error(
                await client.post(
                    "/v1/sessions/%s/run" % sid, {"kind": "perf_kernel", "params": perf_params}
                ),
                400,
                "unknown-kind",
            )
            await app.shutdown()

        run(scenario())

    def test_unknown_endpoint_and_method_not_allowed(self):
        async def scenario():
            app = make_app()
            client = await started(app)
            check_error(await client.get("/v2/anything"), 404, "unknown-endpoint")
            check_error(await client.post("/healthz"), 405, "method-not-allowed")
            check_error(await client.delete("/metrics"), 405, "method-not-allowed")
            check_error(
                await client.request("PATCH", "/v1/sessions"),
                405,
                "method-not-allowed",
            )
            sid = (await client.post("/v1/sessions", {"operations": OPS})).json()[
                "session"
            ]["id"]
            check_error(
                await client.get("/v1/sessions/%s/run" % sid),
                405,
                "method-not-allowed",
            )
            await app.shutdown()

        run(scenario())

    def test_recording_disabled_is_409(self):
        async def scenario():
            app = make_app()
            client = await started(app)
            sid = (await client.post("/v1/sessions", {"operations": OPS})).json()[
                "session"
            ]["id"]
            check_error(
                await client.get("/v1/sessions/%s/recording" % sid),
                409,
                "recording-disabled",
            )
            await app.shutdown()

        run(scenario())

    def test_full_queue_is_429_with_retry_after(self):
        async def scenario():
            app = make_app(queue_limit=2)
            client = await started(app)
            app.batcher.pause()  # deterministic: nothing drains
            sid = (await client.post("/v1/sessions", {"operations": OPS})).json()[
                "session"
            ]["id"]
            accepted = [
                asyncio.ensure_future(client.post("/v1/sessions/%s/run" % sid))
                for _ in range(2)
            ]
            await asyncio.sleep(0)  # let both submissions reach the queue
            rejected = await client.post("/v1/sessions/%s/run" % sid)
            body = check_error(rejected, 429, "queue-full")
            assert rejected.headers.get("Retry-After") == "1"
            assert "capacity" in body["error"]["detail"]
            app.batcher.resume()
            for task in accepted:
                check(await task, 200, "job")  # accepted jobs never dropped
            await app.shutdown()

        run(scenario())

    def test_failing_cell_is_500_and_booked_as_failed(self, monkeypatch):
        real = cell_implementation("trace_run")

        def trace_run(seed, telemetry, workload, collector, operations):
            if operations == OPS + 1:
                raise RuntimeError("planted cell failure")
            return real(
                seed=seed,
                telemetry=telemetry,
                workload=workload,
                collector=collector,
                operations=operations,
            )

        monkeypatch.setitem(runner_mod._CELL_KINDS, "trace_run", trace_run)

        async def scenario():
            app = make_app()
            client = await started(app)
            doomed = (
                await client.post("/v1/sessions", {"operations": OPS + 1})
            ).json()["session"]["id"]
            body = check_error(
                await client.post("/v1/sessions/%s/run" % doomed), 500, "internal-error"
            )
            assert "planted cell failure" in body["error"]["detail"]
            books = check(await client.get("/metrics"), 200, "metrics")["batcher"]
            assert books["failed"] == 1
            assert books["accepted"] == (
                books["completed"] + books["failed"] + books["abandoned"]
            )
            # the failed batch does not stop the app serving
            sid = (await client.post("/v1/sessions", {"operations": OPS})).json()[
                "session"
            ]["id"]
            check(await client.post("/v1/sessions/%s/run" % sid), 200, "job")
            await app.shutdown()

        run(scenario())

    def test_request_timeout_is_504(self):
        async def scenario():
            app = make_app(request_timeout_s=0.05)
            client = await started(app)
            app.batcher.pause()  # the job can never finish in time
            sid = (await client.post("/v1/sessions", {"operations": OPS})).json()[
                "session"
            ]["id"]
            check_error(
                await client.post("/v1/sessions/%s/run" % sid), 504, "timeout"
            )
            app.batcher.resume()
            await app.shutdown()

        run(scenario())


# ------------------------------------------------------------------- the wire

class TestHttpFrontend:
    """One TCP pass over the real codec; everything else runs in-process."""

    def test_misuse_raises_instead_of_asserting(self):
        frontend = HttpFrontend(make_app())
        with pytest.raises(RuntimeError, match="not started"):
            frontend.bound_port
        with pytest.raises(RuntimeError, match="not started"):
            run(frontend.serve_forever())
        for url in ("http://127.0.0.1", "http://:8413", "127.0.0.1:8413"):
            with pytest.raises(ValueError):
                HttpClient(url)

    def test_round_trip_and_wire_errors(self):
        async def scenario():
            app = make_app()
            frontend = HttpFrontend(app, "127.0.0.1", 0)
            await frontend.start()
            client = HttpClient("http://127.0.0.1:%d" % frontend.bound_port)

            check(await client.get("/healthz"), 200, "health")
            created = check(
                await client.post("/v1/sessions", {"operations": OPS}), 201, "session"
            )
            sid = created["session"]["id"]
            check(await client.post("/v1/sessions/%s/run" % sid), 200, "job")
            check_error(await client.get("/v1/sessions/nope"), 404, "unknown-session")

            # truncated JSON body straight over the socket
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", frontend.bound_port
            )
            writer.write(
                b"POST /v1/sessions HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: 4\r\nConnection: close\r\n\r\n{oop"
            )
            await writer.drain()
            raw = await reader.read()
            writer.close()
            head, _, payload = raw.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 400")
            body = json.loads(payload.decode())
            assert protocol.check_response(body) == "error"
            assert body["error"]["reason"] == "malformed-body"

            # negative Content-Length: refused before it can reach
            # readexactly, with the same 400 envelope
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", frontend.bound_port
            )
            writer.write(
                b"POST /v1/sessions HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: -5\r\nConnection: close\r\n\r\n"
            )
            await writer.drain()
            raw = await reader.read()
            writer.close()
            head, _, payload = raw.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 400")
            body = json.loads(payload.decode())
            assert protocol.check_response(body) == "error"
            assert body["error"]["reason"] == "malformed-body"
            assert "negative" in body["error"]["detail"]

            await frontend.stop()

        run(scenario())

    def test_codec_rejects_hostile_framing(self):
        """Negative Content-Length, header floods and over-limit heads
        are all refused at the codec, before any body allocation."""

        def feed(data):
            reader = asyncio.StreamReader()
            reader.feed_data(data)
            reader.feed_eof()
            return reader

        async def scenario():
            frontend = HttpFrontend(make_app())

            with pytest.raises(_ProtocolError) as err:
                await frontend._read_request(
                    feed(b"POST /v1/sessions HTTP/1.1\r\nContent-Length: -5\r\n\r\n"),
                    bytearray(),
                )
            assert err.value.response.status == 400
            assert "negative Content-Length" in str(err.value)

            flood = (
                b"GET /healthz HTTP/1.1\r\n"
                + b"".join(
                    b"X-%d: x\r\n" % i for i in range(MAX_HEADER_LINES + 5)
                )
                + b"\r\n"
            )
            with pytest.raises(_ProtocolError) as err:
                await frontend._read_request(feed(flood), bytearray())
            assert err.value.response.status == 400
            assert "header lines" in str(err.value)

            # a head over 64 KiB: one over-long header line, or lines
            # that pass the limit only together
            for head in (
                b"GET / HTTP/1.1\r\nX-Big: " + b"x" * MAX_HEAD_BYTES + b"\r\n\r\n",
                b"GET / HTTP/1.1\r\n" + b"X-Big: %s\r\n" % (b"x" * 1024) * 80 + b"\r\n",
            ):
                with pytest.raises(_ProtocolError) as err:
                    await frontend._read_request(feed(head), bytearray())
                assert err.value.response.status == 400
                assert err.value.response.body["error"]["reason"] == "malformed-body"
                assert "head exceeds %d bytes" % MAX_HEAD_BYTES in str(err.value)

        run(scenario())

    def test_pipelined_requests_answered_in_order(self):
        async def scenario(port):
            got = await exchange(
                port,
                b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
                + post_bytes("/v1/sessions", {"operations": OPS})
                + b"GET /v1/schema HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
            )
            check(got[0], 200, "health")
            check(got[1], 201, "session")
            check(got[2], 200, "schema")
            assert len(got) == 3
            assert [r.headers["connection"] for r in got] == [
                "keep-alive", "keep-alive", "close",
            ]

        serve_wire(scenario)

    def test_request_trickled_a_byte_at_a_time(self):
        async def scenario(port):
            request = post_bytes("/v1/sessions", {"operations": OPS}, close=True)
            got = await exchange(
                port, *(request[i : i + 1] for i in range(len(request))), gap_s=0.001
            )
            assert len(got) == 1
            check(got[0], 201, "session")

        serve_wire(scenario)

    def test_bare_lf_heads_answered(self):
        async def scenario(port):
            got = await exchange(
                port,
                b"GET /healthz HTTP/1.1\nHost: t\n\n"
                + post_bytes("/v1/sessions", {"operations": OPS}).replace(b"\r\n", b"\n")
                + b"GET /v1/schema HTTP/1.1\r\nHost: t\n\r\n",
                eof=True,
            )
            check(got[0], 200, "health")
            check(got[1], 201, "session")
            check(got[2], 200, "schema")
            assert len(got) == 3

        serve_wire(scenario)

    def test_close_and_http10_end_the_connection(self):
        async def scenario(port):
            for first in (
                b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
                b"GET /healthz HTTP/1.0\r\n\r\n",
            ):
                got = await exchange(port, first + b"GET /healthz HTTP/1.1\r\n\r\n")
                assert len(got) == 1
                check(got[0], 200, "health")
                assert got[0].headers["connection"] == "close"

        serve_wire(scenario)

    def test_query_reaches_the_app(self):
        async def scenario(port):
            got = await exchange(
                port,
                b"GET /healthz HTTP/1.1\r\n\r\n"
                b"GET /metrics?format=prometheus HTTP/1.1\r\nConnection: close\r\n\r\n",
            )
            assert got[1].status == 200
            assert got[1].headers["content-type"].startswith("text/plain")
            assert b"server_requests_total" in got[1].raw

        serve_wire(scenario)

    @pytest.mark.parametrize(
        "partial",
        [
            b"GET /healthz HTTP/1.1\r\nHost: t\r\n",
            b"POST /v1/sessions HTTP/1.1\r\nContent-Length: 40\r\n\r\n{\"oper",
        ],
        ids=["head", "body"],
    )
    def test_eof_inside_a_request_closes_without_reply(self, partial):
        async def scenario(port):
            assert await exchange(port, partial, eof=True) == []

        serve_wire(scenario)

    @pytest.mark.parametrize(
        "sent, detail",
        [
            (b"GET /\r\n", "unparseable request line"),
            (
                b"GET /healthz HTTP/1.1\r\nX-Big: ".ljust(MAX_HEAD_BYTES, b"x"),
                "request head exceeds %d bytes" % MAX_HEAD_BYTES,
            ),
        ],
        ids=["http09-request-line", "head-at-limit"],
    )
    def test_framing_refused_before_the_head_ends(self, sent, detail):
        """What the bytes so far already refuse is answered without
        waiting for a blank line that may never come."""

        async def scenario(port):
            got = await exchange(port, sent)
            assert len(got) == 1
            body = check_error(got[0], 400, "malformed-body")
            assert body["error"]["detail"] == detail
            assert got[0].headers["connection"] == "close"

        serve_wire(scenario)


def post_bytes(path, body, close=False):
    payload = json.dumps(body).encode()
    return (
        "POST %s HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n%s\r\n"
        % (path, len(payload), "Connection: close\r\n" if close else "")
    ).encode() + payload


def serve_wire(scenario):
    """Run ``scenario(port)`` against a listening frontend."""

    async def main():
        frontend = HttpFrontend(make_app(), "127.0.0.1", 0)
        await frontend.start()
        try:
            await scenario(frontend.bound_port)
        finally:
            await frontend.stop()

    run(main())


async def exchange(port, *writes, eof=False, gap_s=0.0):
    """Send ``writes`` over one connection (``gap_s`` apart), half-close
    it if ``eof``, and parse what the server sends until it closes."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        for data in writes:
            writer.write(data)
            await writer.drain()
            if gap_s:
                await asyncio.sleep(gap_s)
        if eof:
            writer.write_eof()
        raw = await asyncio.wait_for(reader.read(), 10.0)
    finally:
        writer.close()
        await writer.wait_closed()
    responses = []
    while raw:
        head, _, rest = raw.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers["content-length"])
        responses.append(ClientResponse(int(lines[0].split()[1]), rest[:length], headers))
        raw = rest[length:]
    return responses


class TestAppConstruction:
    def test_explicit_base_seed_wins_over_runner(self):
        """base_seed=N must govern every derived seed and trace id even
        when the caller also supplies a runner."""

        async def scenario():
            runner = Runner(jobs=1, cache=None, base_seed=7)
            app = ServerApp(runner=runner, base_seed=99, clock=FakeClock())
            assert app.base_seed == 99
            assert runner.base_seed == 99
            assert app.manager.base_seed == 99

            inherited = ServerApp(
                runner=Runner(jobs=1, cache=None, base_seed=7), clock=FakeClock()
            )
            assert inherited.base_seed == 7
            assert inherited.manager.base_seed == 7

        run(scenario())


class TestBatcherShutdown:
    def test_stop_abandons_queued_jobs_even_mid_batch(self):
        """stop() during an in-flight batch lets that batch finish but
        fails still-queued jobs with ServerStopping instead of draining
        the whole backlog first."""

        async def scenario():
            runner = GateRunner()
            batcher = JobBatcher(runner, queue_limit=8, max_batch=1)
            batcher.start()
            cells = trace_cells(3)
            futures = [batcher.submit(cell) for cell in cells]
            await runner.entered.wait()  # worker is mid-batch with job 0
            stop_task = asyncio.ensure_future(batcher.stop())
            await asyncio.sleep(0)  # stop() observed before the batch ends
            runner.release.set()
            await stop_task
            assert (await futures[0])["ok"] == cells[0].key
            for future in futures[1:]:
                with pytest.raises(ServerStopping):
                    await future
            assert batcher.completed == 1
            assert batcher.abandoned == 2

        run(scenario())

    def test_memo_held_job_after_stop_is_503(self):
        """A stopped server answers no job at admission, not even one
        its runner's memo holds."""

        async def scenario():
            app = make_app()
            client = await started(app)
            bindings = {"workload": "lucene", "collector": "g1", "operations": OPS}
            sids = [
                (await client.post("/v1/sessions", bindings)).json()["session"]["id"]
                for _ in range(2)
            ]
            check(await client.post("/v1/sessions/%s/step" % sids[0], {"ops": OPS}), 200)
            held = make_cell(
                "session_step", workload="lucene", collector="g1", operations=OPS, step=0
            )
            assert app.runner.holds(held)
            await app.shutdown()
            check_error(
                await client.post("/v1/sessions/%s/step" % sids[1], {"ops": OPS}),
                503,
                "server-stopping",
            )
            counters = app.batcher.counters()
            assert counters["accepted"] == counters["completed"] == 1

        run(scenario())


class TestAdmissionAnswer:
    """``submit`` answers a memo-held job itself only when the batcher
    is idle: the queue empty, no batch awaiting the executor, not
    paused.  Otherwise the job queues and reaches ``run_async``."""

    def test_idle_batcher_answers_a_memo_held_job_at_once(self):
        async def scenario():
            (held,) = trace_cells(1)
            runner = GateRunner(memo=[held])
            batcher = JobBatcher(runner)
            batcher.start()
            future = batcher.submit(held)
            assert future.done()
            assert future.result() == {"ok": held.key}
            assert runner.runs == [[held]]
            assert runner.batches == []
            counters = batcher.counters()
            assert counters["accepted"] == counters["completed"] == 1
            assert counters["batches"] == 0
            await batcher.stop()

        run(scenario())

    def test_paused_batcher_queues_a_memo_held_job(self):
        async def scenario():
            (held,) = trace_cells(1)
            runner = GateRunner(memo=[held])
            runner.release.set()
            batcher = JobBatcher(runner)
            batcher.start()
            batcher.pause()
            future = batcher.submit(held)
            assert not future.done()
            assert batcher.depth == 1
            batcher.resume()
            assert await future == {"ok": held.key}
            assert runner.batches == [[held]]
            assert runner.runs == []
            await batcher.stop()

        run(scenario())

    def test_memo_held_job_queues_behind_a_batch_in_flight(self):
        async def scenario():
            fresh, held = trace_cells(2)
            runner = GateRunner(memo=[held])
            batcher = JobBatcher(runner)
            batcher.start()
            first = batcher.submit(fresh)
            await runner.entered.wait()  # the worker awaits the executor
            assert batcher.depth == 0
            second = batcher.submit(held)
            assert not second.done()
            assert batcher.depth == 1
            runner.release.set()
            assert await first == {"ok": fresh.key}
            assert await second == {"ok": held.key}
            assert runner.batches == [[fresh], [held]]
            assert runner.runs == []
            assert batcher.counters()["batches"] == 2
            await batcher.stop()

        run(scenario())

    def test_memo_held_job_queues_behind_a_queued_job(self):
        async def scenario():
            fresh, held = trace_cells(2)
            runner = GateRunner(memo=[held])
            runner.release.set()
            batcher = JobBatcher(runner)
            batcher.start()
            first = batcher.submit(fresh)  # queued: the worker has not run
            second = batcher.submit(held)
            assert not second.done()
            assert batcher.depth == 2
            assert await asyncio.gather(first, second) == [
                {"ok": fresh.key},
                {"ok": held.key},
            ]
            assert runner.batches == [[fresh, held]]
            assert runner.runs == []
            await batcher.stop()

        run(scenario())


class TestServeCli:
    def test_serve_is_a_cli_choice(self):
        from repro.bench.cli import main

        with pytest.raises(SystemExit) as err:
            main(["serve", "--port", "not-a-port"])
        assert err.value.code == 2  # argparse rejects, proving the route exists


def test_runner_cells_cover_server_kinds():
    """The server's job vocabulary is the runner registry, including
    the session_step kind the server itself registers."""
    from repro.bench.runner import registered_cell_kinds

    kinds = registered_cell_kinds()
    assert "trace_run" in kinds
    assert "session_step" in kinds
    cell = make_cell(
        "session_step", workload="lucene", collector="g1", operations=OPS, step=3
    )
    assert "step=3" in cell.key
    # step stays in the seed scope; collector is the dropped treatment
    assert "step=3" in cell.seed_key
    assert "collector" not in cell.seed_key
