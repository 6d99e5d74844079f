"""Load/soak determinism for the fleet server.

The contract under test: job payloads returned over the server protocol
are **byte-identical** to what a serial, single-tenant
:class:`~repro.bench.runner.Runner` produces for the same cells — no
matter how many clients run concurrently, how jobs get coalesced into
batches, whether results come from cache, or whether the server's
runner itself is parallel.  Backpressure (429) may delay a job but can
never drop or corrupt an accepted one.

No assertion here depends on wall-clock time: plans are seeded, the
overload scenario forces rejections by pausing the batcher rather than
racing it, and the soak compares canonical payload bytes, not
latencies.
"""

import asyncio

import pytest

from repro.bench import runner as runner_mod
from repro.bench.runner import DEFAULT_BASE_SEED, Runner, make_cell
from repro.server import app as app_mod
from repro.server import jobs as jobs_mod
from repro.server import sessions as sessions_mod
from repro.server import ServerApp
from repro.server.jobs import canonical_json, expected_payloads
from repro.server.testing import (
    LoadPlan,
    TestClient,
    expected_payload_bytes,
    run_load,
)


@pytest.fixture(autouse=True)
def small_scale(monkeypatch):
    monkeypatch.setenv("ROLP_BENCH_SCALE", "0.05")


OPS = 2_000


def run(coro):
    return asyncio.run(coro)


async def soak(app, plan):
    await app.startup()
    try:
        return await run_load(lambda planned: TestClient(app), plan)
    finally:
        await app.shutdown()


def assert_byte_identical(report, plan, base_seed):
    expected = expected_payload_bytes(plan, base_seed)
    assert report.errors == []
    assert len(report.payloads) == len(expected)
    mismatches = [
        index
        for index, (got, want) in enumerate(zip(report.payloads, expected))
        if got != want
    ]
    assert mismatches == [], (
        "%d/%d payloads diverge; first divergence at plan index %d"
        % (len(mismatches), len(expected), mismatches[0] if mismatches else -1)
    )


class TestConcurrentEqualsSerial:
    def test_soak_200_sessions_byte_identical_to_serial(self):
        """The acceptance bar: >=200 concurrent in-process sessions whose
        payloads match a serial Runner byte for byte.  The plan draws
        from a small workload/collector grid, so the runner's memo makes
        repeats cheap while every (cell, seed) still gets simulated."""
        plan = LoadPlan.generate(
            seed=1234, clients=200, jobs_per_client=1, operations=OPS
        )
        app = ServerApp(runner=Runner(jobs=1, cache=None), max_batch=16)
        report = run(soak(app, plan))
        assert report.clients == 200
        assert report.jobs_completed == 200
        assert_byte_identical(report, plan, app.base_seed)

    def test_multi_job_sessions_with_steps(self):
        """Sessions mixing whole runs and per-step cells: step indices
        are per-session state, so this exercises the claim/submit
        ordering under concurrency."""
        plan = LoadPlan.generate(
            seed=77, clients=24, jobs_per_client=3, operations=OPS
        )
        assert any(
            job.action == "step" for client in plan.clients for job in client.jobs
        )
        app = ServerApp(runner=Runner(jobs=1, cache=None), max_batch=8)
        report = run(soak(app, plan))
        assert report.jobs_completed == 24 * 3
        assert_byte_identical(report, plan, app.base_seed)

    def test_parallel_runner_inside_server_is_still_serial_equivalent(self):
        """`rolp-bench serve --jobs 2`: the batcher hands coalesced
        batches to a parallel Runner; payloads must not change."""
        plan = LoadPlan.generate(
            seed=9, clients=16, jobs_per_client=2, operations=OPS
        )
        app = ServerApp(runner=Runner(jobs=2, cache=None), max_batch=8)
        report = run(soak(app, plan))
        assert report.jobs_completed == 32
        assert_byte_identical(report, plan, app.base_seed)

    def test_cache_hits_are_byte_identical(self, tmp_path):
        """Same plan against a cache-backed server twice: the second
        pass is served from the PR 3 ResultCache and must produce the
        same bytes as the first (and as serial)."""
        from repro.bench.runner import ResultCache

        plan = LoadPlan.generate(
            seed=5, clients=8, jobs_per_client=1, operations=OPS
        )
        reports = []
        for _ in range(2):
            app = ServerApp(
                runner=Runner(jobs=1, cache=ResultCache(str(tmp_path)))
            )
            reports.append(run(soak(app, plan)))
        assert reports[0].payloads == reports[1].payloads
        assert_byte_identical(reports[1], plan, app.base_seed)

    def test_plan_is_a_pure_function_of_its_seed(self):
        one = LoadPlan.generate(seed=42, clients=12, jobs_per_client=2)
        two = LoadPlan.generate(seed=42, clients=12, jobs_per_client=2)
        assert [c.__dict__ for c in one.clients] == [c.__dict__ for c in two.clients]
        three = LoadPlan.generate(seed=43, clients=12, jobs_per_client=2)
        assert [c.__dict__ for c in one.clients] != [c.__dict__ for c in three.clients]


class TestBackpressure:
    def test_overload_rejects_visibly_but_never_corrupts(self):
        """With a tiny admission queue and the batcher paused, clients
        must observe >=1 429 — and after resume, every accepted job
        still completes with serial-identical bytes (retried jobs land
        exactly once in plan order)."""
        plan = LoadPlan.generate(
            seed=21, clients=40, jobs_per_client=1, operations=OPS
        )

        async def scenario():
            app = ServerApp(
                runner=Runner(jobs=1, cache=None), queue_limit=4, max_batch=4
            )
            await app.startup()
            app.batcher.pause()

            async def release():
                # let the clients slam into the paused 4-slot queue first
                for _ in range(200):
                    await asyncio.sleep(0)
                app.batcher.resume()

            releaser = asyncio.ensure_future(release())
            report = await run_load(lambda planned: TestClient(app), plan)
            await releaser
            await app.shutdown()
            return app, report

        app, report = run(scenario())
        assert report.rejected_429 >= 1, "backpressure never engaged"
        assert report.jobs_completed == 40
        assert_byte_identical(report, plan, app.base_seed)
        # the batcher's own ledger agrees: rejects counted, accepts drained
        counters = app.batcher.counters()
        assert counters["rejected"] == report.rejected_429
        assert counters["completed"] == counters["accepted"]

    def test_batch_coalescing_actually_happens(self):
        """Coalescing is the whole point of the batcher: with many jobs
        arriving while the worker is held, at least one batch must carry
        more than one cell — and the math must close."""

        async def scenario():
            app = ServerApp(
                runner=Runner(jobs=1, cache=None), queue_limit=64, max_batch=16
            )
            await app.startup()
            client = TestClient(app)
            sid = (
                await client.post(
                    "/v1/sessions",
                    {"workload": "lucene", "collector": "g1", "operations": OPS},
                )
            ).json()["session"]["id"]
            app.batcher.pause()
            tasks = [
                asyncio.ensure_future(
                    client.post("/v1/sessions/%s/step" % sid, {"ops": OPS})
                )
                for _ in range(10)
            ]
            for _ in range(50):
                await asyncio.sleep(0)
            app.batcher.resume()
            responses = [await task for task in tasks]
            counters = app.batcher.counters()
            await app.shutdown()
            return responses, counters

        responses, counters = run(scenario())
        assert all(r.status == 200 for r in responses)
        assert counters["accepted"] == counters["completed"] == 10
        assert counters["batches"] < 10, "jobs were never coalesced"


class TestPayloadConstruction:
    def test_expected_payloads_round_trip_the_wire_format(self):
        """`expected_payloads` (the serial oracle) emits exactly the
        protocol `job` object — guards against oracle/server skew."""
        cells = [
            make_cell(
                "session_step",
                workload="lucene",
                collector="rolp",
                operations=OPS,
                step=0,
            ),
            make_cell(
                "trace_run", workload="lucene", collector="g1", operations=OPS
            ),
        ]
        payloads = expected_payloads(cells, base_seed=1)
        from repro.server import protocol

        for payload in payloads:
            body = {"schema": protocol.SCHEMA, "job": payload}
            assert protocol.check_response(body) == "job"

    def test_canonical_json_is_stable_and_compact(self):
        blob = canonical_json({"b": 1, "a": [1, 2], "c": {"z": None, "y": 0.5}})
        assert blob == '{"a":[1,2],"b":1,"c":{"y":0.5,"z":null}}'

    def test_session_identity_is_not_in_the_cell_key(self):
        """Two sessions with the same bindings share cells — and thus
        the memo/cache — by design; the session id only namespaces
        lifecycle state, never simulation results."""

        async def scenario():
            app = ServerApp(runner=Runner(jobs=1, cache=None))
            await app.startup()
            client = TestClient(app)
            bindings = {"workload": "lucene", "collector": "g1", "operations": OPS}
            first = (await client.post("/v1/sessions", bindings)).json()["session"]
            second = (await client.post("/v1/sessions", bindings)).json()["session"]
            assert first["trace_id"] != second["trace_id"]  # sessions distinct
            job_a = (
                await client.post("/v1/sessions/%s/run" % first["id"])
            ).json()["job"]
            job_b = (
                await client.post("/v1/sessions/%s/run" % second["id"])
            ).json()["job"]
            await app.shutdown()
            return job_a, job_b

        job_a, job_b = run(scenario())
        assert job_a == job_b  # identical cell -> identical payload bytes


class TestMemoAnsweredJobs:
    def test_repeated_step_is_answered_without_the_executor(self):
        """Two sessions with the same bindings ask for the same step
        cell: the first job simulates it on the batcher's executor, the
        second is answered from the runner's memo on the loop thread,
        with the same bytes."""
        cell = make_cell(
            "session_step", workload="lucene", collector="g1", operations=OPS, step=0
        )

        async def scenario():
            app = ServerApp(runner=Runner(jobs=1, cache=None))
            executor = app.batcher._executor
            submitted = []
            run_async_calls = []
            submit, run_async = executor.submit, app.runner.run_async

            def recording_submit(fn, *args, **kwargs):
                submitted.append(args)
                return submit(fn, *args, **kwargs)

            async def counting_run_async(cells, executor=None):
                run_async_calls.append(list(cells))
                return await run_async(cells, executor)

            executor.submit = recording_submit
            app.runner.run_async = counting_run_async
            await app.startup()
            client = TestClient(app)
            bindings = {"workload": "lucene", "collector": "g1", "operations": OPS}
            jobs, submits = [], []
            for _ in range(2):
                sid = (await client.post("/v1/sessions", bindings)).json()["session"]["id"]
                response = await client.post("/v1/sessions/%s/step" % sid, {"ops": OPS})
                assert response.status == 200
                jobs.append(canonical_json(response.json()["job"]).encode())
                submits.append(len(submitted))
            counters = app.batcher.counters()
            await app.shutdown()
            return app, jobs, submits, counters, run_async_calls

        app, jobs, submits, counters, run_async_calls = run(scenario())
        assert submits == [1, 1]
        (expected,) = expected_payloads([cell], app.base_seed)
        assert jobs[0] == jobs[1] == canonical_json(expected).encode()
        assert counters["accepted"] == counters["completed"] == 2
        assert counters["failed"] == counters["abandoned"] == counters["rejected"] == 0
        assert run_async_calls == [[cell], [cell]]
        assert len(run_async_calls) == counters["batches"]
        assert app.runner.stats.simulations == 1
        assert app.runner.stats.memo_hits == 1

    def test_repeated_step_derives_no_seed(self, monkeypatch):
        """The runner keeps each cell's seed: the first step derives it
        once, and a second session's identical step derives none."""
        derived = []

        def counting(key, base_seed=DEFAULT_BASE_SEED):
            derived.append(key)
            return real_derive_seed(key, base_seed)

        real_derive_seed = runner_mod.derive_seed
        monkeypatch.setattr(runner_mod, "derive_seed", counting)
        monkeypatch.setattr(sessions_mod, "derive_seed", counting)

        async def scenario():
            app = ServerApp(runner=Runner(jobs=1, cache=None))
            await app.startup()
            client = TestClient(app)
            bindings = {"workload": "lucene", "collector": "g1", "operations": OPS}
            derivations, jobs = [], []
            for _ in range(2):
                sid = (await client.post("/v1/sessions", bindings)).json()["session"]["id"]
                before = len(derived)
                response = await client.post("/v1/sessions/%s/step" % sid, {"ops": OPS})
                assert response.status == 200
                derivations.append(len(derived) - before)
                jobs.append(canonical_json(response.json()["job"]))
            await app.shutdown()
            return derivations, jobs

        derivations, jobs = run(scenario())
        assert derivations == [1, 0]
        assert jobs[0] == jobs[1]

    def test_repeated_run_derives_no_trace_id(self, monkeypatch):
        """A memo-answered ``run`` job reuses the trace id the runner
        already holds for its cell, for the session log and the reply
        alike: once the first job ran, none is derived again."""
        derived = []

        def counting(key, seed):
            derived.append(key)
            return real_derive_trace_id(key, seed)

        real_derive_trace_id = runner_mod.derive_trace_id
        # wherever the served path could bind the helper
        for module in (runner_mod, sessions_mod, jobs_mod, app_mod):
            monkeypatch.setattr(module, "derive_trace_id", counting, raising=False)

        async def scenario():
            app = ServerApp(runner=Runner(jobs=1, cache=None))
            await app.startup()
            client = TestClient(app)
            bindings = {"workload": "lucene", "collector": "g1", "operations": OPS}
            sid = (await client.post("/v1/sessions", bindings)).json()["session"]["id"]
            first = (await client.post("/v1/sessions/%s/run" % sid)).json()["job"]
            before = len(derived)
            repeats = []
            for _ in range(10):
                response = await client.post("/v1/sessions/%s/run" % sid)
                assert response.status == 200
                repeats.append(response.json()["job"])
            await app.shutdown()
            return first, repeats, len(derived) - before

        first, repeats, derivations = run(scenario())
        assert derivations == 0
        assert repeats == [first] * 10
