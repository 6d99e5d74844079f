"""The serve-sessions workload: ``rolp-bench serve --jobs 1 --no-cache``
in a child process, driven by a closed loop of keep-alive clients.

Each client waits for every reply before it sends its next request and
keeps one connection for its whole script.  A session is: create,
``SERVE_STEPS`` steps, one whole-run job, close.  Before the timed load
phase one client serves the warm set — every binding's repeated step
cells and its run cell — so that the load phase's repeated jobs are
answered by the runner's memo and only its fresh jobs (a fixed share,
each a cell never served before) run a simulation.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import socket
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import common
import plans

HOST = "127.0.0.1"
_LISTENING = re.compile(rb"listening on http://[^:]+:(\d+)")
_START_TIMEOUT_S = 60.0
_STOP_TIMEOUT_S = 30.0
_MAX_ATTEMPTS = 200


class Server:
    """One server child; ``setup_s`` runs from spawn to the first
    ``/healthz`` 200.  ``stats_out`` selects the traced wrapper."""

    def __init__(self, root, workdir, env, seed, name, stats_out=None, trace_out=None):
        serve_args = ["serve", "--jobs", "1", "--no-cache", "--host", HOST, "--port", "0",
                      "--seed", str(seed)]
        if stats_out:
            argv = [sys.executable, os.path.join(common.HERE, "serve_child.py"),
                    "--stats-out", stats_out, "--trace-out", trace_out, "--"] + serve_args
        else:
            argv = [sys.executable, "-m", "repro.bench.cli"] + serve_args
        self.log_path = os.path.join(workdir, name + ".log")
        before = common.reference_s()
        launched = time.monotonic()
        self.proc = common.spawn(argv, root, env, self.log_path)
        try:
            self.port = self._wait_listening()
            while get(self.port, "/healthz")[0] != 200:
                time.sleep(0.002)
        except BaseException:
            common.reap(self.proc, _STOP_TIMEOUT_S, interrupt=True)
            raise
        self.setup_s = common.rescale(time.monotonic() - launched, before, common.reference_s())

    def _wait_listening(self) -> int:
        deadline = time.monotonic() + _START_TIMEOUT_S
        while time.monotonic() < deadline:
            with open(self.log_path, "rb") as handle:
                match = _LISTENING.search(handle.read())
            if match:
                return int(match.group(1))
            if self.proc.poll() is not None:
                raise RuntimeError("server exited before listening; see %s" % self.log_path)
            time.sleep(0.002)
        raise RuntimeError("server not listening after %ds" % _START_TIMEOUT_S)

    def stop(self):
        """SIGINT, wait; returns ``(exit code, peak RSS MiB)``."""
        return common.reap(self.proc, _STOP_TIMEOUT_S, interrupt=True)


def get(port: int, path: str):
    """Blocking ``GET``; ``(0, b"")`` while nothing listens yet."""
    try:
        with socket.create_connection((HOST, port), timeout=5.0) as sock:
            sock.sendall(("GET %s HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n" % path).encode())
            data = b""
            chunk = sock.recv(65536)
            while chunk:
                data += chunk
                chunk = sock.recv(65536)
    except OSError:
        return 0, b""
    head, _, body = data.partition(b"\r\n\r\n")
    return int(head.split()[1]), body


@dataclass
class Load:
    """What one closed-loop load phase observed."""

    payloads: List[Optional[bytes]]
    #: job latencies in reference seconds, and as measured
    latencies_s: List[float] = field(default_factory=list)
    raw_latencies_s: List[float] = field(default_factory=list)
    #: (start, end) of every job request, for the traced join with spans
    job_windows: List[tuple] = field(default_factory=list)
    attempts: int = 0
    retries: int = 0
    errors: List[str] = field(default_factory=list)
    wall_s: float = 0.0
    raw_wall_s: float = 0.0


async def _request(reader, writer, method: str, path: str, body=None):
    payload = b"" if body is None else json.dumps(body).encode()
    writer.write(
        ("%s %s HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n"
         "Content-Length: %d\r\n\r\n" % (method, path, len(payload))).encode() + payload
    )
    await writer.drain()
    status = int((await reader.readline()).split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    return status, await reader.readexactly(length)


class _Pace:
    """Every ``SERVE_PACE_SESSIONS`` sessions the clients meet, one of
    them measures the reference kernel while no request is in flight, and
    all go on; a job's latency is scaled by the factor measured last."""

    def __init__(self, parties: int) -> None:
        self.pacer = common.Pacer(timer=False)
        self._arrive = asyncio.Barrier(parties)
        self._leave = asyncio.Barrier(parties)

    async def sync(self) -> None:
        if await self._arrive.wait() == 0:
            self.pacer.sample()
        await self._leave.wait()

    async def abort(self) -> None:
        await self._arrive.abort()
        await self._leave.abort()


async def _client(port: int, scripts: Sequence[plans.Script], base: int, load: Load,
                  pace: _Pace) -> None:
    from repro.server.jobs import canonical_json

    reader, writer = await asyncio.open_connection(HOST, port)
    slot = base
    try:
        for index, script in enumerate(scripts):
            if index and index % plans.SERVE_PACE_SESSIONS == 0:
                await pace.sync()
            status, raw = await _request(
                reader, writer, "POST", "/v1/sessions",
                {"workload": script.workload, "collector": script.collector,
                 "operations": plans.SERVE_RUN_OPS},
            )
            if status != 201:
                load.errors.append("create -> %d" % status)
                slot += script.jobs
                continue
            sid = json.loads(raw)["session"]["id"]
            requests = [("step", {"ops": ops}) for ops in script.steps] + [("run", {})]
            for action, body in requests:
                path = "/v1/sessions/%s/%s" % (sid, action)
                for _ in range(_MAX_ATTEMPTS):
                    load.attempts += 1
                    started = time.monotonic()
                    status, raw = await _request(reader, writer, "POST", path, body)
                    ended = time.monotonic()
                    if status != 429:
                        break
                    load.retries += 1
                    await asyncio.sleep(0.005)
                if status == 200:
                    load.raw_latencies_s.append(ended - started)
                    load.latencies_s.append((ended - started) * pace.pacer.factor)
                    load.job_windows.append((started, ended))
                    load.payloads[slot] = canonical_json(json.loads(raw)["job"]).encode()
                else:
                    load.errors.append("%s job %d -> %d" % (action, slot, status))
                slot += 1
            status, _ = await _request(reader, writer, "DELETE", "/v1/sessions/%s" % sid)
            if status != 200:
                load.errors.append("close %s -> %d" % (sid, status))
    except BaseException:
        await pace.abort()  # the other clients must not wait for this one
        raise
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def drive(port: int, clients: Sequence[Sequence[plans.Script]]) -> Load:
    """Run one closed-loop phase: one concurrent client per script list."""
    total = sum(script.jobs for scripts in clients for script in scripts)
    load = Load(payloads=[None] * total)
    bases = []
    base = 0
    for scripts in clients:
        bases.append(base)
        base += sum(script.jobs for script in scripts)

    async def main():
        pace = _Pace(len(clients))
        await asyncio.gather(
            *(_client(port, scripts, bases[i], load, pace) for i, scripts in enumerate(clients))
        )
        return pace.pacer.mark()

    load.raw_wall_s, load.wall_s = asyncio.run(main())
    return load


def expected_payloads(scripts: Sequence[plans.Script], seed: int) -> List[bytes]:
    """The serial-Runner oracle: what a conforming server returns for
    these scripts' jobs, in order (== ``expected_payload_bytes``)."""
    from repro.server.jobs import canonical_json, expected_payloads as oracle

    cells = [cell for script in scripts for cell in script.cells()]
    return [canonical_json(payload).encode() for payload in oracle(cells, seed)]


def _pass(root, workdir, env, seed, warm, clients, name, traced):
    """One server lifetime: warm set, timed load phase, ledger check."""
    stats_out = trace_out = None
    if traced:
        stats_out = os.path.join(workdir, name + ".stats.json")
        trace_out = os.path.join(root, ".perfbench", "traces", "serve-sessions-seed%d.json" % seed)
    server = Server(root, workdir, env, plans.SERVE_SEED, name, stats_out, trace_out)
    try:
        warm_load = drive(server.port, [warm])
        load = drive(server.port, clients)
        status, body = get(server.port, "/metrics")
    finally:
        code, rss = server.stop()
    if code != 0:
        raise RuntimeError("server exited with %d; see %s" % (code, server.log_path))
    ledger = json.loads(body) if status == 200 else {}
    result = {
        "setup_s": server.setup_s,
        "rss_mb": rss,
        "warm": warm_load,
        "load": load,
        "sessions_active": ledger.get("sessions", {}).get("active"),
        "batcher": ledger.get("batcher", {}),
    }
    if traced:
        with open(stats_out) as handle:
            result["stats"] = json.load(handle)
    return result


def run(root: str, workdir: str, env: Dict[str, str], seed: int, size: str, trace: bool):
    """The whole serve-sessions run; returns ``(metrics, checks, details)``."""
    warm, clients = plans.serve_plan(seed, size)
    setups = []
    if not trace:
        for probe in range(plans.SETUP_PROBES):
            server = Server(root, workdir, env, plans.SERVE_SEED, "probe-%d" % probe)
            setups.append(server.setup_s)
            server.stop()
    timed = _pass(root, workdir, env, seed, warm, clients, "server", traced=False)
    passes = [timed]
    if trace:
        os.makedirs(os.path.join(root, ".perfbench", "traces"), exist_ok=True)
        passes.append(_pass(root, workdir, env, seed, warm, clients, "traced", traced=True))

    # correctness: every served payload against the serial oracle
    want = expected_payloads(warm, plans.SERVE_SEED) + expected_payloads(
        [script for scripts in clients for script in scripts], plans.SERVE_SEED
    )
    attempted = failed = 0
    errors: List[str] = []
    for result in passes:
        got = result["warm"].payloads + result["load"].payloads
        attempted += len(want)
        bad = [index for index, (a, b) in enumerate(zip(got, want)) if a != b]
        failed += len(bad)
        if bad:
            errors.append("payload %d differs from the serial oracle" % bad[0])
        errors.extend(result["warm"].errors + result["load"].errors)
        books = result["batcher"]
        if result["sessions_active"] != 0 or books.get("completed") != books.get("accepted"):
            failed += 1
            errors.append(
                "ledger: %s active sessions, completed %s of %s accepted"
                % (result["sessions_active"], books.get("completed"), books.get("accepted"))
            )

    load = timed["load"]
    jobs = len(load.latencies_s)
    tail_pct = common.tail_percentile(len(load.payloads))
    if trace:
        metrics = _layers(passes[1], timed)
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": load.wall_s,
            "throughput_per_s": jobs / load.wall_s,
            "p50_ms": common.percentile(load.latencies_s, 50) * 1e3,
            "tail_ms": common.percentile(load.latencies_s, tail_pct) * 1e3,
            "peak_rss_mb": timed["rss_mb"],
        }
    details = {
        "jobs": jobs,
        "tail_percentile": tail_pct,
        "fresh_share": plans.SERVE_FRESH_SHARE,
        "payload_sha256": common.digest([p.decode() for p in load.payloads if p]),
        "raw_wall_s": load.raw_wall_s,
        "raw_p50_ms": common.percentile(load.raw_latencies_s, 50) * 1e3,
        "ledger": timed["batcher"],
        "sessions_active": timed["sessions_active"],
    }
    return metrics, (attempted, failed, errors), details


def _layers(traced, timed) -> Dict[str, float]:
    """Per-layer metrics from the traced server pass."""
    stats = traced["stats"]
    layers = dict(stats["layers"])
    load = traced["load"]
    lo = min(start for start, _ in load.job_windows)
    hi = max(end for _, end in load.job_windows)
    handled = [end - start for start, end, label in stats["handle"]
               if label.endswith(("/step", "/run")) and lo <= start <= hi]
    jobs = len(load.latencies_s)
    runner = stats["runner"]
    layers.update(
        {
            "bench.runner.cells": runner["cells"],
            "bench.runner.memo_hits": runner["memo_hits"],
            "bench.runner.cache_hits": runner["cache_hits"],
            "bench.runner.cache_misses": runner["cache_misses"],
            "server.http_s": (sum(load.raw_latencies_s) - sum(handled)) / jobs,
            "server.queue_wait_s": statistics.mean(stats["queue_waits"]),
            "server.batch_size_mean": statistics.mean(stats["batch_sizes"]),
            "server.memo_hit_ratio": runner["memo_hits"] / traced["batcher"]["accepted"],
            "server.retry_ratio": load.retries / load.attempts,
            "trace.overhead_ratio": common.percentile(load.latencies_s, 50)
            / common.percentile(timed["load"].latencies_s, 50),
        }
    )
    return layers
