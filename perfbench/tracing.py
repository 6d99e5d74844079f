"""Outside-in tracing for the traced benchmark pass.

Two instruments, installed only in the traced child process (never in a
timed one) and removed again by :meth:`Tracing.uninstall`:

* **spans** — wrappers around the public layer boundaries: the runner,
  the result cache, the renderers, ``Workload.run_op``, ``JavaVM.run``,
  the collectors, the ROLP profiler's GC hooks and, under ``serve``, the
  request handler and the batcher.  A span records wall time, its self
  time (its duration minus the time of spans nested in it on the same
  thread) and the trace id of the enclosing cell
  (:func:`repro.bench.runner.derive_trace_id`) or of the session;
* **a stack sampler** — ``signal.setitimer(ITIMER_PROF)`` plus a frame
  walk.  A sample is charged to the innermost ``repro.<package>`` frame
  of every busy thread; stdlib and numpy frames count for their nearest
  ``repro`` caller.  It alone covers the per-object paths too hot to wrap
  (``JavaVM.allocate``, ``ExecutionContext.call``, ``RegionHeap.allocate``,
  the clock).

CPython runs a signal handler at the next eval-breaker check, so the
sampler over-charges small functions that are called very often; the
layers measured both ways (``gc.collect_young``, ``core.on_gc_survivors``)
are printed with their sampled share next to their span self time.
"""

from __future__ import annotations

import functools
import inspect
import json
import signal
import sys
import threading
import time
from typing import Dict, List, Tuple

#: the layers a sample may be charged to (``repro`` package names)
LAYERS = (
    "runtime",
    "heap",
    "gc",
    "core",
    "workloads",
    "metrics",
    "telemetry",
    "bench",
    "server",
    "analysis",
)

#: spans entered once per operation: totalled per cell, not kept singly
HOT_SPANS = frozenset(("workloads.run_op", "runtime.vm_run"))

#: spans whose self time is reported
SELF_TIMED = frozenset(
    ("workloads.run_op", "runtime.vm_run", "gc.collect_young", "server.handle")
)

#: the innermost (module, function) of a thread blocked, not computing
_IDLE_FRAMES = frozenset(
    (
        ("selectors", "select"),
        ("threading", "wait"),
        ("threading", "_wait_for_tstate_lock"),
        ("queue", "get"),
        ("concurrent.futures.thread", "_worker"),
    )
)

#: this benchmark's modules: a sample landing in them is harness time
_HARNESS_MODULES = frozenset(("tracing", "grid", "serve_child", "plans", "common", "__main__"))

_SAMPLE_INTERVAL_S = 0.005


class _Total:
    __slots__ = ("calls", "busy_s", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.busy_s = 0.0
        self.self_s = 0.0


class Tracing:
    """Span wrappers + stack sampler for one traced process."""

    def __init__(self) -> None:
        self._patches: List[Tuple[object, str, object, bool]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self.origin = time.monotonic()
        #: span name -> totals over the current phase (zeroed in place by
        #: :meth:`reset`, so wrappers may hold on to them)
        self.totals: Dict[str, _Total] = {}
        #: trace id -> hot span name -> (calls, busy, self) inside that cell
        self.cell_hot: Dict[str, Dict[str, tuple]] = {}
        #: kept spans: (name, thread, start, end, self, trace id, label)
        self.events: List[tuple] = []
        #: layer -> samples charged to it over the current phase
        self.samples: Dict[str, float] = {}
        self.idle_samples = 0
        self.cache_load_hits = 0
        #: every Runner built while installed (the server's own included)
        self.runners: List[object] = []
        self.session_trace_ids: Dict[str, str] = {}
        self.queue_waits: List[float] = []
        self.batch_sizes: List[int] = []
        self._submitted: Dict[str, List[float]] = {}

    def reset(self) -> None:
        """Start a new measurement phase (the Chrome events are kept)."""
        for total in self.totals.values():
            total.calls = 0
            total.busy_s = total.self_s = 0.0
        self.samples = {}
        self.idle_samples = 0
        self.cache_load_hits = 0

    # -------------------------------------------------------------- spans

    @property
    def trace_id(self) -> str:
        return getattr(self._local, "trace_id", "")

    def _total(self, name: str) -> _Total:
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = _Total()
        return total

    def _record(self, name, start, end, self_s, trace_id, label="") -> None:
        with self._lock:
            total = self._total(name)
            total.calls += 1
            total.busy_s += end - start
            total.self_s += self_s
            self.events.append((name, threading.get_ident(), start, end, self_s, trace_id, label))

    def _span(self, name: str, fn):
        """A synchronous span wrapper.  A span entered directly inside a
        span of the same name (a ``super()`` chain) folds into it.

        The per-operation spans only add to their totals (they run on the
        one thread executing simulations, so no lock): every statement
        here is time the sampler charges to the harness."""
        local = self._local
        clock = time.monotonic
        record = self._record
        total = self._total(name) if name in HOT_SPANS else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            entry = [name, 0.0]
            stack.append(entry)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                busy = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += busy
                if total is not None:
                    total.calls += 1
                    total.busy_s += busy
                    total.self_s += busy - entry[1]
                else:
                    record(name, start, start + busy, busy - entry[1],
                           getattr(local, "trace_id", ""))

        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        had_own = attr in vars(owner)
        original = vars(owner)[attr] if had_own else getattr(owner, attr)
        self._patches.append((owner, attr, original, had_own))
        setattr(owner, attr, replacement)

    def _wrap(self, owner, attr: str, name: str) -> None:
        self._patch(owner, attr, self._span(name, getattr(owner, attr)))

    # ------------------------------------------------------------ install

    def install(self) -> None:
        """Wrap the simulation and bench-layer boundaries."""
        import repro.bench.workload_registry  # noqa: F401  (imports every workload)
        import repro.gc  # noqa: F401  (imports every collector)
        from repro.bench import ablations, artifacts, figures, runner, tables
        from repro.core.profiler import RolpProfiler
        from repro.gc.collector import Collector
        from repro.runtime.hooks import NullProfiler
        from repro.runtime.vm import JavaVM
        from repro.workloads.base import Workload

        self._wrap(runner.Runner, "run", "bench.runner.run")
        self._patch(runner.Runner, "__init__", self._runner_init(runner.Runner.__init__))
        self._patch(runner, "_execute", self._cell(runner._execute))
        self._wrap(runner.ResultCache, "store", "bench.cache.store")
        self._patch(runner.ResultCache, "load", self._cache_load(runner.ResultCache.load))
        for module in (tables, figures, ablations):
            for attr in sorted(vars(module)):
                if attr.startswith("render_") and inspect.isfunction(getattr(module, attr)):
                    self._wrap(module, attr, "bench.render")
        for attr in sorted(vars(artifacts)):
            if attr.endswith("_payload"):
                self._wrap(artifacts, attr, "bench.render")

        for cls in _subclasses(Workload):
            if "run_op" in vars(cls):
                self._wrap(cls, "run_op", "workloads.run_op")
        self._wrap(JavaVM, "run", "runtime.vm_run")
        for cls in [Collector] + _subclasses(Collector):
            for attr in ("collect_young", "collect_full"):
                if attr in vars(cls):
                    self._wrap(cls, attr, "gc." + attr)
        # the fast backends bind on_gc_survivors to the batched twin at
        # profiler construction; the reference backend inherits the
        # generic per-object loop from NullProfiler
        self._wrap(RolpProfiler, "_on_gc_survivors_fast", "core.on_gc_survivors")
        self._wrap(RolpProfiler, "on_gc_survivors_soa", "core.on_gc_survivors")
        self._patch(
            RolpProfiler,
            "on_gc_survivors",
            self._span("core.on_gc_survivors", NullProfiler.on_gc_survivors),
        )
        self._wrap(RolpProfiler, "on_gc_end", "core.on_gc_end")

    def install_server(self) -> None:
        """Wrap the server boundaries: request handling and batching."""
        from repro.bench import runner
        from repro.server.app import ServerApp
        from repro.server.batcher import JobBatcher

        self._patch(ServerApp, "handle", self._handle(ServerApp.handle))
        self._patch(JobBatcher, "submit", self._submit(JobBatcher.submit))
        self._patch(runner.Runner, "run_async", self._run_async(runner.Runner.run_async))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # --------------------------------------------------- special wrappers

    def _runner_init(self, fn):
        @functools.wraps(fn)
        def wrapper(runner, *args, **kwargs):
            fn(runner, *args, **kwargs)
            self.runners.append(runner)

        return wrapper

    def _cell(self, fn):
        """``runner._execute``: one span per executed cell, setting the
        trace id that every span nested in the cell carries."""
        from repro.bench.runner import derive_trace_id

        span = self._span("bench.cell", fn)

        hot = [(name, self._total(name)) for name in sorted(HOT_SPANS)]

        @functools.wraps(fn)
        def wrapper(cell, seed, telemetry=None):
            previous = self.trace_id
            trace_id = self._local.trace_id = derive_trace_id(cell.key, seed)
            before = [(t.calls, t.busy_s, t.self_s) for _, t in hot]
            try:
                return span(cell, seed, telemetry=telemetry)
            finally:
                self._local.trace_id = previous
                self.cell_hot[trace_id] = {
                    name: (t.calls - b[0], t.busy_s - b[1], t.self_s - b[2])
                    for (name, t), b in zip(hot, before)
                }

        return wrapper

    def _cache_load(self, fn):
        span = self._span("bench.cache.load", fn)

        @functools.wraps(fn)
        def wrapper(cache, cell, seed):
            hit, result = span(cache, cell, seed)
            if hit:
                with self._lock:
                    self.cache_load_hits += 1
            return hit, result

        return wrapper

    def _handle(self, fn):
        """``ServerApp.handle`` is a coroutine: concurrent requests
        interleave on the loop thread, so its spans stay off the span
        stack (no synchronous span nests inside them)."""

        @functools.wraps(fn)
        async def wrapper(app, request):
            start = time.monotonic()
            response = await fn(app, request)
            end = time.monotonic()
            route, sid = _route(request.path)
            body = response.body if isinstance(response.body, dict) else {}
            session = body.get("session")
            if isinstance(session, dict) and "trace_id" in session:
                sid = session["id"]
                self.session_trace_ids[sid] = session["trace_id"]
            self._record(
                "server.handle",
                start,
                end,
                end - start,
                self.session_trace_ids.get(sid, ""),
                label="%s %s" % (request.method.upper(), route),
            )
            return response

        return wrapper

    def _submit(self, fn):
        @functools.wraps(fn)
        def wrapper(batcher, cell):
            future = fn(batcher, cell)
            self._submitted.setdefault(cell.key, []).append(time.monotonic())
            return future

        return wrapper

    def _run_async(self, fn):
        """Queue wait: from a job's admission to the start of the runner
        batch that carries it (the queue is FIFO per cell key)."""

        @functools.wraps(fn)
        async def wrapper(runner, cells, executor=None):
            started = time.monotonic()
            for cell in cells:
                pending = self._submitted.get(cell.key)
                if pending:
                    self.queue_waits.append(started - pending.pop(0))
            self.batch_sizes.append(len(cells))
            return await fn(runner, cells, executor)

        return wrapper

    # ------------------------------------------------------------ sampler

    def start_sampler(self) -> None:
        signal.signal(signal.SIGPROF, self._on_sample)
        signal.setitimer(signal.ITIMER_PROF, _SAMPLE_INTERVAL_S, _SAMPLE_INTERVAL_S)

    def stop_sampler(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def _on_sample(self, signum, frame) -> None:
        main = threading.main_thread().ident
        busy = []
        for ident, top in sys._current_frames().items():
            if ident == main:
                top = frame  # not this handler's own frame
            if top is not None and (_module(top), top.f_code.co_name) not in _IDLE_FRAMES:
                busy.append(top)
        if not busy:
            self.idle_samples += 1
            return
        weight = 1.0 / len(busy)
        for top in busy:
            layer = charge(top)
            if layer == "other":
                layer = _thread_owner(top)
            self.samples[layer] = self.samples.get(layer, 0.0) + weight

    # ------------------------------------------------------------ results

    def layer_metrics(self) -> Dict[str, float]:
        """Span totals and sampled shares of the current phase."""
        out: Dict[str, float] = {}
        for name in (
            "bench.runner.run",
            "bench.cache.store",
            "workloads.run_op",
            "runtime.vm_run",
            "gc.collect_young",
            "gc.collect_full",
            "core.on_gc_survivors",
            "core.on_gc_end",
            "server.handle",
        ):
            total = self.totals.get(name, _Total())
            out[name + ".calls"] = total.calls
            out[name + ".busy_s"] = total.busy_s
            if name in SELF_TIMED:
                out[name + ".self_s"] = total.self_s
        out["bench.render.busy_s"] = self.totals.get("bench.render", _Total()).busy_s
        sampled = sum(self.samples.values())
        for layer in LAYERS:
            out[layer + ".sampled_share"] = self.samples.get(layer, 0.0) / sampled if sampled else 0.0
        named = sum(self.samples.get(layer, 0.0) for layer in LAYERS)
        out["trace.coverage"] = named / sampled if sampled else 0.0
        out["trace.samples"] = sampled
        for other in ("harness", "other"):
            out["trace.%s_share" % other] = self.samples.get(other, 0.0) / sampled if sampled else 0.0
        return out

    def cache_load_metrics(self) -> Dict[str, float]:
        total = self.totals.get("bench.cache.load", _Total())
        return {
            "bench.cache.load.calls": total.calls,
            "bench.cache.load.busy_s": total.busy_s,
            "bench.cache.load.hit_ratio": self.cache_load_hits / total.calls if total.calls else 0.0,
        }

    def handle_spans(self) -> List[Tuple[float, float, str]]:
        return [(e[2], e[3], e[6]) for e in self.events if e[0] == "server.handle"]

    def write_chrome(self, path: str) -> None:
        """Every kept span as a Chrome ``trace_event`` document, shaped
        like :meth:`repro.telemetry.TraceSink.to_chrome` (µs timestamps,
        ids in ``args``); the hot spans appear as per-cell totals in the
        ``args`` of their cell's ``bench.cell`` slice."""
        tids: Dict[int, int] = {}
        events = []
        for name, ident, start, end, self_s, trace_id, label in self.events:
            tid = tids.setdefault(ident, len(tids) + 1)
            args: Dict[str, object] = {"self_us": round(self_s * 1e6, 3)}
            if trace_id:
                args["trace_id"] = trace_id
            if label:
                args["route"] = label
            if name == "bench.cell":
                for hot, (calls, busy, own) in self.cell_hot.get(trace_id, {}).items():
                    args[hot] = {
                        "calls": calls,
                        "busy_us": round(busy * 1e6, 3),
                        "self_us": round(own * 1e6, 3),
                    }
            events.append(
                {
                    "name": name,
                    "ph": "X",
                    "ts": round((start - self.origin) * 1e6, 3),
                    "dur": round((end - start) * 1e6, 3),
                    "pid": 1,
                    "tid": tid,
                    "cat": name.split(".")[0],
                    "args": args,
                }
            )
        metadata = [
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 0, "args": {"name": "perfbench"}}
        ]
        with open(path, "w") as handle:
            json.dump({"traceEvents": metadata + events, "displayTimeUnit": "ms"}, handle)


def _subclasses(cls) -> list:
    found: list = []
    pending = list(cls.__subclasses__())
    while pending:
        sub = pending.pop(0)
        if sub not in found:
            found.append(sub)
            pending.extend(sub.__subclasses__())
    return found


def _route(path: str) -> Tuple[str, str]:
    """``/v1/sessions/s-000003/step`` -> (``/v1/sessions/{id}/step``, id)."""
    parts = [part for part in path.split("/") if part]
    sid = ""
    if len(parts) >= 3 and parts[:2] == ["v1", "sessions"]:
        sid = parts[2]
        parts[2] = "{id}"
    return "/" + "/".join(parts), sid


def _module(frame) -> str:
    return frame.f_globals.get("__name__", "")


def charge(frame) -> str:
    """The layer a sample whose innermost frame is ``frame`` is charged
    to: the innermost ``repro.<package>`` frame; ``harness`` when a frame
    of this benchmark comes first; ``other`` when there is neither."""
    while frame is not None:
        module = _module(frame)
        if module.startswith("repro."):
            return module.split(".")[1]
        if module in _HARNESS_MODULES:
            return "harness"
        frame = frame.f_back
    return "other"


def _thread_owner(frame) -> str:
    """The layer of a stack with no ``repro`` frame on it: ``server`` on
    an executor worker thread (the only executor in a traced process is
    the server batcher's, whose worker hands results back between jobs),
    else ``other``."""
    while frame is not None:
        if (_module(frame), frame.f_code.co_name) == ("concurrent.futures.thread", "_worker"):
            return "server"
        frame = frame.f_back
    return "other"