"""Process and statistics helpers shared by the benchmark's modules."""

from __future__ import annotations

import hashlib
import json
import os
import signal
import statistics
import subprocess
import time
from typing import Dict, List, Sequence, Tuple

#: the benchmark's own directory (child scripts live here)
HERE = os.path.dirname(os.path.abspath(__file__))


def child_env(root: str, scale: str) -> Dict[str, str]:
    """The environment of every child: the checkout's ``src`` first on
    the import path and the benchmark's fixed ``ROLP_BENCH_SCALE``.  The
    execution backend stays ambient (``ROLP_BACKEND``)."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["ROLP_BENCH_SCALE"] = scale
    return env


def _default_sigint() -> None:
    # A shell starts background jobs with SIGINT ignored, and an ignored
    # signal stays ignored across exec; the server stops cleanly only on
    # SIGINT, so every child starts with the default disposition.
    signal.signal(signal.SIGINT, signal.SIG_DFL)


def spawn(argv: Sequence[str], root: str, env: Dict[str, str], log_path: str) -> subprocess.Popen:
    """Start a child with stdout and stderr going to ``log_path``."""
    with open(log_path, "wb") as log:
        return subprocess.Popen(
            list(argv), cwd=root, env=env, stdin=subprocess.DEVNULL, stdout=log, stderr=log,
            preexec_fn=_default_sigint,
        )


def reap(proc: subprocess.Popen, timeout_s: float, interrupt: bool = False) -> Tuple[int, float]:
    """Wait for ``proc`` (after a SIGINT when ``interrupt``), killing it
    at the deadline.  Returns ``(exit code, peak RSS in MiB)``; the RSS
    comes from ``wait4``, so it is this child's own high-water mark."""
    if proc.returncode is not None:  # already reaped by poll()
        return proc.returncode, 0.0
    if interrupt:
        proc.send_signal(signal.SIGINT)
    deadline = time.monotonic() + timeout_s
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.005)
    if os.WIFEXITED(status):
        proc.returncode = os.WEXITSTATUS(status)
    else:
        proc.returncode = -os.WTERMSIG(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


# ------------------------------------------------------------ host speed
#
# A shared host's speed flips between states up to 1.7x apart within a
# second, and its mix of states differs from minute to minute, so raw
# wall times of two runs of the same code disagree by more than any
# useful bound.  Timed phases therefore measure a fixed pure-Python
# reference kernel every PACE_INTERVAL_S and report reference seconds:
# each stretch of wall time between two measurements is scaled by
# REFERENCE_S over the kernel time measured at its start, and the kernel's
# own time is left out.  The kernel keeps only ints in one small dict, so
# the program's heap does not change its cost.

#: median seconds of one reference measurement (the median of
#: REFERENCE_REPEATS kernel runs) on a 2-core Intel Xeon VM under Python
#: 3.11.7: the unit of every normalised time
REFERENCE_S = 0.002
REFERENCE_OPS = 8000
REFERENCE_REPEATS = 3
PACE_INTERVAL_S = 0.1


class _Slot:
    __slots__ = ("value",)


def _mix(a: int, b: int) -> int:
    return (a * 31 + b) & 0xFFFF


def _reference_kernel(ops: int = REFERENCE_OPS) -> int:
    """Calls, attribute stores, dict lookups and integer arithmetic: the
    interpreter work the simulator does, on ints only."""
    slot = _Slot()
    slot.value = 0
    table: Dict[int, int] = {}
    for i in range(ops):
        key = i & 127
        table[key] = _mix(table.get(key, i), key)
        slot.value ^= table[key]
    return slot.value


def reference_s() -> float:
    """Median wall seconds of the reference kernel, measured now."""
    times = []
    for _ in range(REFERENCE_REPEATS):
        started = time.perf_counter()
        _reference_kernel()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


class Pacer:
    """Wall time of a phase in raw and in reference seconds.

    ``sample()`` measures the kernel now; with ``timer`` a ``SIGALRM``
    calls it every PACE_INTERVAL_S between the program's bytecodes, so
    stretches are short even inside long calls.  ``mark()`` ends a
    segment and returns its ``(raw, reference)`` seconds; kernel time
    falls in no segment.  Without ``scale`` nothing is measured and both
    numbers are the raw time (the traced pass, whose sampler must see only
    the program)."""

    def __init__(self, timer: bool = True, scale: bool = True) -> None:
        self._scale = scale
        self._reference = reference_s() if scale else REFERENCE_S
        self._raw = self._scaled = 0.0
        self._since = time.perf_counter()
        self._timer = timer and scale
        if self._timer:
            signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
            signal.setitimer(signal.ITIMER_REAL, PACE_INTERVAL_S, PACE_INTERVAL_S)

    def _close(self) -> None:
        now = time.perf_counter()
        self._raw += now - self._since
        self._scaled += (now - self._since) * self.factor
        self._since = now

    @property
    def factor(self) -> float:
        """Reference seconds per raw second, as last measured."""
        return REFERENCE_S / self._reference

    def sample(self) -> None:
        if not self._scale:
            return
        self._close()
        self._reference = reference_s()
        self._since = time.perf_counter()

    def mark(self) -> Tuple[float, float]:
        """``(raw seconds, reference seconds)`` since the last mark."""
        if self._timer:
            signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGALRM])
        self._close()
        segment = (self._raw, self._scaled)
        self._raw = self._scaled = 0.0
        if self._timer:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, [signal.SIGALRM])
        return segment

    def stop(self) -> None:
        if self._timer:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self._timer = False


def rescale(raw: float, before: float, after: float) -> float:
    """``raw`` seconds in reference seconds, from reference measurements
    taken just before and just after them (for a child's start-up)."""
    return raw * REFERENCE_S * (1.0 / before + 1.0 / after) / 2


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of ``values`` (0 <= pct <= 100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(samples: int) -> float:
    """The highest percentile (in 0.05 steps) with at least ten samples
    beyond it, for a pass with ``samples`` latencies."""
    return max(50.0, int(2000 * (1 - 10.0 / samples)) / 20.0)


def digest(payload) -> str:
    """SHA-256 over the canonical JSON (sorted keys, compact) of a payload."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def mismatches(got: Dict[str, str], want: Dict[str, str]) -> List[str]:
    """Names whose digests differ from (or are missing in) ``got``, in
    ``want``'s order — the first one is the first diverging output."""
    return [name for name in want if got.get(name) != want[name]]
