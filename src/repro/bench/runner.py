"""Parallel experiment runner with on-disk result caching.

The paper's evaluation is a grid of (workload x collector x config)
simulations; Figures 6-10 and Tables 1-2 all re-run overlapping subsets
of it.  This module turns every experiment into independent *cells*:

* a :class:`Cell` is one simulation (or one tightly-coupled group of
  simulations, e.g. a Table 2 profile run) named by a *kind* plus a
  sorted tuple of scalar parameters.  ``cell.key`` is a stable,
  human-readable identity string;
* every cell runs with a deterministic seed derived from
  ``(cell key, base seed)`` via SHA-256 (:func:`derive_seed`), so a cell
  produces bit-identical results no matter which worker runs it, in
  which order, on which machine;
* a :class:`Runner` fans cells out across a ``multiprocessing`` pool
  (``jobs > 1``) or executes them inline (``jobs = 1``, the default —
  this path also carries per-run telemetry), merging results back in
  *submission* order so parallel output is byte-identical to serial;
* a :class:`ResultCache` persists each cell's result on disk, keyed by
  a hash of the cell config + ``ROLP_BENCH_SCALE`` + seed +
  :data:`CACHE_VERSION`, so interrupted grids resume where they stopped
  and repeat runs perform zero simulations.

Cell kinds are registered by the experiment modules
(:mod:`repro.bench.figures`, :mod:`repro.bench.tables`,
:mod:`repro.bench.ablations`) with the :func:`cell_kind` decorator; a
kind's implementation must be a module-level function taking
``(seed, telemetry, **params)`` and returning a picklable result.
"""

from __future__ import annotations

import hashlib
import io
import multiprocessing
import os
import pickle
import sys
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis import default_verify_level, set_default_verify_level
from repro.bench.config import bench_scale
from repro.fastpath import backend, set_backend

#: bump when a cell implementation changes meaning — invalidates every
#: cached result produced by older code
CACHE_VERSION = "rolp-bench-cache/v6"

#: default base seed; per-cell seeds are derived from it, never used raw
DEFAULT_BASE_SEED = 42

_SCALAR_TYPES = (str, int, float, bool, type(None))


# --------------------------------------------------------------------------- cells

@dataclass(frozen=True, eq=False)
class Cell:
    """One independent unit of the experiment grid.

    Two cells are equal when their :attr:`key` is: the seed, the trace
    id and the cache entry all derive from the key, and comparing the
    parameter values instead would equate ``step=1`` with ``step=True``
    (``1 == True``), two keys with different seeds.
    """

    kind: str
    params: Tuple[Tuple[str, object], ...]

    @cached_property
    def key(self) -> str:
        """Stable human-readable identity, e.g.
        ``pause(collector='g1', discard_fraction=0.5, ...)``."""
        return "%s(%s)" % (
            self.kind,
            ", ".join("%s=%r" % item for item in self.params),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cell):
            return NotImplemented
        return self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __getstate__(self) -> Dict[str, object]:
        # the fields only: reading the key must not change the pickle
        return {"kind": self.kind, "params": self.params}

    @property
    def label(self) -> str:
        """Short progress label (track name if the kind defines one)."""
        _ensure_kinds()
        fmt = _TRACK_NAMES.get(self.kind)
        return fmt(dict(self.params)) if fmt else self.key

    @property
    def seed_key(self) -> str:
        """The string the cell's seed derives from.

        By default the full :attr:`key`; kinds registered with a
        ``seed_scope`` drop their *treatment* parameters (collector,
        JIT mode, ablation knob) so that the cells of one controlled
        comparison replay the identical workload and differ only in the
        treatment — the paper's methodology, and what the ablation
        studies' "decisions unchanged" claims rest on.

        Registration must be forced first: a seed scope only exists
        once the module registering the kind is imported, and deriving
        a seed *before* that import would silently fall back to the
        full key — an import-order dependence the fleet server (which
        does not import the CLI's experiment modules up front) turned
        from latent into real.
        """
        _ensure_kinds()
        scope = _SEED_SCOPES.get(self.kind)
        return scope(dict(self.params)) if scope else self.key


def make_cell(kind: str, **params) -> Cell:
    """Build a cell, validating that every parameter is a scalar (the
    cache key and the seed derivation both depend on stable reprs)."""
    for name, value in params.items():
        if not isinstance(value, _SCALAR_TYPES):
            raise TypeError(
                "cell parameter %s=%r is not a scalar (%s)"
                % (name, value, type(value).__name__)
            )
    return Cell(kind, tuple(sorted(params.items())))


def derive_seed(key: str, base_seed: int = DEFAULT_BASE_SEED) -> int:
    """Deterministic per-cell seed from ``(cell key, base seed)``.

    SHA-256 keeps the derivation stable across Python versions and
    processes (``hash()`` is salted per process, so it must not be used
    here).
    """
    digest = hashlib.sha256(("%d\x00%s" % (base_seed, key)).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def derive_trace_id(key: str, seed: int) -> str:
    """Fleet trace id for one cell execution: 16 hex chars over the
    *full* cell key plus its derived seed.

    Unlike :attr:`Cell.seed_key` (which deliberately collides across a
    controlled comparison's treatments), the trace id must distinguish
    every cell, so it hashes the complete key.  Any artifact carrying it
    — trace events, metrics labels, ``pause_report.json``, cached
    results — joins back to exactly one simulated run.
    """
    digest = hashlib.sha256(("trace\x00%d\x00%s" % (seed, key)).encode()).hexdigest()
    return digest[:16]


# ------------------------------------------------------------------- kind registry

_CELL_KINDS: Dict[str, Callable[..., object]] = {}
_TRACK_NAMES: Dict[str, Callable[[Dict[str, object]], str]] = {}
_SEED_SCOPES: Dict[str, Callable[[Dict[str, object]], str]] = {}


def shared_seed_scope(kind: str, *treatment: str) -> Callable[[Dict[str, object]], str]:
    """A ``seed_scope`` callable: the cell key with the *treatment*
    parameters removed, so cells that differ only in them derive the
    same seed (e.g. one pause-study workload replayed under each
    collector)."""

    def scope(params: Dict[str, object]) -> str:
        items = sorted(
            (name, value) for name, value in params.items() if name not in treatment
        )
        return "%s(%s)" % (kind, ", ".join("%s=%r" % item for item in items))

    return scope


def cell_kind(
    name: str,
    track: Optional[Callable[[Dict[str, object]], str]] = None,
    seed_scope: Optional[Callable[[Dict[str, object]], str]] = None,
):
    """Register a cell implementation under ``name``.

    ``track`` maps the cell's params to the telemetry track name used
    when the cell runs inline with a session attached (kept identical to
    the pre-runner track names, e.g. ``cassandra-wi/g1``).

    ``seed_scope`` (usually :func:`shared_seed_scope`) maps the params
    to the string the seed derives from, when that must *not* be the
    full cell key — see :attr:`Cell.seed_key`.
    """

    def register(fn: Callable[..., object]) -> Callable[..., object]:
        _CELL_KINDS[name] = fn
        if track is not None:
            _TRACK_NAMES[name] = track
        if seed_scope is not None:
            _SEED_SCOPES[name] = seed_scope
        return fn

    return register


def _ensure_kinds() -> None:
    """Import every module that registers cell kinds (needed when a
    worker starts from a fresh interpreter, i.e. spawn start method)."""
    from repro.bench import ablations, cli, figures, fuzz, tables  # noqa: F401
    from repro.server import jobs  # noqa: F401  (registers session_step)


def registered_cell_kinds() -> List[str]:
    """Every registered cell kind name, sorted — the fleet server's
    admissible job vocabulary."""
    _ensure_kinds()
    return sorted(_CELL_KINDS)


def cell_implementation(kind: str) -> Callable[..., object]:
    """The implementation function behind a registered kind (the server
    binds job params against its signature at admission time)."""
    _ensure_kinds()
    return _CELL_KINDS[kind]


def _execute(cell: Cell, seed: int, telemetry=None):
    _ensure_kinds()
    try:
        fn = _CELL_KINDS[cell.kind]
    except KeyError:
        raise KeyError(
            "unknown cell kind %r (registered: %s)"
            % (cell.kind, ", ".join(sorted(_CELL_KINDS)))
        )
    return fn(seed=seed, telemetry=telemetry, **dict(cell.params))


def _pool_execute(payload: Tuple[Cell, int, int, str]):
    """Worker-side entry point (module-level so it pickles).

    Carries the ambient verify level and execution backend explicitly:
    fork workers inherit them, but spawn workers start from a fresh
    interpreter where the defaults would silently revert.
    """
    cell, seed, verify_level, backend_name = payload
    set_default_verify_level(verify_level)
    set_backend(backend_name)
    return _execute(cell, seed, telemetry=None)


# -------------------------------------------------------------------------- cache

_DIGEST_SIZE = hashlib.sha256().digest_size


class _ReproUnpickler(pickle.Unpickler):
    """Resolves only classes defined in ``repro`` modules: results are
    otherwise builtins, for which pickle names no global."""

    def find_class(self, module: str, name: str):
        if module.partition(".")[0] == "repro":
            obj = super().find_class(module, name)
            if isinstance(obj, type) and obj.__module__.partition(".")[0] == "repro":
                return obj
        raise pickle.UnpicklingError(
            "cache entries may only name repro classes, not %s.%s" % (module, name)
        )


class ResultCache:
    """Pickle-per-cell disk cache.

    Layout: ``<dir>/<kind>/<sha256 of key material>.pkl``.  The key
    material covers the cache version, the cell kind + params, the
    derived seed and ``ROLP_BENCH_SCALE`` — anything else (code
    changes) is handled by bumping :data:`CACHE_VERSION`.  Writes are
    atomic (tmp file + rename) so an interrupted run never leaves a
    truncated entry behind, and a write that fails removes its tmp file.
    A file holds the pickled entry and then its SHA-256, checked before
    unpickling with :class:`_ReproUnpickler`: a damaged or foreign entry
    is a miss, never a wrong result or code that runs.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory

    def key_material(self, cell: Cell, seed: int) -> str:
        # The verify level is ambient rather than a cell param (so cell
        # keys and derived seeds stay comparable with the unverified
        # goldens), but verified and unverified runs must never share
        # cache entries — a verified run that hit an unverified entry
        # would claim checks it never performed.
        # The execution backend is in the key for the same reason: the
        # optimised and reference backends are proven equivalent, but the
        # differential suite must be able to populate every side without
        # one backend's entries masking another's actual execution.
        return "\n".join(
            (
                CACHE_VERSION,
                cell.key,
                "seed=%d" % seed,
                "scale=%r" % bench_scale(),
                "verify=%d" % default_verify_level(),
                "backend=%s" % backend(),
            )
        )

    def path(self, cell: Cell, seed: int) -> str:
        digest = hashlib.sha256(self.key_material(cell, seed).encode()).hexdigest()
        return os.path.join(self.directory, cell.kind, digest + ".pkl")

    #: what reading a missing, truncated, corrupt or foreign entry can
    #: raise: unpickling resolves classes by name (``ImportError`` for an
    #: absent module, ``AttributeError`` for an absent class) and runs
    #: their constructors, which may raise anything on bad arguments
    _UNREADABLE = (
        OSError,
        EOFError,
        pickle.UnpicklingError,
        ImportError,
        AttributeError,
        ValueError,
        IndexError,
        TypeError,
        OverflowError,
    )

    def load(self, cell: Cell, seed: int) -> Tuple[bool, object]:
        """``(hit, result)`` — unreadable, corrupt and foreign entries
        count as misses."""
        path = self.path(cell, seed)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
            body, digest = data[:-_DIGEST_SIZE], data[-_DIGEST_SIZE:]
            if hashlib.sha256(body).digest() != digest:
                return False, None
            entry = _ReproUnpickler(io.BytesIO(body)).load()
        except self._UNREADABLE:
            return False, None
        if not isinstance(entry, dict) or "result" not in entry:
            return False, None
        if entry.get("key_material") != self.key_material(cell, seed):
            return False, None
        return True, entry["result"]

    def store(self, cell: Cell, seed: int, result: object) -> None:
        body = pickle.dumps(
            {
                "key_material": self.key_material(cell, seed),
                "cell_key": cell.key,
                # fleet identity: the id every artifact of this cell
                # carries (load() ignores it: it is provenance, not key
                # material)
                "trace_id": derive_trace_id(cell.key, seed),
                "result": result,
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        path = self.path(cell, seed)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = path + ".tmp.%d" % os.getpid()
        try:
            with open(tmp, "wb") as handle:
                handle.write(body)
                handle.write(hashlib.sha256(body).digest())
            os.replace(tmp, path)
        except BaseException:
            # a full disk or an interrupt must not leave the partial
            # temp file behind
            try:
                os.remove(tmp)
            except OSError:
                pass
            raise


# ------------------------------------------------------------------------- runner

@dataclass
class RunnerStats:
    """Hit/miss/execution counters for one :class:`Runner` lifetime."""

    cells: int = 0
    memo_hits: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    #: simulations actually executed (== cache_misses; kept separate so
    #: the acceptance criterion "a warm-cache re-run performs zero
    #: simulations" reads off one field)
    simulations: int = 0
    elapsed_s: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "cells": self.cells,
            "memo_hits": self.memo_hits,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "simulations": self.simulations,
            "elapsed_s": round(self.elapsed_s, 3),
        }


class Runner:
    """Executes cells inline or across a worker pool, with caching.

    One runner spans one bench invocation: it carries an in-memory memo
    (so ``fig8`` and ``fig9``, or ``fig6`` and ``table2``, share their
    overlapping cells within a single ``rolp-bench all``), the disk
    cache, the worker-pool size and the telemetry session used for
    progress counters and — inline only — per-run trace tracks.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        base_seed: int = DEFAULT_BASE_SEED,
        session=None,
        progress: bool = False,
    ) -> None:
        self.jobs = max(1, int(jobs))
        self.cache = cache
        self.base_seed = base_seed
        self.session = session
        self.progress = progress
        self.stats = RunnerStats()
        self._memo: Dict[Cell, object] = {}
        #: cell key -> derived seed (``base_seed`` is fixed once a cell ran)
        self._seeds: Dict[str, int] = {}
        #: cell key -> trace id, for every cell this runner has seen —
        #: exported into artifact JSONs so results join to recordings
        self.trace_ids: Dict[str, str] = {}

    # -- telemetry ---------------------------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        # a counter first appears when it is first incremented: adding
        # zero would cost a registry lookup on every memo-answered call
        if amount and self.session is not None:
            self.session.metrics.counter(
                "bench_runner_" + name, "experiment-runner %s" % name
            ).inc(amount)

    def _note(self, index: int, total: int, cell: Cell, outcome: str, secs: float) -> None:
        if self.progress:
            print(
                "[runner] (%d/%d) %-40s %s (%.2fs)"
                % (index, total, cell.label, outcome, secs),
                file=sys.stderr,
            )

    # -- execution ---------------------------------------------------------------

    def seed_for(self, cell: Cell) -> int:
        key = cell.key
        seed = self._seeds.get(key)
        if seed is None:
            seed = self._seeds[key] = derive_seed(cell.seed_key, self.base_seed)
        return seed

    def trace_id_for(self, cell: Cell) -> str:
        """The cell's trace id, derived the first time this runner sees
        the cell and kept in :attr:`trace_ids`."""
        key = cell.key
        trace_id = self.trace_ids.get(key)
        if trace_id is None:
            trace_id = self.trace_ids[key] = derive_trace_id(key, self.seed_for(cell))
        return trace_id

    def holds(self, cell: Cell) -> bool:
        """Whether the memo holds ``cell``'s result, so that running it
        simulates nothing and reads no file."""
        return cell in self._memo

    def run(self, cells: Sequence[Cell]) -> List[object]:
        """Execute ``cells``, returning results in the given order.

        Duplicate cells (within this call or across earlier calls on
        the same runner) execute once.  Results merge deterministically:
        position ``i`` of the return value is cell ``i``'s result
        regardless of pool scheduling.
        """
        started = time.time()
        pending: List[Cell] = []  # unique cells needing execution, in order
        for cell in cells:
            self.trace_id_for(cell)  # fills trace_ids for the artifacts
            if cell in self._memo or cell in pending:
                continue
            pending.append(cell)
        self.stats.cells += len(pending)
        self.stats.memo_hits += sum(1 for cell in cells if cell in self._memo)

        to_run: List[Cell] = []
        total = len(pending)
        for index, cell in enumerate(pending, 1):
            seed = self.seed_for(cell)
            if self.cache is not None:
                hit, result = self.cache.load(cell, seed)
                if hit:
                    self._memo[cell] = result
                    self.stats.cache_hits += 1
                    self._count("cache_hits")
                    self._note(index, total, cell, "cache hit", 0.0)
                    continue
            to_run.append(cell)

        self.stats.cache_misses += len(to_run)
        self.stats.simulations += len(to_run)
        self._count("cells", len(pending))
        self._count("cache_misses", len(to_run))
        self._count("simulations", len(to_run))

        if self.jobs > 1 and len(to_run) > 1:
            self._run_pool(to_run)
        else:
            self._run_inline(to_run, total)

        self.stats.elapsed_s += time.time() - started
        return [self._memo[cell] for cell in cells]

    async def run_async(self, cells: Sequence[Cell], executor=None) -> List[object]:
        """Event-loop-friendly :meth:`run`.

        A batch whose every cell is already memoized is answered inline,
        on the calling loop thread: it runs no simulation and reads no
        file, so handing it to a thread would cost more than the dict
        lookups it does.  Any other batch runs on ``executor`` (or the
        loop's default), so simulations and disk-cache reads never block
        the loop that is multiplexing sessions.  (The fleet server's
        batcher answers a memo-held job at admission, through
        :meth:`run`, when it is idle; the memo-held jobs that still
        reach this method are those queued while it was busy or paused.)

        The runner itself is not thread-safe; callers that share one
        runner across tasks (the fleet server's batcher) must serialize
        calls, awaiting each before making the next, so that the inline
        path never overlaps a batch still running on the executor.
        """
        cells = list(cells)
        if all(self.holds(cell) for cell in cells):
            return self.run(cells)
        import asyncio

        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(executor, self.run, cells)

    def _run_inline(self, cells: Sequence[Cell], total: int) -> None:
        for index, cell in enumerate(cells, 1):
            trace_id = self.trace_id_for(cell)
            telemetry = (
                self.session.for_run(cell.label, trace_id=trace_id)
                if self.session is not None
                else None
            )
            if self.session is not None:
                self.session.metrics.counter(
                    "bench_cell_runs_total", "cell executions, joinable by trace id"
                ).inc(1, kind=cell.kind, trace_id=trace_id)
            cell_started = time.time()
            result = _execute(cell, self.seed_for(cell), telemetry=telemetry)
            self._note(index, total, cell, "ran", time.time() - cell_started)
            self._finish(cell, result)

    def _run_pool(self, cells: Sequence[Cell]) -> None:
        # fork (where available) inherits the kind registry and the
        # environment; spawn re-imports the experiment modules via
        # _ensure_kinds().  Workers run without per-run telemetry —
        # trace tracks only exist on the inline path (documented in
        # docs/benchmarking.md).
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        payloads = [
            (cell, self.seed_for(cell), default_verify_level(), backend())
            for cell in cells
        ]
        total = len(cells)
        with context.Pool(processes=min(self.jobs, len(cells))) as pool:
            started = time.time()
            for index, (cell, result) in enumerate(
                zip(cells, pool.imap(_pool_execute, payloads)), 1
            ):
                self._note(index, total, cell, "ran", time.time() - started)
                self._finish(cell, result)

    def _finish(self, cell: Cell, result: object) -> None:
        self._memo[cell] = result
        if self.cache is not None:
            self.cache.store(cell, self.seed_for(cell), result)


def run_cells(cells: Sequence[Cell], runner: Optional[Runner] = None) -> List[object]:
    """Experiment-module helper: run ``cells`` on ``runner``, or on a
    throwaway inline runner.  A caller that wants trace tracks passes a
    runner carrying a session."""
    if runner is None:
        runner = Runner()
    return runner.run(cells)
