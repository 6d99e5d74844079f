"""Unit tests for the experiment runner (repro.bench.runner): cell
identity, seed derivation, memoisation, the disk cache and the worker
pool — all exercised through a cheap test-only cell kind."""

import asyncio
import hashlib
import json
import multiprocessing
import os
import pickle
import struct
import subprocess
import sys
import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro
from repro.bench import artifacts
from repro.bench import runner as runner_mod
from repro.bench.runner import (
    DEFAULT_BASE_SEED,
    Cell,
    ResultCache,
    Runner,
    cell_kind,
    derive_seed,
    make_cell,
    run_cells,
    shared_seed_scope,
)
from repro.telemetry import TelemetrySession

# every inline execution appends here, so tests can count simulations
_EXECUTED = []


@cell_kind("echo_test", track=lambda p: "echo/%s" % p["tag"])
def _echo_cell(seed, telemetry, tag, value=0):
    _EXECUTED.append(tag)
    return {"tag": tag, "value": value, "seed": seed}


@cell_kind("scoped_test", seed_scope=shared_seed_scope("scoped_test", "treatment"))
def _scoped_cell(seed, telemetry, subject, treatment):
    return seed


@pytest.fixture(autouse=True)
def _reset_executions():
    del _EXECUTED[:]


def echo(tag, value=0):
    return make_cell("echo_test", tag=tag, value=value)


class _Interrupting:
    """Pickling it raises ``KeyboardInterrupt`` mid-write."""

    def __reduce__(self):
        raise KeyboardInterrupt


class _CreatesFile:
    """Unpickling it calls ``opener(path, ...)``, which creates ``path``."""

    def __init__(self, opener, path, arg):
        self.opener, self.path, self.arg = opener, path, arg

    def __reduce__(self):
        return (self.opener, (self.path, self.arg))


class _RecordingExecutor(ThreadPoolExecutor):
    """A one-thread executor that records every ``submit``."""

    def __init__(self):
        super().__init__(max_workers=1)
        self.submitted = []

    def submit(self, fn, /, *args, **kwargs):
        self.submitted.append(args)
        return super().submit(fn, *args, **kwargs)


def _counts(stats):
    return {name: value for name, value in stats.as_dict().items() if name != "elapsed_s"}


class TestCellIdentity:
    def test_key_is_stable_and_param_order_independent(self):
        a = make_cell("echo_test", tag="x", value=3)
        b = make_cell("echo_test", value=3, tag="x")
        assert a == b
        assert a.key == b.key == "echo_test(tag='x', value=3)"

    def test_label_uses_registered_track_name(self):
        assert echo("x").label == "echo/x"
        assert Cell("no_such_kind", (("a", 1),)).label == "no_such_kind(a=1)"

    def test_non_scalar_params_rejected(self):
        with pytest.raises(TypeError, match="not a scalar"):
            make_cell("echo_test", tag=["a", "list"])
        with pytest.raises(TypeError, match="not a scalar"):
            make_cell("echo_test", tag={"a": 1})

    def test_scalars_of_every_kind_accepted(self):
        cell = make_cell("echo_test", s="x", i=1, f=0.5, b=True, n=None)
        assert "n=None" in cell.key

    def test_unknown_kind_raises_with_registered_list(self):
        with pytest.raises(KeyError, match="unknown cell kind"):
            Runner().run([make_cell("no_such_kind")])

    def test_key_is_built_once_outside_eq_hash_and_pickle(self):
        """The key is kept on the cell after its first use, and a cell
        whose key was read still equals, hashes and pickles like one
        whose key never was."""
        cell, fresh = echo("once", value=2), echo("once", value=2)
        assert cell.key is cell.key
        assert cell == fresh and hash(cell) == hash(fresh)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.dumps(cell, protocol) == pickle.dumps(fresh, protocol)
        copy = pickle.loads(pickle.dumps(cell))
        assert copy == cell and copy.key == cell.key


class TestDeriveSeed:
    def test_deterministic_and_key_sensitive(self):
        seed = derive_seed("pause(collector='g1')")
        assert seed == derive_seed("pause(collector='g1')")
        assert seed != derive_seed("pause(collector='cms')")
        assert 0 <= seed < 1 << 64

    def test_base_seed_changes_every_cell_seed(self):
        key = echo("x").key
        assert derive_seed(key, 42) != derive_seed(key, 43)
        assert derive_seed(key) == derive_seed(key, DEFAULT_BASE_SEED)

    def test_runner_seeds_cells_by_derivation(self):
        runner = Runner(base_seed=7)
        (result,) = runner.run([echo("seeded")])
        assert result["seed"] == derive_seed(echo("seeded").key, 7)

    def test_runner_derives_each_cell_seed_once(self, monkeypatch):
        derived = []

        def counting(key, base_seed=DEFAULT_BASE_SEED):
            derived.append(key)
            return derive_seed(key, base_seed)

        monkeypatch.setattr(runner_mod, "derive_seed", counting)
        cell = echo("seeded-once")
        runner = Runner(base_seed=7)
        (first,) = runner.run([cell])
        runner.run([echo("seeded-once")])  # an equal cell, built anew
        assert runner.seed_for(cell) == first["seed"]
        assert runner.trace_id_for(cell) == runner.trace_ids[cell.key]
        assert derived == [cell.key]
        assert first["seed"] == derive_seed(cell.key, 7)

    def test_seed_scope_shares_seeds_across_treatments(self):
        """Cells of one controlled comparison (same subject, different
        treatment) replay the same seed; other subjects do not."""
        runner = Runner()
        a1, a2, b = runner.run(
            [
                make_cell("scoped_test", subject="a", treatment="g1"),
                make_cell("scoped_test", subject="a", treatment="rolp"),
                make_cell("scoped_test", subject="b", treatment="g1"),
            ]
        )
        assert a1 == a2 != b
        # the treatment-free scope, not the full key, feeds derivation
        assert a1 == derive_seed("scoped_test(subject='a')")

    def test_seed_scope_does_not_merge_cache_entries(self, tmp_path):
        """Shared seeds must not alias cache entries: the cache key
        still covers the full cell key."""
        cache = ResultCache(str(tmp_path))
        g1 = make_cell("scoped_test", subject="a", treatment="g1")
        rolp = make_cell("scoped_test", subject="a", treatment="rolp")
        runner = Runner(cache=cache)
        runner.run([g1, rolp])
        assert runner.stats.simulations == 2
        seed = runner.seed_for(g1)
        assert cache.path(g1, seed) != cache.path(rolp, seed)


class TestMemoisation:
    def test_duplicates_in_one_call_execute_once(self):
        results = Runner().run([echo("dup"), echo("dup"), echo("other")])
        assert _EXECUTED == ["dup", "other"]
        assert results[0] is results[1]

    def test_memo_spans_run_calls(self):
        runner = Runner()
        first = runner.run([echo("shared")])
        second = runner.run([echo("shared"), echo("new")])
        assert _EXECUTED == ["shared", "new"]
        assert second[0] is first[0]
        assert runner.stats.memo_hits == 1

    def test_results_return_in_submission_order(self):
        cells = [echo(tag) for tag in ("c", "a", "b")]
        results = Runner().run(cells)
        assert [r["tag"] for r in results] == ["c", "a", "b"]

    def test_keys_differing_as_1_and_true_are_different_cells(self):
        """``1 == True``, yet ``step=1`` and ``step=True`` are two keys
        with two seeds: the memo must not answer one with the other."""
        bound = dict(workload="lucene", collector="g1", operations=50)
        one = make_cell("session_step", step=1, **bound)
        true = make_cell("session_step", step=True, **bound)
        runner = Runner()
        runner.run([one])
        (second,) = runner.run([true])
        assert runner.stats.simulations == 2
        assert runner.stats.memo_hits == 0
        assert second == Runner().run([true])[0]


class TestRunAsync:
    def test_memoized_batch_never_reaches_the_executor(self):
        """A batch the memo holds entirely is answered on the loop
        thread, with the results and stats that run() gives it."""
        runner = Runner()
        runner.run([echo("a"), echo("b")])
        batch = [echo("b"), echo("a"), echo("b")]
        trace_ids = dict(runner.trace_ids)
        before = _counts(runner.stats)
        with _RecordingExecutor() as executor:
            got = asyncio.run(runner.run_async(batch, executor))
        after_async = _counts(runner.stats)
        want = runner.run(batch)
        after_run = _counts(runner.stats)
        assert executor.submitted == []
        assert _EXECUTED == ["a", "b"]
        assert [id(result) for result in got] == [id(result) for result in want]
        assert {name: after_async[name] - before[name] for name in before} == {
            name: after_run[name] - after_async[name] for name in before
        }
        assert after_async["memo_hits"] - before["memo_hits"] == 3
        assert runner.trace_ids == trace_ids

    @pytest.mark.parametrize("held_by", ["nothing", "disk-cache"])
    def test_batch_with_an_unmemoized_cell_is_submitted_once(self, tmp_path, held_by):
        """One cell the memo lacks sends the whole batch to the executor,
        whether it must be simulated or only read from the disk cache."""
        cache = ResultCache(str(tmp_path))
        if held_by == "disk-cache":
            Runner(cache=cache).run([echo("new")])
            del _EXECUTED[:]
        runner = Runner(cache=cache)
        runner.run([echo("old")])
        with _RecordingExecutor() as executor:
            results = asyncio.run(runner.run_async([echo("old"), echo("new")], executor))
        assert len(executor.submitted) == 1
        assert [result["tag"] for result in results] == ["old", "new"]
        assert _EXECUTED == (["old", "new"] if held_by == "nothing" else ["old"])
        assert runner.stats.cache_hits == (1 if held_by == "disk-cache" else 0)


class TestResultCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cell, seed = echo("rt"), 123
        assert cache.load(cell, seed) == (False, None)
        cache.store(cell, seed, {"answer": 42})
        assert cache.load(cell, seed) == (True, {"answer": 42})

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cell, seed = echo("corrupt"), 1
        cache.store(cell, seed, "ok")
        with open(cache.path(cell, seed), "wb") as handle:
            handle.write(b"\x00not a pickle")
        hit, _ = cache.load(cell, seed)
        assert not hit

    @pytest.mark.parametrize(
        "payload",
        [
            pytest.param(b"\x80\x09N.", id="unsupported-protocol-ValueError"),
            pytest.param(b"c_operator\ngetitem\n(]K\x00tR.", id="constructor-IndexError"),
            pytest.param(b"N)R.", id="constructor-TypeError"),
            pytest.param(
                b"\x80\x04\x95" + b"\xff" * 8 + b"N.", id="frame-length-OverflowError"
            ),
            pytest.param(b"cno_such_module_for_rolp\nThing\n.", id="absent-module"),
        ],
    )
    def test_unloadable_entry_is_a_miss(self, tmp_path, payload):
        """Unpickling failures beyond a plain corrupt stream are misses
        too, not exceptions out of the runner."""
        cache = ResultCache(str(tmp_path))
        cell, seed = echo("unloadable"), 1
        cache.store(cell, seed, "ok")
        with open(cache.path(cell, seed), "wb") as handle:
            handle.write(payload)
        assert cache.load(cell, seed) == (False, None)

    @pytest.mark.parametrize(
        "opener, arg",
        [
            pytest.param(open, "w", id="builtin-open"),
            pytest.param(artifacts.write_json, {}, id="repro-function"),
        ],
    )
    def test_entry_naming_a_non_repro_class_runs_nothing(self, tmp_path, opener, arg):
        """An entry with a valid digest whose pickle calls a function
        when loaded is a miss, and the function never runs."""
        cache = ResultCache(str(tmp_path / "cache"))
        cell, seed = echo("planted"), 1
        marker = tmp_path / "marker"
        cache.store(cell, seed, {"payload": _CreatesFile(opener, str(marker), arg)})
        assert not marker.exists()
        assert cache.load(cell, seed) == (False, None)
        assert not marker.exists()

    def test_foreign_class_named_through_a_repro_module_is_a_miss(self, tmp_path):
        """``repro.workloads.kvstore`` imports ``OrderedDict``; naming it
        through that module still names a class defined elsewhere."""
        cache = ResultCache(str(tmp_path))
        cell, seed = echo("foreign-class"), 1
        entry = {"key_material": cache.key_material(cell, seed), "result": OrderedDict(a=1)}
        body = pickle.dumps(entry, protocol=2).replace(
            b"ccollections\nOrderedDict\n", b"crepro.workloads.kvstore\nOrderedDict\n"
        )
        assert b"repro.workloads.kvstore" in body
        path = cache.path(cell, seed)
        os.makedirs(os.path.dirname(path))
        with open(path, "wb") as handle:
            handle.write(body + hashlib.sha256(body).digest())  # a valid digest
        assert cache.load(cell, seed) == (False, None)

    def test_flipped_byte_in_a_stored_float_is_a_miss(self, tmp_path):
        """A bit flip that still unpickles, here inside a float, is a
        miss rather than a hit with the wrong number."""
        cache = ResultCache(str(tmp_path))
        cell, seed = echo("flipped"), 1
        cache.store(cell, seed, {"ratio": 1.25})
        path = cache.path(cell, seed)
        with open(path, "rb") as handle:
            data = bytearray(handle.read())
        at = data.index(b"G" + struct.pack(">d", 1.25))  # BINFLOAT opcode
        data[at + 8] ^= 0x01  # the float's last mantissa byte
        with open(path, "wb") as handle:
            handle.write(data)
        assert cache.load(cell, seed) == (False, None)

    def test_non_dict_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cell, seed = echo("foreign-list"), 1
        cache.store(cell, seed, "ok")
        with open(cache.path(cell, seed), "wb") as handle:
            pickle.dump(["not", "an", "entry"], handle)
        assert cache.load(cell, seed) == (False, None)

    def test_entry_without_result_is_a_miss(self, tmp_path):
        """Matching key material alone does not make a hit."""
        cache = ResultCache(str(tmp_path))
        cell, seed = echo("no-result"), 1
        cache.store(cell, seed, "ok")
        with open(cache.path(cell, seed), "wb") as handle:
            pickle.dump({"key_material": cache.key_material(cell, seed)}, handle)
        assert cache.load(cell, seed) == (False, None)

    def test_stale_key_material_is_a_miss(self, tmp_path):
        """An entry written under other key material (e.g. an older
        CACHE_VERSION) is rejected even when the file path collides."""
        cache = ResultCache(str(tmp_path))
        cell, seed = echo("stale"), 1
        cache.store(cell, seed, "ok")
        path = cache.path(cell, seed)
        with open(path, "rb") as handle:
            entry = pickle.load(handle)
        entry["key_material"] = "rolp-bench-cache/v0\n" + cell.key
        with open(path, "wb") as handle:
            pickle.dump(entry, handle)
        hit, _ = cache.load(cell, seed)
        assert not hit

    def test_scale_and_seed_partition_the_cache(self, tmp_path, monkeypatch):
        cache = ResultCache(str(tmp_path))
        cell = echo("scaled")
        monkeypatch.setenv("ROLP_BENCH_SCALE", "0.05")
        cache.store(cell, 1, "at 0.05")
        monkeypatch.setenv("ROLP_BENCH_SCALE", "0.1")
        hit, _ = cache.load(cell, 1)
        assert not hit  # other scale
        monkeypatch.setenv("ROLP_BENCH_SCALE", "0.05")
        assert cache.load(cell, 1) == (True, "at 0.05")
        hit, _ = cache.load(cell, 2)
        assert not hit  # other seed

    @pytest.mark.parametrize(
        "bad, error",
        [
            pytest.param(threading.Lock(), TypeError, id="unpicklable"),
            pytest.param(_Interrupting(), KeyboardInterrupt, id="interrupt"),
        ],
    )
    def test_failed_store_leaves_no_temp_file(self, tmp_path, bad, error):
        """A write that fails part-way removes its temp file and re-raises
        the original exception; the cell can still be stored afterwards."""
        cache = ResultCache(str(tmp_path))
        cell, seed = echo("failed-store"), 1
        with pytest.raises(error):
            cache.store(cell, seed, {"padding": "x" * 100_000, "bad": bad})
        assert [p.name for p in tmp_path.rglob("*") if ".tmp." in p.name] == []
        assert cache.load(cell, seed) == (False, None)
        cache.store(cell, seed, {"answer": 42})
        assert cache.load(cell, seed) == (True, {"answer": 42})

    def test_runner_warm_cache_performs_zero_simulations(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cells = [echo("w1"), echo("w2")]
        cold = Runner(cache=cache)
        cold_results = cold.run(cells)
        assert cold.stats.simulations == 2

        del _EXECUTED[:]
        warm = Runner(cache=cache)  # fresh memo, same disk cache
        warm_results = warm.run(cells)
        assert _EXECUTED == []
        assert warm.stats.as_dict() | {"elapsed_s": 0} == {
            "cells": 2,
            "memo_hits": 0,
            "cache_hits": 2,
            "cache_misses": 0,
            "simulations": 0,
            "elapsed_s": 0,
        }
        assert warm_results == cold_results


class TestTraceIds:
    def test_derivation_is_deterministic_and_key_sensitive(self):
        from repro.bench.runner import derive_trace_id

        tid = derive_trace_id(echo("a").key, DEFAULT_BASE_SEED)
        assert tid == derive_trace_id(echo("a").key, DEFAULT_BASE_SEED)
        assert len(tid) == 16
        assert int(tid, 16) >= 0  # hex
        assert tid != derive_trace_id(echo("b").key, DEFAULT_BASE_SEED)
        assert tid != derive_trace_id(echo("a").key, DEFAULT_BASE_SEED + 1)

    def test_unlike_seeds_trace_ids_differ_across_treatments(self):
        """seed_scope collapses the *seed* across treatments; the trace id
        must still tell the cells apart (it hashes the full key)."""
        a = make_cell("scoped_test", subject="s", treatment="x")
        b = make_cell("scoped_test", subject="s", treatment="y")
        runner = Runner()
        runner.run([a, b])
        assert runner.seed_for(a) == runner.seed_for(b)
        assert runner.trace_ids[a.key] != runner.trace_ids[b.key]

    def test_runner_records_ids_even_for_cached_cells(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cell = echo("warm-id")
        cold = Runner(cache=cache)
        cold.run([cell])
        warm = Runner(cache=cache)
        warm.run([cell])
        assert warm.stats.simulations == 0
        assert warm.trace_ids[cell.key] == cold.trace_ids[cell.key]

    def test_cache_payload_carries_the_trace_id(self, tmp_path):
        from repro.bench.runner import derive_trace_id

        cache = ResultCache(str(tmp_path))
        cell, seed = echo("stamped"), 77
        cache.store(cell, seed, "ok")
        with open(cache.path(cell, seed), "rb") as handle:
            entry = pickle.load(handle)
        assert entry["trace_id"] == derive_trace_id(cell.key, seed)
        assert cache.load(cell, seed) == (True, "ok")


class TestPool:
    def test_parallel_results_match_serial_in_order(self, tmp_path):
        cells = [echo(tag, value=i) for i, tag in enumerate("abcd")]
        serial = Runner().run(cells)
        parallel = Runner(jobs=4).run(cells)
        assert parallel == serial

    def test_parallel_populates_the_shared_cache(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cells = [echo("p1"), echo("p2")]
        Runner(jobs=2, cache=cache).run(cells)
        warm = Runner(cache=cache)
        warm.run(cells)
        assert warm.stats.cache_hits == 2
        assert warm.stats.simulations == 0

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the dying cell kind is registered in the child's __main__",
    )
    def test_dead_worker_fails_the_run_instead_of_hanging(self, tmp_path):
        # in a child process with a deadline: a pool that waits forever
        # for the dead worker's result must fail this test, not hang it
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
        child = subprocess.run(
            [sys.executable, "-c", _WORKER_DEATH_SCRIPT, str(tmp_path)],
            env=env,
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert child.returncode == 0, child.stderr
        outcome = json.loads(child.stdout)
        assert outcome["error"] == "BrokenProcessPool"
        assert "before cell worker_death_test(die=True, index=1) finished" in (
            outcome["message"]
        )
        # the cells that finished before the death, one of them after the
        # dead cell in submission order, keep their memo and cache
        # entries; the dead one has neither
        assert outcome["held"] == [True, False, True, True]
        assert outcome["cached"] == [True, False, True, True]


#: four cells on two workers; cell 1 SIGKILLs its own worker once the
#: other three have returned (each touches a marker file first) and had
#: ample time to send their results; prints what the run left
_WORKER_DEATH_SCRIPT = """
import json, os, signal, sys, time
from repro.bench.runner import ResultCache, Runner, cell_kind, make_cell

def marker(index):
    return os.path.join(sys.argv[1], "returned-%d" % index)

@cell_kind("worker_death_test")
def _cell(seed, telemetry, index, die):
    if die:
        deadline = time.time() + 10
        while time.time() < deadline and not all(
            os.path.exists(marker(i)) for i in (0, 2, 3)
        ):
            time.sleep(0.01)
        time.sleep(0.5)
        os.kill(os.getpid(), signal.SIGKILL)
    open(marker(index), "w").close()
    return index

cache = ResultCache(os.path.join(sys.argv[1], "cache"))
runner = Runner(jobs=2, cache=cache)
cells = [make_cell("worker_death_test", index=i, die=i == 1) for i in range(4)]
try:
    runner.run(cells)
    outcome = {"error": None, "message": ""}
except Exception as exc:
    outcome = {"error": type(exc).__name__, "message": str(exc)}
outcome["held"] = [runner.holds(cell) for cell in cells]
outcome["cached"] = [cache.load(cell, runner.seed_for(cell))[0] for cell in cells]
print(json.dumps(outcome))
"""


class TestTelemetryAndHelpers:
    def test_counters_reach_the_session_metrics(self, tmp_path):
        session = TelemetrySession()
        runner = Runner(cache=ResultCache(str(tmp_path)), session=session)
        runner.run([echo("t1"), echo("t2")])
        runner.run([echo("t1")])  # memoised, no new counters
        counters = session.metrics.counter
        assert counters("bench_runner_cells").total() == 2
        assert counters("bench_runner_simulations").total() == 2
        assert counters("bench_runner_cache_misses").total() == 2
        assert counters("bench_runner_cache_hits").total() == 0

    def test_a_counter_appears_when_first_incremented(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        Runner(cache=cache).run([echo("w1"), echo("w2")])
        session = TelemetrySession()
        Runner(cache=cache, session=session).run([echo("w1"), echo("w2")])
        exported = session.metrics.to_json()
        assert exported["bench_runner_cache_hits"]["samples"][0]["value"] == 2
        assert "bench_runner_cache_misses" not in exported
        assert "bench_runner_simulations" not in exported

    def test_inline_runs_carry_per_cell_trace_tracks(self):
        session = TelemetrySession()
        Runner(session=session).run([echo("tracked")])
        assert "echo/tracked" in session.sink.process_names.values()

    def test_run_cells_uses_given_runner_else_throwaway(self):
        runner = Runner()
        run_cells([echo("via-runner")], runner=runner)
        assert runner.stats.cells == 1
        results = run_cells([echo("via-helper")])
        assert results[0]["tag"] == "via-helper"

    def test_progress_lines_go_to_stderr(self, capsys):
        Runner(progress=True).run([echo("noisy")])
        captured = capsys.readouterr()
        assert "[runner] (1/1)" in captured.err
        assert "echo/noisy" in captured.err
        assert captured.out == ""
