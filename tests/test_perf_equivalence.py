"""Differential equivalence suite for the execution backends.

The fast backend (:mod:`repro.fastpath`) is a pure reimplementation:
under either of ``reference``/``fast``, every figure/table cell and
every perf kernel must produce byte-identical results.  Four layers pin
that down:

* each perf kernel's fingerprint (counters, clock totals, OLD-table
  checksums, stack states) matches across both backends,
* the rendered ``table1``/``fig6`` artifacts (stdout and ``--json-dir``
  JSON) match across both backends,
* every backend survives a level-2 invariant verification
  (``InvariantViolation``-free), and verification does not change the
  kernel fingerprints,
* the hostile demographies (the adversarial fuzz workload and the
  trace-calibrated replay) fingerprint byte-identically across both
  backends — equivalence must hold under antagonistic allocation
  patterns, not just the paper's friendly workloads.
"""

import contextlib
import json

import pytest

from repro.analysis import set_default_verify_level
from repro.bench import fuzz, perf
from repro.bench.cli import main
from repro.fastpath import BACKENDS, set_backend

SEED = 20260805


@pytest.fixture(autouse=True)
def tiny_scale(monkeypatch, tmp_path):
    monkeypatch.setenv("ROLP_BENCH_SCALE", "0.02")
    monkeypatch.setenv("ROLP_BENCH_CACHE_DIR", str(tmp_path / "cell-cache"))


@contextlib.contextmanager
def backend_mode(name):
    previous = set_backend(name)
    try:
        yield
    finally:
        set_backend(previous)


@contextlib.contextmanager
def verify_level(level):
    set_default_verify_level(level)
    try:
        yield
    finally:
        set_default_verify_level(0)


def fingerprint_bytes(result):
    """The fingerprint serialized the way BENCH_6.json stores it —
    equality must hold at the byte level, not merely ``==``."""
    return json.dumps(result["fingerprint"], sort_keys=True).encode()


def rendered(capsys):
    """Stdout minus the output-path echo lines (the only lines allowed
    to differ between runs: they name run-specific tmp directories)."""
    out = capsys.readouterr().out
    return "".join(
        line
        for line in out.splitlines(keepends=True)
        if " written to " not in line
    )


class TestKernelEquivalence:
    @pytest.mark.parametrize("kernel", perf.PERF_KERNELS)
    def test_fingerprints_byte_identical(self, kernel):
        ops = perf.kernel_ops(kernel)
        results = {
            name: perf.run_kernel(kernel, SEED, ops, name) for name in BACKENDS
        }
        reference = results["reference"]
        for name in BACKENDS:
            assert fingerprint_bytes(results[name]) == fingerprint_bytes(
                reference
            ), name
            # every backend performed the same number of operations
            assert results[name]["ops"] == reference["ops"] > 0

    @pytest.mark.parametrize("kernel", perf.PERF_KERNELS)
    def test_fingerprints_stable_under_level2_verification(self, kernel):
        """Level-2 verification raises InvariantViolation on any heap or
        lock-discipline breakage; a clean run proves the optimised
        backends keep every invariant, and the fingerprint proves
        verification itself perturbs nothing."""
        ops = perf.kernel_ops(kernel)
        unverified = perf.run_kernel(kernel, SEED, ops, "fast")
        with verify_level(2):
            for name in BACKENDS:
                verified = perf.run_kernel(kernel, SEED, ops, name)
                assert fingerprint_bytes(verified) == fingerprint_bytes(
                    unverified
                ), name

    def test_repeat_reports_median_and_cv(self):
        result = perf.run_kernel("header", SEED, 2_000, "fast", repeat=3)
        assert result["repeat"] == 3
        assert len(result["ns_per_op_runs"]) == 3
        assert result["ns_per_op"] == sorted(result["ns_per_op_runs"])[1]
        assert result["cv"] >= 0.0


class TestHostileDemographyEquivalence:
    """The adversarial and trace-calibrated workloads are built to be
    hostile (context-collision pressure, lifetime oscillation, bursts);
    the backends must still agree byte-for-byte — including under the
    compressed fuzz inference period and live level-2 verification."""

    # op counts chosen as the smallest that still drive GC cycles
    # through each demography (the traced heap is 96 MB, so it needs
    # more allocation to reach its first collection)
    @pytest.mark.parametrize(
        "workload,ops", [("adversarial", 1_500), ("traced-sample", 2_500)]
    )
    def test_fingerprints_byte_identical(self, workload, ops):
        fingerprints = {
            name: json.dumps(
                fuzz.fingerprint_workload(workload, SEED, ops, name),
                sort_keys=True,
            ).encode()
            for name in BACKENDS
        }
        reference = fingerprints["reference"]
        assert json.loads(reference)["gc_cycles"] > 0, "demography produced no GCs"
        for name in BACKENDS:
            assert fingerprints[name] == reference, name


class TestArtifactEquivalence:
    def run_cli(self, tmp_path, capsys, tag, argv, backend):
        json_dir = tmp_path / tag
        with backend_mode(backend):
            assert main(argv + ["--no-cache", "--json-dir", str(json_dir)]) == 0
        payloads = sorted(json_dir.glob("*.json"))
        assert payloads, "no JSON artifact written"
        return payloads[0].read_bytes(), rendered(capsys)

    def test_table1_byte_identical_across_backends(self, tmp_path, capsys):
        argv = ["table1", "--workloads", "lucene"]
        outputs = {
            name: self.run_cli(tmp_path, capsys, name, argv, name)
            for name in BACKENDS
        }
        for name in BACKENDS:
            assert outputs[name] == outputs["reference"], name
        assert "Table 1" in outputs["reference"][1]

    def test_fig6_byte_identical_across_backends(self, tmp_path, capsys):
        argv = ["fig6", "--benchmarks", "avrora"]
        outputs = {
            name: self.run_cli(tmp_path, capsys, name, argv, name)
            for name in BACKENDS
        }
        for name in BACKENDS:
            assert outputs[name] == outputs["reference"], name
        assert "Figure 6" in outputs["reference"][1]


class TestVerifiedModes:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_fig6_level2_verify_clean(self, capsys, backend):
        with backend_mode(backend):
            assert main(["fig6", "--benchmarks", "avrora", "--verify"]) == 0
        assert "[verify] level 2: all invariant checks passed" in capsys.readouterr().err

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_table1_level2_verify_clean(self, capsys, backend):
        with backend_mode(backend):
            assert main(["table1", "--workloads", "lucene", "--verify"]) == 0
        assert "[verify] level 2: all invariant checks passed" in capsys.readouterr().err
