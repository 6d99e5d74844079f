"""pytest-benchmark smoke suite for the hot-path perf kernels.

Opt-in (``ROLP_PERF=1``): wall-clock assertions are meaningless on a
loaded CI box or an unknown machine, so by default the whole module
skips.  When enabled, each kernel runs once (the simulated runs are
deterministic — see conftest) under the optimised ``fast`` backend and
its ns/op is compared against the per-backend entry in
``perf_baseline.json`` with a ±50% guard: slower means a
regression crept into a hot path, dramatically faster usually means the
kernel stopped exercising what it used to.

Re-bless the baseline on the machine of record after an intentional
change::

    ROLP_PERF=1 ROLP_UPDATE_PERF_BASELINE=1 \
        python -m pytest benchmarks/test_perf_kernels.py

The differential correctness of the kernels (reference vs fast) is
pinned by tests/test_perf_equivalence.py, which always runs.
"""

import json
import os

import pytest

from repro.bench import perf
from repro.bench.config import bench_scale

pytestmark = pytest.mark.skipif(
    os.environ.get("ROLP_PERF") != "1",
    reason="wall-clock perf guard; opt in with ROLP_PERF=1",
)

BASELINE_PATH = os.path.join(os.path.dirname(__file__), "perf_baseline.json")
TOLERANCE = 0.50
#: absolute slack: on the cheapest kernels a few tens of ns/op is timer
#: and scheduler noise — anything within this absolute band always passes
ABS_SLACK_NS = 50.0
SEED = 1234
#: median-of-N inside run_kernel smooths single-sample scheduler noise
REPEAT = 5

#: the optimised backend the guard watches (reference is the
#: measurement baseline inside BENCH_6, not a regression target)
GUARDED_BACKENDS = ("fast",)


def load_baseline():
    with open(BASELINE_PATH) as handle:
        return json.load(handle)


def bless(kernel, backend, result):
    try:
        doc = load_baseline()
    except (OSError, ValueError):
        doc = {"schema": "rolp-perf-baseline/v2", "kernels": {}}
    doc.setdefault("kernels", {}).setdefault(kernel, {})[backend] = {
        "ns_per_op": round(result["ns_per_op"], 1),
        "ops": result["ops"],
        "scale": bench_scale(),
    }
    with open(BASELINE_PATH, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")


@pytest.mark.parametrize("backend", GUARDED_BACKENDS)
@pytest.mark.parametrize("kernel", perf.PERF_KERNELS)
def test_kernel_within_baseline(benchmark, kernel, backend):
    ops = perf.kernel_ops(kernel)
    result = benchmark.pedantic(
        perf.run_kernel, args=(kernel, SEED, ops, backend, REPEAT), rounds=1
    )
    if os.environ.get("ROLP_UPDATE_PERF_BASELINE") == "1":
        bless(kernel, backend, result)
        pytest.skip("baseline re-blessed for %s/%s" % (kernel, backend))
    baseline = load_baseline()["kernels"][kernel][backend]["ns_per_op"]
    measured = result["ns_per_op"]
    if abs(measured - baseline) <= ABS_SLACK_NS:
        return
    ratio = measured / baseline
    assert ratio <= 1 + TOLERANCE, (
        "%s/%s regressed: %.0f ns/op vs baseline %.0f (%.0f%% slower); if "
        "intentional, re-bless with ROLP_UPDATE_PERF_BASELINE=1"
        % (kernel, backend, measured, baseline, (ratio - 1) * 100)
    )
    assert ratio >= 1 - TOLERANCE, (
        "%s/%s is suspiciously fast: %.0f ns/op vs baseline %.0f — check "
        "the kernel still exercises the path, then re-bless with "
        "ROLP_UPDATE_PERF_BASELINE=1"
        % (kernel, backend, measured, baseline)
    )
