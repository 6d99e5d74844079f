"""Job → cell materialization and the canonical result payload.

A server *job* is a thin wrapper over one :class:`repro.bench.runner.Cell`:
clients either name a registered cell kind explicitly (``{"kind":
"trace_run", "params": {...}}``) or let a session's bound defaults fill
one in.  Everything the server returns for a job — ``result``,
``fingerprint``, ``seed``, ``trace_id`` — is computed here as a pure
function of the cell and the base seed, which is the whole byte-identity
contract: the same helpers build the *expected* payloads in the
deterministic soak tests and the ``server-smoke`` load generator, so
"server == serial Runner" is asserted byte-for-byte, not approximately.

The ``session_step`` cell kind registered here gives sessions an
incremental surface: step ``k`` of a session is its own deterministic
cell (the step index joins the cell key and hence the derived seed), so
two sessions bound to the same workload/collector share step results
through the ordinary runner memo and disk cache — sessions are
addressable, their work is content-addressed.
"""

from __future__ import annotations

import hashlib
import inspect
import json
from typing import Dict, List, Sequence

from repro import COLLECTOR_NAMES
from repro.bench.runner import (
    Cell,
    Runner,
    cell_kind,
    make_cell,
    registered_cell_kinds,
    cell_implementation,
    shared_seed_scope,
)
from repro.bench.workload_registry import all_workload_names, run_summary


@cell_kind(
    "session_step",
    track=lambda p: "%s/%s#%d" % (p["workload"], p["collector"], p["step"]),
    seed_scope=shared_seed_scope("session_step", "collector"),
)
def _session_step_cell(seed, telemetry, workload, collector, operations, step):
    """One session step: a bounded, independently-seeded chunk of the
    session's bound workload.  ``step`` participates in the cell key
    (and therefore the seed), so successive steps replay distinct
    deterministic operation streams; ``collector`` is excluded from the
    seed scope so stepping the same session grid under different
    collectors stays a controlled comparison."""
    summary = run_summary(workload, collector, operations, seed, telemetry)
    summary["step"] = step
    return summary


class JobValidationError(ValueError):
    """A job request that cannot become a valid cell; ``reason`` is the
    protocol error slug the app maps it to."""

    def __init__(self, reason: str, detail: str) -> None:
        self.reason = reason
        self.detail = detail
        super().__init__(detail)


def _check_names(params: Dict[str, object]) -> None:
    workload = params.get("workload")
    if isinstance(workload, str) and workload not in all_workload_names():
        raise JobValidationError(
            "unknown-workload",
            "unknown workload %r (choose from: %s)"
            % (workload, ", ".join(all_workload_names())),
        )
    collector = params.get("collector")
    if isinstance(collector, str) and collector not in COLLECTOR_NAMES:
        raise JobValidationError(
            "unknown-collector",
            "unknown collector %r (choose from: %s)"
            % (collector, ", ".join(COLLECTOR_NAMES)),
        )


def build_cell(kind: str, params: Dict[str, object]) -> Cell:
    """Validate and materialize a job into a cell.

    Validation happens at admission time, *before* the job joins a
    batch: a bad job must 400 on its own, never poison the batch it
    would have been coalesced into.
    """
    kinds = registered_cell_kinds()
    if kind not in kinds:
        raise JobValidationError(
            "unknown-kind",
            "unknown cell kind %r (registered: %s)" % (kind, ", ".join(kinds)),
        )
    _check_names(params)
    try:
        cell = make_cell(kind, **params)
    except TypeError as exc:
        raise JobValidationError("invalid-params", str(exc))
    # the params must bind to the kind's implementation signature —
    # a missing or surplus parameter would TypeError mid-batch otherwise
    fn = cell_implementation(kind)
    try:
        inspect.signature(fn).bind(seed=0, telemetry=None, **params)
    except TypeError as exc:
        raise JobValidationError(
            "invalid-params", "params do not fit kind %r: %s" % (kind, exc)
        )
    return cell


# -------------------------------------------------------- canonical payloads

def canonical_json(payload) -> str:
    """The one canonical serialization (sorted keys, no whitespace) —
    fingerprints and byte-identity assertions both hash/compare this."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def result_fingerprint(result) -> str:
    """SHA-256 over the canonical JSON of a cell result."""
    return hashlib.sha256(canonical_json(result).encode()).hexdigest()


def job_payload(cell: Cell, seed: int, trace_id: str, result) -> Dict[str, object]:
    """The deterministic ``job`` object of a job/step response.

    ``trace_id`` is the runner's id for the cell
    (:meth:`~repro.bench.runner.Runner.trace_id_for`), a function of the
    cell and seed, so the payload depends only on ``(cell, seed,
    result)`` — no timestamps, no queue/batch/cache provenance — and a
    response body is byte-identical no matter how the job reached
    execution.
    """
    return {
        "cell_key": cell.key,
        "kind": cell.kind,
        "seed": seed,
        "trace_id": trace_id,
        "fingerprint": result_fingerprint(result),
        "result": result,
    }


def expected_payloads(cells: Sequence[Cell], base_seed: int) -> List[Dict[str, object]]:
    """The payloads a conforming server must return for ``cells`` —
    computed by running them serially through a plain :class:`Runner`.
    The soak tests and the load generator diff server responses against
    this, byte-for-byte."""
    runner = Runner(jobs=1, cache=None, base_seed=base_seed)
    results = runner.run(list(cells))
    return [
        job_payload(cell, runner.seed_for(cell), runner.trace_id_for(cell), result)
        for cell, result in zip(cells, results)
    ]
