"""Adversarial workload fuzzer (``rolp-bench fuzz``).

A seeded evolutionary search over :class:`DemographyGenome` space
(:mod:`repro.workloads.adversarial`), with the whole PR 3-7 sanitizer
and differential investment wired in as the oracle:

* every candidate genome is simulated once per execution backend
  (``reference``/``fast``) with **level-2 invariant verification
  live**,
* the per-backend outcomes go through
  :func:`repro.analysis.fuzz_oracle.judge` — invariant violations,
  cross-backend fingerprint divergence and inference-accuracy cliffs
  all count as findings,
* any finding is **shrunk** (greedy first-improvement descent over
  :meth:`DemographyGenome.shrink_candidates`, which strictly reduces
  genome complexity, so descent terminates) and **banked** into the
  replayable regression corpus ``tests/corpus/*.json``,
* independently of findings, the search tracks the best genome per
  *objective* — maximize context-collision rate, survivor-prediction
  drift, tail pauses — and banks the conflict-objective winner when it
  beats the kvstore baseline by :data:`CONFLICT_RATIO_REQUIRED` x.

Determinism contract: with an integer ``--budget N`` (N candidate
evaluations) the entire search — candidate stream, scores, shrinks,
report JSON, corpus filenames — is a pure function of ``--seed``;
evaluation cells flow through the experiment :class:`Runner`, which
merges pool results in submission order, so ``--jobs 1`` and
``--jobs 4`` are byte-identical.  A ``--budget 120s`` time-box (the
nightly mode) trades that determinism for wall-clock bounding.

Evaluation compresses the inference window
(``inference_period_gcs=8`` instead of the paper's 16) so hostile
pressure produces multiple inference passes within bench-scale budgets;
the baseline is measured under the identical configuration, so
objective ratios compare like with like.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis import (
    InvariantViolation,
    default_verify_level,
    set_default_verify_level,
)
from repro.analysis.fuzz_oracle import judge
from repro.bench.config import scaled_ops
from repro.bench.runner import (
    Cell,
    Runner,
    cell_kind,
    derive_seed,
    make_cell,
    shared_seed_scope,
)
from repro.bench.workload_registry import make_big_workload
from repro.core import RolpConfig
from repro.fastpath import BACKENDS, set_backend
from repro.workloads.adversarial import (
    HOSTILE_DEFAULT,
    AdversarialWorkload,
    DemographyGenome,
    random_genome,
)
from repro.workloads.base import run_workload

#: GC cycles between inference passes during fuzz evaluation (the
#: paper's 16 needs more GC activity than a bench-scale run produces)
FUZZ_INFERENCE_PERIOD = 8

#: verification level every candidate runs under
FUZZ_VERIFY_LEVEL = 2

#: unscaled operation budget per candidate evaluation
FUZZ_EVAL_BASE_OPS = 6_000

#: candidate evaluations per generation of the search
GENERATION_SIZE = 6

#: fixed (never scaled) operation count corpus entries are banked and
#: replayed at — corpus semantics must not depend on ROLP_BENCH_SCALE
CORPUS_OPS = 3_000

#: the friendly-demography baseline the conflict objective is measured
#: against (the paper's Cassandra write-intensive mix)
BASELINE_WORKLOAD = "cassandra-wi"

#: required conflict-rate ratio over the baseline for the
#: max-conflicts objective to be bank-worthy (acceptance criterion)
CONFLICT_RATIO_REQUIRED = 10.0

#: baselines below this floor count as the floor (a zero-conflict
#: baseline must not make every ratio infinite)
BASELINE_RATE_FLOOR = 0.25

#: corpus JSON schema identifier
CORPUS_SCHEMA = "rolp-bench/fuzz-corpus/v1"

#: default corpus directory, relative to the repo root
DEFAULT_CORPUS_DIR = os.path.join("tests", "corpus")

#: search objectives and the reference-backend metric each maximizes
OBJECTIVE_METRICS = {
    "conflicts": "conflict_rate",
    "drift": "prediction_error",
    "tail": "tail_pause_ms",
}


# ---------------------------------------------------------------------- evaluation

def _fuzz_rolp_config(workload) -> RolpConfig:
    return RolpConfig(
        package_filter=workload.package_filter(),
        inference_period_gcs=FUZZ_INFERENCE_PERIOD,
    )


def _fingerprint(result, workload) -> Dict[str, object]:
    """JSON-stable digest of everything the backends could perturb.

    Floats go through ``repr`` — the differential oracle demands bit
    equality, not tolerance (as the hot-path kernel fingerprints in
    tests/test_perf_equivalence.py do).
    """
    profiler_summary = result.profiler_summary or {}
    pause_ms = result.pause_ms
    return {
        "workload": result.workload,
        "operations": result.operations,
        "gc_cycles": result.gc_cycles,
        "elapsed_ms": repr(result.elapsed_ms),
        "max_memory_bytes": result.max_memory_bytes,
        "pause_count": len(pause_ms),
        "pause_total_ms": repr(sum(pause_ms)),
        "pause_max_ms": repr(max(pause_ms) if pause_ms else 0.0),
        "vm": {key: repr(value) for key, value in sorted(result.vm_summary.items())},
        "profiler": {
            key: repr(value) for key, value in sorted(profiler_summary.items())
        },
    }


def _evaluate(workload, ops: int, backend_name: str, verify: int) -> Dict[str, object]:
    """Run one already-constructed workload under one backend with the
    sanitizer suite live; never raises on an invariant violation —
    the violation IS the result (pool workers must not die on a find)."""
    previous_backend = set_backend(backend_name)
    previous_verify = default_verify_level()
    set_default_verify_level(verify)
    try:
        try:
            result = run_workload(
                workload,
                "rolp",
                operations=ops,
                rolp_config=_fuzz_rolp_config(workload),
            )
        except InvariantViolation as violation:
            return {
                "violation": {
                    "rule": violation.rule,
                    "message": violation.message,
                    "details": {
                        key: repr(value)
                        for key, value in sorted(violation.details.items())
                    },
                },
                "fingerprint": None,
                "metrics": {},
            }
    finally:
        set_default_verify_level(previous_verify)
        set_backend(previous_backend)
    profiler = workload.vm.profiler
    tail = result.percentiles([99.9])[99.9] if result.pauses else 0.0
    metrics = {
        "conflict_rate": profiler.conflict_rate() if profiler else 0.0,
        "prediction_error": profiler.prediction_error() if profiler else 0.0,
        "inference_passes": profiler.inference.passes_run if profiler else 0,
        "tail_pause_ms": tail,
        "gc_cycles": result.gc_cycles,
        "throughput_ops_s": result.throughput_ops_s,
    }
    return {
        "violation": None,
        "fingerprint": _fingerprint(result, workload),
        "metrics": metrics,
    }


def evaluate_genome(
    genome_json: str,
    seed: int,
    ops: int,
    backend_name: str,
    verify: int = FUZZ_VERIFY_LEVEL,
) -> Dict[str, object]:
    """Evaluate one genome (canonical JSON) under one backend."""
    genome = DemographyGenome.decode(genome_json)
    return _evaluate(AdversarialWorkload(genome, seed=seed), ops, backend_name, verify)


def evaluate_registered(
    workload_name: str,
    seed: int,
    ops: int,
    backend_name: str,
    verify: int = FUZZ_VERIFY_LEVEL,
) -> Dict[str, object]:
    """Evaluate a registry workload (baseline measurement, traced runs)
    under the identical fuzz configuration."""
    return _evaluate(
        make_big_workload(workload_name, seed=seed), ops, backend_name, verify
    )


def fingerprint_workload(
    workload_name: str, seed: int, ops: int, backend_name: str
) -> Dict[str, object]:
    """The run fingerprint of a registered workload under one backend —
    the hostile-demography hook for the perf-equivalence suite.
    Raises if the run trips an invariant (equivalence tests expect
    clean runs)."""
    outcome = evaluate_registered(workload_name, seed, ops, backend_name)
    if outcome["violation"]:
        raise AssertionError(
            "workload %r violated %s under backend %s"
            % (workload_name, outcome["violation"]["rule"], backend_name)
        )
    return outcome["fingerprint"]


@cell_kind(
    "fuzz_eval",
    track=lambda p: "fuzz/%s/%s"
    % (
        p["workload"] or "genome-%s" % _genome_digest(p["genome"])[:8],
        p["backend"],
    ),
    seed_scope=shared_seed_scope("fuzz_eval", "backend"),
)
def _fuzz_eval_cell(seed, telemetry, genome, workload, ops, backend, verify):
    """One candidate evaluation.  Exactly one of ``genome`` (canonical
    JSON) and ``workload`` (registry name) is non-empty.  The backend is
    a treatment parameter (shared seed scope), so both backends replay
    the identical candidate."""
    if genome:
        return evaluate_genome(genome, seed, ops, backend, verify)
    return evaluate_registered(workload, seed, ops, backend, verify)


def _genome_digest(genome_json: str) -> str:
    return hashlib.sha256(genome_json.encode()).hexdigest()


# ------------------------------------------------------------------- batch helpers

def _genome_cells(genome_json: str, ops: int, backends: Sequence[str]) -> List[Cell]:
    return [
        make_cell(
            "fuzz_eval",
            genome=genome_json,
            workload="",
            ops=ops,
            backend=backend_name,
            verify=FUZZ_VERIFY_LEVEL,
        )
        for backend_name in backends
    ]


def evaluate_batch(
    runner: Runner,
    genomes: Sequence[DemographyGenome],
    ops: int,
    backends: Sequence[str] = BACKENDS,
) -> List[Dict[str, dict]]:
    """Evaluate each genome under every backend through the runner
    (pool-parallel, cached, submission-order deterministic); returns one
    ``{backend: outcome}`` dict per genome."""
    cells: List[Cell] = []
    for genome in genomes:
        cells.extend(_genome_cells(genome.encode(), ops, backends))
    results = runner.run(cells)
    width = len(backends)
    return [
        dict(zip(backends, results[width * index : width * (index + 1)]))
        for index in range(len(genomes))
    ]


def measure_baseline(runner: Runner, ops: int) -> float:
    """The kvstore conflict-rate baseline at the given op count, floored
    so ratios stay finite."""
    cell = make_cell(
        "fuzz_eval",
        genome="",
        workload=BASELINE_WORKLOAD,
        ops=ops,
        backend="reference",
        verify=FUZZ_VERIFY_LEVEL,
    )
    outcome = runner.run([cell])[0]
    rate = outcome["metrics"].get("conflict_rate", 0.0)
    return max(BASELINE_RATE_FLOOR, rate)


# ---------------------------------------------------------------------- shrinking

def shrink_genome(genome: DemographyGenome, holds) -> DemographyGenome:
    """Greedy first-improvement minimization: repeatedly move to the
    first shrink candidate on which ``holds(candidate)`` is still true.
    Terminates because every candidate strictly reduces
    :meth:`DemographyGenome.complexity`."""
    current = genome
    improved = True
    while improved:
        improved = False
        for candidate in current.shrink_candidates():
            if holds(candidate):
                current = candidate
                improved = True
                break
    return current


def _finding_holds(runner: Runner, rule_id: str, ops: int):
    """Predicate: the full two-backend oracle still reports
    ``rule_id`` for the candidate."""

    def holds(candidate: DemographyGenome) -> bool:
        by_backend = evaluate_batch(runner, [candidate], ops)[0]
        return any(finding.rule_id == rule_id for finding in judge(by_backend))

    return holds


def _conflict_holds(
    runner: Runner,
    threshold: float,
    ops: int,
    stats: Optional[Dict[str, int]] = None,
):
    """Predicate: the candidate still clears the conflict-rate
    threshold on the reference backend (cheap single-cell eval).

    Consults the static context-conflict predictor first
    (:func:`repro.analysis.staticcheck.static_conflict_pressure`): a
    genome with zero statically-reachable conflict sites cannot clear
    any positive conflict threshold, so the simulation is skipped
    outright.  The predictor guarantees zero false negatives (see
    tests/test_staticcheck_crossval.py), so skipping is sound."""
    from repro.analysis.staticcheck import static_conflict_pressure

    def holds(candidate: DemographyGenome) -> bool:
        if stats is not None:
            stats["consulted"] += 1
        if threshold > 0 and static_conflict_pressure(candidate) == 0:
            if stats is not None:
                stats["simulations_skipped"] += 1
            return False
        by_backend = evaluate_batch(runner, [candidate], ops, backends=("reference",))[0]
        outcome = by_backend["reference"]
        if outcome["violation"]:
            return False
        return outcome["metrics"]["conflict_rate"] >= threshold

    return holds


# ------------------------------------------------------------------------- corpus

def corpus_entry_name(rule_id: str, genome: DemographyGenome) -> str:
    """Deterministic corpus filename: rule slug + genome digest."""
    slug = rule_id.replace("/", "-").replace(" ", "-")
    digest = _genome_digest("%s\x00%s" % (rule_id, genome.encode()))[:12]
    return "fuzz-%s-%s.json" % (slug, digest)


def bank_corpus_entry(
    corpus_dir: str,
    rule_id: str,
    detail: str,
    genome: DemographyGenome,
    seed: int,
    check: str,
    metrics: Dict[str, object],
    baseline_conflict_rate: Optional[float] = None,
) -> str:
    """Write one corpus entry; returns the (deterministic) filename.

    ``check`` tells the replay test what must hold:

    * ``"replay-clean"`` — no violation, no divergence (regression pin
      for a finding that has since been fixed),
    * ``"max-conflicts"`` — clean AND conflict rate >=
      :data:`CONFLICT_RATIO_REQUIRED` x the kvstore baseline,
    * ``"accuracy-cliff"`` — clean AND the drift cliff still reproduces.
    """
    name = corpus_entry_name(rule_id, genome)
    cells = _genome_cells(genome.encode(), CORPUS_OPS, BACKENDS)
    entry = {
        "schema": CORPUS_SCHEMA,
        "rule_id": rule_id,
        "detail": detail,
        "check": check,
        "genome": genome.as_dict(),
        "seed": seed,
        "ops": CORPUS_OPS,
        "backends": list(BACKENDS),
        "cell_key": cells[0].key,
        "metrics": metrics,
    }
    if baseline_conflict_rate is not None:
        entry["baseline_conflict_rate"] = baseline_conflict_rate
    os.makedirs(corpus_dir, exist_ok=True)
    path = os.path.join(corpus_dir, name)
    with open(path, "w") as handle:
        json.dump(entry, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return name


def load_corpus(corpus_dir: str = DEFAULT_CORPUS_DIR) -> List[Dict[str, object]]:
    """Every banked entry, sorted by filename (deterministic order)."""
    if not os.path.isdir(corpus_dir):
        return []
    entries = []
    for name in sorted(os.listdir(corpus_dir)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(corpus_dir, name)) as handle:
            entry = json.load(handle)
        if entry.get("schema") != CORPUS_SCHEMA:
            raise ValueError(
                "corpus entry %s has schema %r, expected %r"
                % (name, entry.get("schema"), CORPUS_SCHEMA)
            )
        entry["_file"] = name
        entries.append(entry)
    return entries


def replay_corpus_entry(entry: Dict[str, object]) -> Dict[str, object]:
    """Replay one banked entry under every recorded backend.

    Returns ``{"ok": bool, "problems": [...], "results": {backend: outcome}}``
    — the corpus-replay test and the nightly job both consume this.
    """
    genome = DemographyGenome.from_dict(entry["genome"])
    genome_json = genome.encode()
    seed = int(entry["seed"])
    ops = int(entry["ops"])
    problems: List[str] = []
    results: Dict[str, dict] = {}
    for backend_name in entry["backends"]:
        outcome = evaluate_genome(genome_json, seed, ops, backend_name)
        results[backend_name] = outcome
        if outcome["violation"]:
            problems.append(
                "[%s] invariant %s" % (backend_name, outcome["violation"]["rule"])
            )
    fingerprints = {
        name: json.dumps(outcome["fingerprint"], sort_keys=True)
        for name, outcome in results.items()
        if not outcome["violation"]
    }
    if len(set(fingerprints.values())) > 1:
        problems.append("fingerprint divergence across %s" % sorted(fingerprints))

    check = entry.get("check", "replay-clean")
    reference = results.get("reference") or next(iter(results.values()))
    if check == "max-conflicts" and not problems:
        baseline = max(
            BASELINE_RATE_FLOOR, float(entry.get("baseline_conflict_rate", 0.0))
        )
        rate = reference["metrics"]["conflict_rate"]
        if rate < CONFLICT_RATIO_REQUIRED * baseline:
            problems.append(
                "conflict rate %.2f below %.0fx baseline %.2f"
                % (rate, CONFLICT_RATIO_REQUIRED, baseline)
            )
    elif check == "accuracy-cliff" and not problems:
        findings = judge(results)
        if not any(f.rule_id == "inference/accuracy-cliff" for f in findings):
            problems.append("accuracy cliff no longer reproduces")
    return {"ok": not problems, "problems": problems, "results": results}


# ------------------------------------------------------------------------- search

def parse_budget(budget: str) -> Tuple[Optional[int], Optional[float]]:
    """``"64"`` -> 64 candidate evaluations (deterministic);
    ``"120s"`` -> a 120-second time box (nightly mode)."""
    text = str(budget).strip()
    if text.endswith("s"):
        seconds = float(text[:-1])
        if seconds <= 0:
            raise ValueError("budget time box must be positive: %r" % budget)
        return None, seconds
    count = int(text)
    if count <= 0:
        raise ValueError("budget must be positive: %r" % budget)
    return count, None


def _next_candidate(
    rng: random.Random,
    best: Dict[str, Tuple[float, DemographyGenome]],
    seen: set,
) -> DemographyGenome:
    """One new candidate: mutate a current objective winner (mostly) or
    inject a fresh random genome (exploration); dedupe against ``seen``."""
    for _ in range(32):
        winners = [genome for _, genome in best.values()]
        if winners and rng.random() < 0.75:
            candidate = rng.choice(winners).mutate(rng)
        else:
            candidate = random_genome(rng)
        if candidate.encode() not in seen:
            return candidate
    # a collision storm means the neighbourhood is exhausted; mutate
    # harder (two steps) without the dedupe guarantee
    base = rng.choice(winners) if winners else HOSTILE_DEFAULT
    return base.mutate(rng).mutate(rng)


def fuzz(
    runner: Runner,
    budget: str = "32",
    corpus_dir: str = DEFAULT_CORPUS_DIR,
    progress=None,
) -> Dict[str, object]:
    """The search loop; returns the fuzz report payload.

    ``runner`` supplies the base seed, job count and cache.  The
    candidate stream starts from :data:`HOSTILE_DEFAULT` plus seeded
    random genomes and evolves toward the objectives; every oracle
    finding is shrunk and banked, and the conflict-objective winner is
    banked when it clears the acceptance ratio.
    """
    count_budget, time_budget = parse_budget(budget)
    deadline = time.time() + time_budget if time_budget is not None else None
    rng = random.Random(derive_seed("fuzz-search", runner.base_seed))
    ops = scaled_ops(FUZZ_EVAL_BASE_OPS)

    def note(message: str) -> None:
        if progress is not None:
            progress(message)

    baseline_rate = measure_baseline(runner, CORPUS_OPS)
    note("baseline %s conflict rate: %.2f" % (BASELINE_WORKLOAD, baseline_rate))
    conflict_threshold = CONFLICT_RATIO_REQUIRED * baseline_rate

    seen: set = {HOSTILE_DEFAULT.encode()}
    best: Dict[str, Tuple[float, DemographyGenome]] = {}
    findings_log: List[Dict[str, object]] = []
    banked: List[str] = []
    banked_rules: set = set()
    evals_done = 0
    generation = 0

    pending: List[DemographyGenome] = [HOSTILE_DEFAULT]
    while True:
        if count_budget is not None and evals_done >= count_budget:
            break
        if deadline is not None and time.time() >= deadline:
            break
        batch = list(pending)
        pending = []
        room = (
            count_budget - evals_done - len(batch)
            if count_budget is not None
            else GENERATION_SIZE - len(batch)
        )
        for _ in range(max(0, min(GENERATION_SIZE - len(batch), room))):
            candidate = _next_candidate(rng, best, seen)
            seen.add(candidate.encode())
            batch.append(candidate)
        if not batch:
            break
        generation += 1
        outcomes = evaluate_batch(runner, batch, ops)
        evals_done += len(batch)

        for genome, by_backend in zip(batch, outcomes):
            reference = by_backend["reference"]
            metrics = reference.get("metrics", {})
            if not reference.get("violation"):
                for objective in sorted(OBJECTIVE_METRICS):
                    score = float(metrics.get(OBJECTIVE_METRICS[objective], 0.0))
                    if objective not in best or score > best[objective][0]:
                        best[objective] = (score, genome)

            for finding in judge(by_backend):
                findings_log.append(
                    {"rule_id": finding.rule_id, "detail": finding.detail}
                )
                if finding.rule_id in banked_rules:
                    continue
                # entries bank and replay at CORPUS_OPS, so the finding
                # must hold there — both as the shrink predicate and as
                # the banking gate (a finding that only manifests at
                # eval ops would bank an entry tier-1 replay rejects)
                holds = _finding_holds(runner, finding.rule_id, CORPUS_OPS)
                if not holds(genome):
                    note(
                        "finding %s does not reproduce at corpus ops; not banked"
                        % finding.rule_id
                    )
                    continue
                banked_rules.add(finding.rule_id)
                note("finding %s — shrinking" % finding.rule_id)
                shrunk = shrink_genome(genome, holds)
                check = (
                    "accuracy-cliff"
                    if finding.rule_id == "inference/accuracy-cliff"
                    else "replay-clean"
                )
                shrunk_outcome = evaluate_batch(runner, [shrunk], CORPUS_OPS)[0]
                banked.append(
                    bank_corpus_entry(
                        corpus_dir,
                        finding.rule_id,
                        finding.detail,
                        shrunk,
                        seed=runner.seed_for(
                            _genome_cells(shrunk.encode(), CORPUS_OPS, BACKENDS)[0]
                        ),
                        check=check,
                        metrics=shrunk_outcome["reference"].get("metrics", {}),
                    )
                )
        note(
            "generation %d: %d evals, best %s"
            % (
                generation,
                evals_done,
                ", ".join(
                    "%s=%.2f" % (name, best[name][0]) for name in sorted(best)
                ),
            )
        )

    # Bank the conflict-objective winner when it clears the acceptance
    # ratio at corpus ops (shrunk against that same threshold).
    objective_entry: Optional[str] = None
    predictor_stats = {"consulted": 0, "simulations_skipped": 0}
    if "conflicts" in best:
        holds = _conflict_holds(
            runner, conflict_threshold, CORPUS_OPS, stats=predictor_stats
        )
        winner = best["conflicts"][1]
        if holds(winner):
            shrunk = shrink_genome(winner, holds)
            final = evaluate_batch(runner, [shrunk], CORPUS_OPS)[0]
            # the winner must be bug-free (no sanitizer/differential
            # finding); a high prediction drift is the *point* of a
            # hostile genome, so the accuracy cliff does not block it
            clean = not any(
                finding.rule_id.startswith(("invariant/", "differential/"))
                for finding in judge(final)
            )
            if clean:
                objective_entry = bank_corpus_entry(
                    corpus_dir,
                    "objective/max-conflicts",
                    "conflict rate %.2f vs baseline %.2f (>= %.0fx)"
                    % (
                        final["reference"]["metrics"]["conflict_rate"],
                        baseline_rate,
                        CONFLICT_RATIO_REQUIRED,
                    ),
                    shrunk,
                    seed=runner.seed_for(
                        _genome_cells(shrunk.encode(), CORPUS_OPS, BACKENDS)[0]
                    ),
                    check="max-conflicts",
                    metrics=final["reference"]["metrics"],
                    baseline_conflict_rate=baseline_rate,
                )
                banked.append(objective_entry)
                note("banked objective winner %s" % objective_entry)

    return {
        "schema": "rolp-bench/fuzz-report/v1",
        "base_seed": runner.base_seed,
        "budget": budget,
        "evaluations": evals_done,
        "generations": generation,
        "eval_ops": ops,
        "corpus_ops": CORPUS_OPS,
        "inference_period_gcs": FUZZ_INFERENCE_PERIOD,
        "baseline": {
            "workload": BASELINE_WORKLOAD,
            "conflict_rate": baseline_rate,
        },
        "objectives": {
            name: {
                "metric": OBJECTIVE_METRICS[name],
                "score": best[name][0],
                "genome": best[name][1].as_dict(),
            }
            for name in sorted(best)
        },
        "findings": findings_log,
        "corpus_entries": banked,
        "static_predictor": predictor_stats,
    }


def report_failure_rules(report: Dict[str, object]) -> List[str]:
    """The finding rule ids that must fail a CI fuzz run: sanitizer
    trips and cross-backend divergence.  Accuracy-cliff findings are
    search intelligence (banked, not fatal) — advice quality degrading
    under a hostile demography is an observation, not a broken
    invariant."""
    findings = report.get("findings", [])
    return sorted(
        {
            str(finding["rule_id"])
            for finding in findings
            if str(finding["rule_id"]).startswith(("invariant/", "differential/"))
        }
    )


def render_fuzz_report(report: Dict[str, object]) -> str:
    """Human-readable summary of a fuzz report payload."""
    lines = [
        "budget %s | %d evaluations over %d generations | eval ops %d"
        % (
            report["budget"],
            report["evaluations"],
            report["generations"],
            report["eval_ops"],
        ),
        "baseline %s conflict rate: %.2f"
        % (report["baseline"]["workload"], report["baseline"]["conflict_rate"]),
    ]
    objectives = report.get("objectives", {})
    for name in sorted(objectives):
        lines.append(
            "objective %-9s best %s = %.3f"
            % (name, objectives[name]["metric"], objectives[name]["score"])
        )
    findings = report.get("findings", [])
    if findings:
        lines.append("findings: %d" % len(findings))
        for finding in findings:
            lines.append("  %s — %s" % (finding["rule_id"], finding["detail"]))
    else:
        lines.append("findings: none")
    entries = report.get("corpus_entries", [])
    if entries:
        lines.append("corpus entries banked: %d" % len(entries))
        for name in entries:
            lines.append("  %s" % name)
    else:
        lines.append("corpus entries banked: none")
    return "\n".join(lines)
