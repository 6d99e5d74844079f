"""Replay every banked fuzz-corpus entry (tests/corpus/*.json).

Each entry is a shrunk genome the fuzzer found interesting, pinned with
its seed, op count, backends and check semantics.  Replay runs the
genome under every recorded backend with level-2 verification live and
asserts the entry's contract still holds:

* ``replay-clean`` — no invariant violation, no fingerprint divergence
  (a once-found bug must stay fixed),
* ``max-conflicts`` — clean AND the conflict rate still beats the
  banked kvstore baseline by the acceptance ratio,
* ``accuracy-cliff`` — clean AND the inference-drift cliff still
  reproduces.

Entries bank at a fixed op count (``fuzz.CORPUS_OPS``), so this test's
behaviour does not depend on ``ROLP_BENCH_SCALE``.  To re-bless the
corpus after an intentional behaviour change, see docs/fuzzing.md.
"""

from __future__ import annotations

import os

import pytest

from repro.bench import fuzz
from repro.fastpath import BACKENDS

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")

ENTRIES = fuzz.load_corpus(CORPUS_DIR)


def entry_id(entry):
    return entry["_file"]


@pytest.mark.fuzz
def test_corpus_is_not_empty():
    """The shipped corpus must carry at least the conflict-objective
    winner (the fuzzer's acceptance artifact)."""
    assert ENTRIES, "tests/corpus has no banked entries"
    assert any(entry["check"] == "max-conflicts" for entry in ENTRIES)


@pytest.mark.fuzz
@pytest.mark.parametrize("entry", ENTRIES, ids=entry_id)
def test_corpus_entry_replays(entry):
    outcome = fuzz.replay_corpus_entry(entry)
    assert outcome["ok"], "%s: %s" % (entry["_file"], "; ".join(outcome["problems"]))


@pytest.mark.fuzz
@pytest.mark.parametrize("entry", ENTRIES, ids=entry_id)
def test_corpus_entry_is_well_formed(entry):
    assert entry["schema"] == fuzz.CORPUS_SCHEMA
    assert entry["ops"] == fuzz.CORPUS_OPS
    assert set(entry["backends"]) == set(BACKENDS)
    assert entry["check"] in {"replay-clean", "max-conflicts", "accuracy-cliff"}
    # the filename is the deterministic digest of (rule, genome) — a
    # hand-edited genome would silently detach from its name
    from repro.workloads.adversarial import DemographyGenome

    genome = DemographyGenome.from_dict(entry["genome"])
    assert entry["_file"] == fuzz.corpus_entry_name(entry["rule_id"], genome)
    if entry["check"] == "max-conflicts":
        assert entry["baseline_conflict_rate"] >= fuzz.BASELINE_RATE_FLOOR
