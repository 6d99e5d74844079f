"""Global switch for the hot-path execution backends.

The performance pass (see docs/performance.md) keeps every optimised
hot path next to its original *reference* implementation: components
capture the switch at construction time and choose one or the other.
The differential equivalence suite (tests/test_perf_equivalence.py) and
the ``rolp-bench perf`` kernels run both backends against each other
and assert byte-identical behaviour, so the fast paths can default to
on without moving any rendered figure or table.

Two backends exist:

* ``"reference"`` — the original, maximally readable implementations;
* ``"fast"`` — the inlined twins (``FastExecutionContext``, interned
  allocation contexts, batched survivor profiling and OLD-table merges,
  the generational copy loops).

Semantics:

* ``ROLP_BACKEND=reference|fast`` selects the backend for the whole
  process; unset, it is ``"fast"``.
* :func:`set_backend` flips the process-wide default at runtime and
  returns the previous value; only components constructed *after* the
  flip observe it (VMs, profilers, collectors and OLD tables capture
  the switch in ``__init__``), which keeps a running simulation on one
  consistent implementation.
"""

from __future__ import annotations

import os

#: the recognised execution backends, slowest first
BACKENDS = ("reference", "fast")


def _initial_backend() -> str:
    name = os.environ.get("ROLP_BACKEND") or "fast"
    if name not in BACKENDS:
        raise ValueError(
            "ROLP_BACKEND=%r is not one of %s" % (name, ", ".join(BACKENDS))
        )
    return name


#: process-wide default, captured by components at construction time
BACKEND: str = _initial_backend()


def backend() -> str:
    """The current process-wide execution backend."""
    return BACKEND


def set_backend(name: str) -> str:
    """Set the process-wide backend; returns the previous value.

    Tests and the perf kernels toggle this around VM construction to run
    the backends against each other.
    """
    if name not in BACKENDS:
        raise ValueError("unknown backend %r (expected one of %s)" % (name, BACKENDS))
    global BACKEND
    previous = BACKEND
    BACKEND = name
    return previous


def fast_paths_enabled() -> bool:
    """Whether the optimised backend is selected."""
    return BACKEND != "reference"
