"""Allocation-context conflict resolution (paper Section 5).

When inference sees a multi-triangle curve, the same allocation site is
being reached through call paths with different object lifetimes.  The
fix is to enable thread-stack-state tracking on enough call sites to
split those paths into distinct contexts — but tracking every call is
too expensive, so ROLP searches for a small sufficient set iteratively:

1. at startup no call site is tracked;
2. on a conflict, a random subset of P% of the jitted call sites starts
   tracking;
3. at the next inference pass: if the conflict disappeared, the minimal
   set S is inside the enabled subset — start *narrowing* (turning
   tracked calls back off while the conflict stays resolved); if the
   conflict persists, try a fresh random subset (never repeating call
   sites) until the sites are exhausted or the conflict resolves.

The algorithm converges in time linear in (jitted call sites / P) times
the 16-GC-cycle inference period — the predictability property Figure 7
quantifies via :func:`worst_case_resolution_ns`.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Set

from repro.runtime.method import CallSite
from repro.telemetry import NULL_TELEMETRY


def worst_case_resolution_ns(
    num_call_sites: int,
    p_fraction: float,
    inference_period_gcs: int,
    avg_gc_interval_ns: float,
) -> float:
    """Worst-case time to resolve one conflict (Figure 7's model).

    The search tries disjoint random subsets of ``p_fraction`` of the
    call sites, one per inference pass; exhausting all sites takes
    ``ceil(1 / p_fraction)`` passes of ``inference_period_gcs`` GC
    cycles each.
    """
    if num_call_sites <= 0:
        return 0.0
    if not 0.0 < p_fraction <= 1.0:
        raise ValueError("P must be a fraction in (0, 1]")
    subset = max(1, int(num_call_sites * p_fraction))
    rounds = -(-num_call_sites // subset)  # ceil division
    return rounds * inference_period_gcs * avg_gc_interval_ns


class _Resolution:
    """Search state for one conflicted allocation site."""

    __slots__ = (
        "site_id",
        "tried",
        "enabled",
        "narrowing",
        "confirmed",
        "pool",
        "trial_disabled",
        "rounds",
        "done",
    )

    def __init__(self, site_id: int) -> None:
        self.site_id = site_id
        #: call sites already tried in failed subsets
        self.tried: Set[CallSite] = set()
        #: currently enabled (for this resolution) call sites
        self.enabled: List[CallSite] = []
        #: narrowing phase: conflict resolved, minimizing the set
        self.narrowing = False
        #: narrowing: sites proven necessary (disabling them revived the
        #: conflict) — they stay enabled
        self.confirmed: List[CallSite] = []
        #: narrowing: sites not yet proven either way
        self.pool: List[CallSite] = []
        #: narrowing: the half switched off in the current trial
        self.trial_disabled: List[CallSite] = []
        self.rounds = 0
        self.done = False

    def keep_enabled(self) -> List[CallSite]:
        """The final tracking set once the search is done."""
        return self.confirmed + self.pool if self.narrowing else list(self.enabled)


class ConflictResolver:
    """Iterative minimal-tracking-set search across all conflicts.

    Parameters
    ----------
    p_fraction:
        Fraction of jitted call sites enabled per attempt (the paper
        recommends at most 20%).
    min_set_size:
        Narrowing stops when the enabled set is this small.
    """

    def __init__(
        self,
        p_fraction: float = 0.20,
        min_set_size: int = 2,
        seed: int = 0x5E7,
    ) -> None:
        if not 0.0 < p_fraction <= 1.0:
            raise ValueError("P must be a fraction in (0, 1]")
        self.p_fraction = p_fraction
        self.min_set_size = min_set_size
        self._rng = random.Random(seed)
        #: reference counts: how many active searches currently hold a
        #: call site enabled.  Searches run in parallel (one per
        #: conflicted allocation site) and may sample overlapping
        #: subsets; without refcounting, one search's failed-subset
        #: cleanup would switch off a site another search still needs.
        self._holds: Dict[CallSite, int] = {}
        #: sites kept permanently enabled by finished searches (the
        #: minimal sets S): never disabled again.
        self.pinned: Set[CallSite] = set()
        #: active searches, keyed by allocation-site id
        self.active: Dict[int, _Resolution] = {}
        #: site ids whose conflicts were resolved (minimal set found)
        self.resolved_sites: Set[int] = set()
        #: site ids whose conflict no call-path split can explain (every
        #: subset was tried without effect): the lifetime really is
        #: multi-modal at one call path.  The profiler falls back to a
        #: conservative per-curve estimate for these.
        self.given_up_sites: Set[int] = set()
        self.conflicts_seen = 0
        self.subsets_tried = 0
        self.bind_telemetry(NULL_TELEMETRY)

    def bind_telemetry(self, telemetry) -> None:
        """Attach tracing + metrics (the profiler wires this through)."""
        self._tracer = telemetry.tracer
        metrics = telemetry.metrics
        self._m_started = metrics.counter(
            "rolp_conflicts_total", "Conflict-resolution searches started"
        )
        self._m_resolved = metrics.counter(
            "rolp_conflicts_resolved_total", "Searches that found a tracking set"
        )
        self._m_given_up = metrics.counter(
            "rolp_conflicts_given_up_total",
            "Searches exhausted without splitting the curve",
        )
        self._m_subsets = metrics.counter(
            "rolp_conflict_subsets_tried_total", "Random P-subsets enabled"
        )

    # -- effective P under parallel conflicts ------------------------------------

    def effective_p(self) -> float:
        """P is divided across concurrent resolutions so the aggregate
        tracking overhead stays bounded (paper: 'P should be adjusted
        (reduced) as the number of parallel conflicts may increase')."""
        concurrent = max(1, len(self.active))
        return self.p_fraction / concurrent

    # -- the per-inference-pass step -----------------------------------------------

    def on_inference(
        self,
        conflicted_sites: Set[int],
        jitted_call_sites: Sequence[CallSite],
    ) -> None:
        """Advance every search given this pass's conflict observations."""
        # 1. New conflicts start a search.
        for site_id in conflicted_sites:
            if site_id not in self.active and site_id not in self.resolved_sites:
                self.conflicts_seen += 1
                self.active[site_id] = _Resolution(site_id)
                self._m_started.inc()
                if self._tracer.enabled:
                    self._tracer.instant(
                        "rolp/conflict-start", category="rolp", site_id=site_id
                    )

        # 2. Advance active searches.
        finished: List[int] = []
        for site_id, search in self.active.items():
            still_conflicted = site_id in conflicted_sites
            self._advance(search, still_conflicted, jitted_call_sites)
            if search.done:
                finished.append(site_id)
        for site_id in finished:
            search = self.active[site_id]
            given_up = site_id in self.given_up_sites
            (self._m_given_up if given_up else self._m_resolved).inc()
            if self._tracer.enabled:
                self._tracer.instant(
                    "rolp/conflict-resolved",
                    category="rolp",
                    site_id=site_id,
                    rounds=search.rounds,
                    tracked_sites=len(search.keep_enabled()),
                    given_up=given_up,
                )
            self.resolved_sites.add(site_id)
            del self.active[site_id]

    def _advance(
        self,
        search: _Resolution,
        still_conflicted: bool,
        jitted_call_sites: Sequence[CallSite],
    ) -> None:
        search.rounds += 1
        if search.narrowing:
            self._narrow(search, still_conflicted)
            return
        if search.enabled and not still_conflicted:
            # The enabled subset contains S: start narrowing.
            search.narrowing = True
            search.confirmed = []
            search.pool = list(search.enabled)
            search.trial_disabled = []
            self._narrow(search, still_conflicted=False)
            return
        # Either first round or the previous subset failed: pick fresh.
        self._disable(search.enabled)
        search.tried.update(search.enabled)
        search.enabled = []
        candidates = [
            s for s in jitted_call_sites if s not in search.tried and not s.inlined
        ]
        if not candidates:
            # Exhausted: no call-site subset splits this curve — the
            # context is genuinely multi-modal.  Give up; the advice
            # layer falls back to a conservative estimate.
            search.done = True
            self.given_up_sites.add(search.site_id)
            return
        subset_size = max(1, int(len(jitted_call_sites) * self.effective_p()))
        subset_size = min(subset_size, len(candidates))
        search.enabled = self._rng.sample(candidates, subset_size)
        self._enable(search.enabled)
        self.subsets_tried += 1
        self._m_subsets.inc()

    def _narrow(self, search: _Resolution, still_conflicted: bool) -> None:
        """Turn tracked calls back off while the conflict stays gone.

        Sites live in three buckets: ``confirmed`` (disabling them
        revived the conflict — they must stay on), ``pool`` (still
        undetermined, currently on), ``trial_disabled`` (the half
        switched off for the current trial).
        """
        if still_conflicted:
            # The trial half contained part of S: bring it back and pin
            # it (conservative — we pin the whole half rather than
            # bisecting it further, trading minimality for convergence).
            self._enable(search.trial_disabled)
            search.confirmed.extend(search.trial_disabled)
            search.trial_disabled = []
        else:
            # The trial half was unnecessary; it stays off for good.
            search.trial_disabled = []

        total_on = len(search.confirmed) + len(search.pool)
        if not search.pool or total_on <= self.min_set_size:
            search.done = True
            search.enabled = search.confirmed + search.pool
            self._pin(search.enabled)
            return

        half = max(1, len(search.pool) // 2)
        search.trial_disabled = search.pool[half:]
        search.pool = search.pool[:half]
        self._disable(search.trial_disabled)
        if not search.trial_disabled:
            search.done = True
            search.enabled = search.confirmed + search.pool
            self._pin(search.enabled)

    # -- switch plumbing -----------------------------------------------------------------

    def _enable(self, sites: Sequence[CallSite]) -> None:
        for site in sites:
            self._holds[site] = self._holds.get(site, 0) + 1
            site.enabled = True

    def _disable(self, sites: Sequence[CallSite]) -> None:
        for site in sites:
            count = self._holds.get(site, 0) - 1
            if count > 0:
                self._holds[site] = count
            else:
                self._holds.pop(site, None)
            site.enabled = site in self.pinned or self._holds.get(site, 0) > 0

    def _pin(self, sites: Sequence[CallSite]) -> None:
        """Keep a finished search's minimal set enabled forever."""
        for site in sites:
            self.pinned.add(site)
            site.enabled = True
