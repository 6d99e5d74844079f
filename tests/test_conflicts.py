"""Tests for the conflict-resolution search."""

import pytest

from repro.core.conflicts import ConflictResolver, worst_case_resolution_ns
from repro.runtime.method import Method


def make_sites(n):
    method = Method("m", "pkg.Cls", lambda ctx: None)
    sites = []
    for i in range(n):
        site = method.call_site(i)
        site.increment = i + 1
        sites.append(site)
    return sites


class TestWorstCaseModel:
    def test_linear_in_inverse_p(self):
        t20 = worst_case_resolution_ns(100, 0.20, 16, 1e6)
        t10 = worst_case_resolution_ns(100, 0.10, 16, 1e6)
        assert t10 == pytest.approx(2 * t20)

    def test_formula(self):
        # 100 sites, P=20% -> subsets of 20 -> 5 rounds of 16 GCs
        assert worst_case_resolution_ns(100, 0.20, 16, 1e6) == 5 * 16 * 1e6

    def test_zero_sites(self):
        assert worst_case_resolution_ns(0, 0.2, 16, 1e6) == 0.0

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            worst_case_resolution_ns(10, 0.0, 16, 1e6)
        with pytest.raises(ValueError):
            worst_case_resolution_ns(10, 1.5, 16, 1e6)

    def test_p_one_single_round(self):
        assert worst_case_resolution_ns(64, 1.0, 16, 1e6) == 16 * 1e6


class TestSearchLifecycle:
    def test_startup_nothing_profiled(self):
        sites = make_sites(10)
        ConflictResolver()
        assert not any(s.enabled for s in sites)

    def test_conflict_enables_subset(self):
        sites = make_sites(10)
        resolver = ConflictResolver(p_fraction=0.2)
        resolver.on_inference({1}, sites)
        enabled = [s for s in sites if s.enabled]
        assert len(enabled) == 2  # 20% of 10
        assert resolver.conflicts_seen == 1

    def test_resolution_keeps_minimal_set_pinned(self):
        sites = make_sites(10)
        resolver = ConflictResolver(p_fraction=0.2, min_set_size=2)
        resolver.on_inference({1}, sites)
        # next pass: conflict gone -> subset contained S -> narrow/pin
        resolver.on_inference(set(), sites)
        assert 1 in resolver.resolved_sites
        assert resolver.pinned
        assert all(s.enabled for s in resolver.pinned)

    def test_failed_subset_tries_fresh_sites(self):
        sites = make_sites(10)
        resolver = ConflictResolver(p_fraction=0.2)
        resolver.on_inference({1}, sites)
        first = {s for s in sites if s.enabled}
        resolver.on_inference({1}, sites)  # conflict persists
        second = {s for s in sites if s.enabled}
        assert first.isdisjoint(second)

    def test_exhaustion_gives_up(self):
        sites = make_sites(4)
        resolver = ConflictResolver(p_fraction=0.25)  # 1 site per round
        for _ in range(6):
            resolver.on_inference({1}, sites)
        assert 1 in resolver.given_up_sites
        assert 1 in resolver.resolved_sites
        assert 1 not in resolver.active
        # everything tried was turned back off
        assert not any(s.enabled for s in sites)

    def test_inlined_sites_never_sampled(self):
        sites = make_sites(4)
        for s in sites[:3]:
            s.inlined = True
        resolver = ConflictResolver(p_fraction=1.0)
        resolver.on_inference({1}, sites)
        assert not any(s.enabled for s in sites[:3])

    def test_resolved_site_not_restarted(self):
        sites = make_sites(10)
        resolver = ConflictResolver(p_fraction=0.2)
        resolver.on_inference({1}, sites)
        resolver.on_inference(set(), sites)
        assert 1 in resolver.resolved_sites
        count = resolver.conflicts_seen
        resolver.on_inference({1}, sites)  # stale flag: ignored
        assert resolver.conflicts_seen == count


class TestParallelSearches:
    def test_effective_p_shrinks_with_parallel_conflicts(self):
        sites = make_sites(40)
        resolver = ConflictResolver(p_fraction=0.2)
        resolver.on_inference({1, 2}, sites)
        assert resolver.effective_p() == pytest.approx(0.1)

    def test_searches_do_not_clobber_each_other(self):
        """One search's failed-subset cleanup must not switch off a site
        another search keeps pinned (reference counting)."""
        sites = make_sites(3)
        resolver = ConflictResolver(p_fraction=1.0, min_set_size=1)
        # site 1's search: enables all, conflict resolves -> narrowing
        resolver.on_inference({1}, sites)
        for _ in range(5):
            resolver.on_inference(set(), sites)
        assert 1 in resolver.resolved_sites
        kept = {s for s in sites if s.enabled}
        assert kept  # the pinned minimal set
        # site 2's search now churns through subsets and fails
        for _ in range(6):
            resolver.on_inference({2}, sites)
        # the pinned set survived the other search's cleanup
        assert all(s.enabled for s in kept)

    def test_multiple_conflicts_tracked_independently(self):
        sites = make_sites(30)
        resolver = ConflictResolver(p_fraction=0.2)
        resolver.on_inference({1, 2, 3}, sites)
        assert set(resolver.active) == {1, 2, 3}
        resolver.on_inference(set(), sites)
        assert resolver.resolved_sites >= {1, 2, 3}


class TestNarrowing:
    def test_narrowing_reaches_min_set(self):
        sites = make_sites(20)
        resolver = ConflictResolver(p_fraction=1.0, min_set_size=2)
        resolver.on_inference({1}, sites)
        assert sum(s.enabled for s in sites) == 20
        for _ in range(10):
            resolver.on_inference(set(), sites)
            if 1 in resolver.resolved_sites:
                break
        assert 1 in resolver.resolved_sites
        assert sum(s.enabled for s in sites) <= 2

    def test_narrowing_reenables_needed_half(self):
        sites = make_sites(8)
        resolver = ConflictResolver(p_fraction=1.0, min_set_size=1)
        resolver.on_inference({1}, sites)       # all 8 on
        resolver.on_inference(set(), sites)     # resolve -> disable half
        trial_disabled = {s for s in sites if not s.enabled}
        assert trial_disabled
        # conflict returns: the disabled half contained S -> it is
        # brought back and pinned as confirmed-necessary
        resolver.on_inference({1}, sites)
        search = resolver.active[1]
        assert set(search.confirmed) == trial_disabled
        assert all(s.enabled for s in search.confirmed)

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            ConflictResolver(p_fraction=0.0)
