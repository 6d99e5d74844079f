"""POLM2-style offline profiling (the paper's offline baseline).

POLM2 (Bruno & Ferreira, Middleware'17) profiles an application
*offline* and rewrites allocation sites with static pretenuring
decisions.  The paper's Discussion (Section 10) notes NG2C annotations,
POLM2 offline profiles and ROLP online profiles all target the same
collector and can be combined; reproducing POLM2 makes the trade-offs
measurable here:

* **capture** — run the application once under ROLP and export each
  *allocation site's* learned generation as an :class:`OfflineProfile`
  (keyed by method + bytecode index, so it survives across runs);
* **apply** — run again with :class:`OfflineAdviceProfiler`: the static
  per-site decisions are installed at JIT time with *zero* runtime
  profiling cost and zero warmup...
* **...but** a site reached through call paths with different lifetimes
  gets one decision for all paths (the profile is site-keyed, not
  context-keyed), and a workload shift invalidates the profile — the
  two weaknesses that motivate ROLP's online, context-aware design.

Conflicted sites are exported with their *most conservative* (lowest)
generation so the static profile never over-tenures a short-lived path.
"""

from __future__ import annotations

import json
from typing import Dict, Optional, Tuple

from repro.runtime.hooks import NullProfiler
from repro.runtime.method import AllocSite, Method
from repro.runtime.thread import SimThread
from repro.core.context import context_site, encode
from repro.core.profiler import RolpProfiler

#: profile key: (fully qualified method name, bytecode index)
SiteKey = Tuple[str, int]


class OfflineProfile:
    """A static allocation-site → generation profile."""

    def __init__(self, decisions: Optional[Dict[SiteKey, int]] = None) -> None:
        self.decisions: Dict[SiteKey, int] = dict(decisions or {})

    # -- capture ------------------------------------------------------------

    @classmethod
    def capture(cls, profiler: RolpProfiler, vm) -> "OfflineProfile":
        """Export a finished ROLP run's advice as a static profile."""
        by_site_id: Dict[int, int] = {}
        for context, gen in profiler.advice.items():
            site_id = context_site(context)
            current = by_site_id.get(site_id)
            # Site-keyed: different call paths collapse; keep the most
            # conservative decision (POLM2 cannot split paths).
            by_site_id[site_id] = gen if current is None else min(current, gen)

        decisions: Dict[SiteKey, int] = {}
        for site in vm.jit.instrumented_alloc_sites:
            gen = by_site_id.get(site.site_id)
            if gen:
                decisions[(site.method.qualified_name, site.bci)] = gen
        return cls(decisions)

    # -- (de)serialization --------------------------------------------------------

    def dumps(self) -> str:
        return json.dumps(
            [[method, bci, gen] for (method, bci), gen in sorted(self.decisions.items())]
        )

    @classmethod
    def loads(cls, text: str) -> "OfflineProfile":
        return cls({(method, bci): gen for method, bci, gen in json.loads(text)})

    def __len__(self) -> int:
        return len(self.decisions)

    def generation_for_site(self, method_name: str, bci: int) -> int:
        return self.decisions.get((method_name, bci), 0)


class OfflineAdviceProfiler(NullProfiler):
    """Applies a static :class:`OfflineProfile` with no runtime cost.

    Implements just enough of the profiler interface for NG2C to
    consume the advice: contexts are site-only (stack state 0 — offline
    profiles cannot see call paths), no table is maintained, no
    survivor processing happens, and the mutator pays nothing.
    """

    def __init__(self, profile: OfflineProfile) -> None:
        self.profile = profile
        #: site_id -> generation, resolved as methods are compiled
        self._by_site_id: Dict[int, int] = {}
        self.sites_matched = 0
        self.sites_unmatched = 0

    # -- JIT hooks: resolve profile keys to this run's site ids ----------------

    def should_instrument(self, method: Method) -> bool:
        # Sites still need ids so allocations carry a lookup key, but
        # only methods the profile mentions are worth instrumenting.
        return any(
            key[0] == method.qualified_name for key in self.profile.decisions
        )

    def on_method_compiled(self, method: Method) -> None:
        for site in method.alloc_sites.values():
            if not site.site_id:
                continue
            gen = self.profile.generation_for_site(method.qualified_name, site.bci)
            if gen:
                self._by_site_id[site.site_id] = gen
                self.sites_matched += 1
            else:
                self.sites_unmatched += 1

    # -- mutator hooks: free advice, no profiling ------------------------------------

    def allocation_context(self, thread: SimThread, site: AllocSite) -> int:
        if site.site_id in self._by_site_id:
            return encode(site.site_id, 0)
        # Late-compiled sites: resolve lazily.
        gen = self.profile.generation_for_site(site.method.qualified_name, site.bci)
        if gen:
            self._by_site_id[site.site_id] = gen
            self.sites_matched += 1
            return encode(site.site_id, 0)
        return 0

    def sample_allocation(self, site: AllocSite) -> bool:
        return False  # never pay for table updates

    def allocation_advice(self, context: int) -> int:
        return self._by_site_id.get(context_site(context), 0)
