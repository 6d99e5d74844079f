"""Method, allocation-site and call-site models.

A :class:`Method` stands in for a Java method: it has a fully qualified
class (so package filters work), a bytecode size (so the inlining policy
works), and a *body* — a Python callable executed by the interpreter.
The body receives an :class:`~repro.runtime.interpreter.ExecutionContext`
and performs allocations and calls through it, which is what lets the
VM interpose JIT/profiling behaviour.

Sites (allocation sites and call sites) are identified by a bytecode
index (``bci``) chosen by the body author; the pair ``(method, bci)`` is
the stable identity, mirroring the paper's "method m, bytecode index i".
Site records are created on first execution; *profiling identifiers* are
only assigned when the method is JIT compiled (ROLP instruments hot code
only).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Set


class AllocSite:
    """One ``new`` bytecode in a method.

    ``site_id`` is the 16-bit allocation-site identifier assigned at JIT
    time when the owning method is instrumented; 0 means unprofiled
    (cold code, filtered package, or id space exhausted).
    """

    __slots__ = ("method", "bci", "site_id", "alloc_count")

    def __init__(self, method: "Method", bci: int) -> None:
        self.method = method
        self.bci = bci
        self.site_id = 0
        #: total objects allocated through this site (simulator statistic)
        self.alloc_count = 0

    @property
    def profiled(self) -> bool:
        return self.site_id != 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "AllocSite(%s@%d, id=%d)" % (self.method.name, self.bci, self.site_id)


class CallSite:
    """One ``invoke*`` bytecode in a method.

    At JIT time, a non-inlined call site in an instrumented method is
    given a random non-zero 16-bit ``increment``.  When the site's
    profiling is *enabled* (by the conflict-resolution algorithm), the
    executing thread adds the increment to its stack state before the
    call and subtracts it after — the paper's add/sub slow path.  When
    disabled, only the cheap fast-branch check is paid.
    """

    __slots__ = (
        "method",
        "bci",
        "increment",
        "enabled",
        "inlined",
        "targets",
        "invocations",
    )

    def __init__(self, method: "Method", bci: int) -> None:
        self.method = method
        self.bci = bci
        self.increment = 0
        self.enabled = False
        self.inlined = False
        #: distinct callee methods observed (polymorphism detection)
        self.targets: Set["Method"] = set()
        self.invocations = 0

    @property
    def instrumented(self) -> bool:
        """Whether profiling code was installed (jitted, not inlined)."""
        return self.increment != 0 and not self.inlined

    @property
    def polymorphic(self) -> bool:
        return len(self.targets) > 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "CallSite(%s@%d, inc=%d, %s)" % (
            self.method.name,
            self.bci,
            self.increment,
            "on" if self.enabled else "off",
        )


class Method:
    """A simulated JVM method.

    Parameters
    ----------
    name:
        Simple method name (e.g. ``"put"``).
    klass:
        Fully qualified class name (e.g.
        ``"org.apache.cassandra.db.Memtable"``); package filters match
        against its package prefix.
    body:
        ``body(ctx, *args)`` — executed by the interpreter.
    bytecode_size:
        Size proxy used by the JIT inlining policy.
    """

    __slots__ = (
        "name",
        "klass",
        "body",
        "bytecode_size",
        "invocations",
        "compiled",
        "instrumented",
        "alloc_sites",
        "call_sites",
        "osr_eligible",
    )

    def __init__(
        self,
        name: str,
        klass: str,
        body: Callable,
        bytecode_size: int = 50,
        osr_eligible: bool = False,
    ) -> None:
        self.name = name
        self.klass = klass
        self.body = body
        self.bytecode_size = bytecode_size
        self.invocations = 0
        #: JIT compiled (hot) — profiling code can only live in jitted code
        self.compiled = False
        #: profiling code actually installed (compiled + filter passed)
        self.instrumented = False
        self.alloc_sites: Dict[int, AllocSite] = {}
        self.call_sites: Dict[int, CallSite] = {}
        #: long-running loopy method: subject to on-stack replacement
        self.osr_eligible = osr_eligible

    @property
    def package(self) -> str:
        """Package part of the fully qualified class name."""
        head, _, _ = self.klass.rpartition(".")
        return head

    @property
    def qualified_name(self) -> str:
        return "%s.%s" % (self.klass, self.name)

    def alloc_site(self, bci: int) -> AllocSite:
        """Get-or-create the allocation site at ``bci``."""
        return alloc_site_of(self, bci)

    def call_site(self, bci: int) -> CallSite:
        """Get-or-create the call site at ``bci``."""
        return call_site_of(self, bci)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Method(%s%s)" % (
            self.qualified_name,
            " [jit]" if self.compiled else "",
        )


# -- shared site get-or-create fast helpers ---------------------------------
#
# The single source of truth for first-execution site creation.  Every
# execution backend (reference via Method.call_site/alloc_site, the
# inlined FastExecutionContext bodies) resolves sites through these, so
# the creation semantics — and, critically, the site *insertion order*,
# which fixes the JIT's site-id and increment-RNG assignment order —
# cannot drift between backends.  Module-level functions keep the hot call one plain
# LOAD_GLOBAL away instead of a bound-method construction.

def alloc_site_of(method: "Method", bci: int) -> AllocSite:
    """Get-or-create ``method``'s allocation site at ``bci``."""
    sites = method.alloc_sites
    site = sites.get(bci)
    if site is None:
        site = AllocSite(method, bci)
        sites[bci] = site
    return site


def call_site_of(method: "Method", bci: int) -> CallSite:
    """Get-or-create ``method``'s call site at ``bci``."""
    sites = method.call_sites
    site = sites.get(bci)
    if site is None:
        site = CallSite(method, bci)
        sites[bci] = site
    return site
