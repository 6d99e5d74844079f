"""Simulated application threads.

Each thread carries the 16-bit *thread stack state* register the paper
keeps in thread-local storage: before an enabled call site transfers
control, the site's unique increment is added to the register; after the
call returns, it is subtracted.  Two different call paths to the same
allocation site therefore (very likely) produce two different register
values, which is what disambiguates allocation contexts.

The thread also keeps an explicit frame stack mirroring the Python call
stack so that the VM can *recompute* the expected stack state at a GC
safepoint (the paper's defence against on-stack-replacement corrupting
the incrementally maintained value, Section 7.2.3).

A frame is the tuple ``(method, via_site, contributed)``: the method,
the caller's call site that entered it (None for roots), and the
increment added to the stack state on entry (0 when the site was not
enabled).  The fast execution context pushes and pops it inline.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.heap.header import MASK_16
from repro.runtime.method import CallSite, Method


class SimThread:
    """A simulated mutator thread."""

    def __init__(self, thread_id: int, name: str = "") -> None:
        self.thread_id = thread_id
        self.name = name or ("worker-%d" % thread_id)
        #: the paper's thread-local 16-bit stack state register
        self.stack_state = 0
        self.frames: List[Tuple[Method, Optional[CallSite], int]] = []
        #: objects this thread has bias-locked (for lock bookkeeping)
        self.biased_objects = 0
        #: statistic: stack-state corruptions repaired at safepoints
        self.state_repairs = 0

    # -- stack-state maintenance -----------------------------------------------

    def push_frame(self, method: Method, via_site: Optional[CallSite], increment: int) -> None:
        """Enter a method; apply the call-site increment (16-bit wrap)."""
        if increment:
            self.stack_state = (self.stack_state + increment) & MASK_16
        self.frames.append((method, via_site, increment))

    def pop_frame(self, repair: bool = True) -> None:
        """Leave the top method; undo its contribution.

        ``repair=False`` models the unhandled-exception unwind *without*
        ROLP's rethrow hook: the subtraction is skipped and the register
        is left corrupted (until the next safepoint verification).
        """
        if not self.frames:
            raise RuntimeError("thread %s: pop on empty stack" % self.name)
        contributed = self.frames.pop()[2]
        if repair and contributed:
            self.stack_state = (self.stack_state - contributed) & MASK_16

    def expected_stack_state(self) -> int:
        """Recompute the register from the live frames (ground truth)."""
        total = 0
        for _method, _via_site, contributed in self.frames:
            total = (total + contributed) & MASK_16
        return total

    def verify_and_repair(self) -> bool:
        """Safepoint verification (paper §7.2.3).

        Walks the stack, recomputes the expected state, and repairs the
        register if OSR or an unhooked unwind corrupted it.  Returns
        True when a repair was needed.
        """
        expected = self.expected_stack_state()
        if expected != self.stack_state:
            self.stack_state = expected
            self.state_repairs += 1
            return True
        return False

    @property
    def current_method(self) -> Optional[Method]:
        return self.frames[-1][0] if self.frames else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "SimThread(%s, state=0x%04x, depth=%d)" % (
            self.name,
            self.stack_state,
            len(self.frames),
        )
