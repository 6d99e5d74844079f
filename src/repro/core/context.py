"""Allocation-context encoding.

An allocation context is the 32-bit tuple the paper defines in
Section 3: the 16-bit allocation-site identifier (method + bytecode
index, assigned at JIT time) in the high half, and the allocating
thread's 16-bit stack state in the low half.

The bit layout lives in :mod:`repro.heap.header` (it must, because the
context is stored in the object header); this module re-exports the
operations under profiling-centric names.  ROLP trusts a context read
back from a header only when the OLD table knows its site — the
paper's discard-if-not-in-table rule, applied by
:meth:`repro.core.old_table.OldTable.is_known_context`.
"""

from __future__ import annotations

from repro.heap.header import context_site, context_stack_state, pack_context

__all__ = [
    "context_site",
    "context_stack_state",
    "encode",
    "pack_context",
]

#: encode(site_id, stack_state) -> 32-bit context
encode = pack_context
