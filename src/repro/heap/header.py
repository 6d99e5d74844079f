r"""64-bit object header model (HotSpot mark word as used by ROLP).

The paper (Figure 2) lays the header out, from the most significant bit
down to the least significant bit, as::

    63 .......... 48 47 .......... 32 31 ...... 7 6 ... 3  2       1..0
    allocation site  thread stack st.  identity    age    biased   lock
                                       hash                -lock   bits
    \------ allocation context ------/

ROLP stores the 32-bit allocation context (16-bit allocation-site
identifier concatenated with the 16-bit thread-stack-state) in the upper
32 bits, which HotSpot otherwise only uses for biased locking.  When an
object becomes biased locked the thread pointer overwrites the context
and the object is discarded for profiling purposes.

The functions in this module are pure bit manipulation on Python ints
masked to 64 bits; they are the single source of truth for the layout and
are exercised heavily by property-based tests.
"""

from __future__ import annotations

MASK_64 = (1 << 64) - 1
MASK_32 = (1 << 32) - 1
MASK_16 = (1 << 16) - 1

# -- bit positions (from Figure 2 of the paper) ----------------------------
LOCK_SHIFT = 0
LOCK_BITS = 2
BIASED_SHIFT = 2          # "bit number 3" in the paper's 1-based numbering
AGE_SHIFT = 3
AGE_BITS = 4
HASH_SHIFT = 7
HASH_BITS = 25
CONTEXT_SHIFT = 32
CONTEXT_BITS = 32
STACK_STATE_SHIFT = 32    # low half of the context
SITE_SHIFT = 48           # high half of the context

LOCK_MASK = ((1 << LOCK_BITS) - 1) << LOCK_SHIFT
BIASED_MASK = 1 << BIASED_SHIFT
AGE_MASK = ((1 << AGE_BITS) - 1) << AGE_SHIFT
HASH_MASK = ((1 << HASH_BITS) - 1) << HASH_SHIFT
CONTEXT_MASK = MASK_32 << CONTEXT_SHIFT

#: Maximum object age representable in the 4 age bits.  HotSpot stops
#: incrementing the age once it reaches this value; ROLP uses it as the
#: number of columns in the Object Lifetime Distribution table.
MAX_AGE = (1 << AGE_BITS) - 1  # 15

#: Number of distinct ages (0..15), i.e. OLD-table columns and NG2C
#: generations.
NUM_AGES = MAX_AGE + 1  # 16


def pack_context(site_id: int, stack_state: int) -> int:
    """Combine a 16-bit allocation-site id and a 16-bit thread stack state
    into the 32-bit allocation context.
    """
    return ((site_id & MASK_16) << 16) | (stack_state & MASK_16)


def context_site(context: int) -> int:
    """Extract the allocation-site identifier from a 32-bit context."""
    return (context >> 16) & MASK_16


def context_stack_state(context: int) -> int:
    """Extract the thread-stack-state half from a 32-bit context."""
    return context & MASK_16


def install_context(header: int, context: int) -> int:
    """Write a 32-bit allocation context into the upper header bits."""
    return ((header & ~CONTEXT_MASK) | ((context & MASK_32) << CONTEXT_SHIFT)) & MASK_64


def extract_context(header: int) -> int:
    """Read the 32-bit allocation context from the upper header bits."""
    return (header >> CONTEXT_SHIFT) & MASK_32


def get_age(header: int) -> int:
    """Read the 4-bit object age."""
    return (header & AGE_MASK) >> AGE_SHIFT


def set_age(header: int, age: int) -> int:
    """Write the 4-bit object age (clamped to ``MAX_AGE``)."""
    age = min(max(age, 0), MAX_AGE)
    return ((header & ~AGE_MASK) | (age << AGE_SHIFT)) & MASK_64


def increment_age(header: int) -> int:
    """Advance the age by one GC cycle, saturating at ``MAX_AGE``."""
    return set_age(header, get_age(header) + 1)


def is_biased_locked(header: int) -> bool:
    """True when the biased-lock bit is set (profiling bits are invalid)."""
    return bool(header & BIASED_MASK)


def bias_lock(header: int, thread_pointer: int) -> int:
    """Bias-lock the object toward a thread.

    HotSpot stores the owning thread's pointer in the upper header bits;
    this *overwrites* any allocation context ROLP installed there, which
    is exactly the profiling-information loss the paper accepts
    (Section 3.2.2).
    """
    header = install_context(header, thread_pointer & MASK_32)
    return (header | BIASED_MASK) & MASK_64


def revoke_bias(header: int) -> int:
    """Clear the biased-lock bit.

    The stale thread pointer is left in the context bits: from the
    profiler's point of view the context is now corrupted and will be
    discarded unless it accidentally matches an OLD-table entry (the rare
    mistaken-reuse scenario described in the paper).
    """
    return header & ~BIASED_MASK & MASK_64


def get_identity_hash(header: int) -> int:
    """Read the 25-bit identity hash field."""
    return (header & HASH_MASK) >> HASH_SHIFT


def set_identity_hash(header: int, value: int) -> int:
    """Write the 25-bit identity hash field."""
    value &= (1 << HASH_BITS) - 1
    return ((header & ~HASH_MASK) | (value << HASH_SHIFT)) & MASK_64


def fresh_header(context: int = 0, age: int = 0) -> int:
    """Build a header for a newly allocated object."""
    header = install_context(0, context)
    if age:
        header = set_age(header, age)
    return header
