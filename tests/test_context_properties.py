"""Property tests for :func:`repro.core.context.is_plausible` and the
optimised header helpers' reference twins.

``is_plausible`` guards every context read back from an object header:
it must reject anything that cannot have come from ``encode`` — site id
0, zero, negatives, and (the historical bug) values wider than 32 bits,
which would otherwise alias the context sharing their low 32 bits.

The header section pins the header arithmetic simulations actually
run — the copies inlined in ``SimObject.__init__`` and
``SimObject.grow_older`` — to :func:`~repro.heap.header.fresh_header`
and :func:`~repro.heap.header.increment_age` over the whole input
domain, not just the inputs the workloads happen to draw.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.core import context as ctx
from repro.heap import header as hdr
from repro.heap.object_model import IMMORTAL, SimObject

u16 = st.integers(min_value=0, max_value=0xFFFF)
u32 = st.integers(min_value=0, max_value=hdr.MASK_32)
u64 = st.integers(min_value=0, max_value=hdr.MASK_64)
wide = st.integers(min_value=hdr.MASK_32 + 1, max_value=1 << 80)
non_positive = st.integers(min_value=-(1 << 80), max_value=0)
ages = st.integers(min_value=0, max_value=hdr.MAX_AGE)


class TestIsPlausible:
    @given(site=st.integers(min_value=1, max_value=0xFFFF), state=u16)
    def test_every_encoded_context_with_nonzero_site_is_plausible(
        self, site, state
    ):
        assert ctx.is_plausible(ctx.encode(site, state))

    @given(state=u16)
    def test_site_zero_is_never_plausible(self, state):
        assert not ctx.is_plausible(ctx.encode(0, state))

    @given(value=wide)
    def test_values_wider_than_32_bits_are_rejected(self, value):
        """The regression this suite exists for: a 33+-bit value used to
        be accepted whenever its low 32 bits looked like a context."""
        assert not ctx.is_plausible(value)

    @given(value=wide)
    def test_wide_value_rejected_even_when_low_half_is_plausible(self, value):
        plausible_low = (value & hdr.MASK_32) | (1 << 16)
        widened = (value & ~hdr.MASK_32) | plausible_low
        assert ctx.is_plausible(plausible_low)
        assert not ctx.is_plausible(widened)

    @given(value=non_positive)
    def test_zero_and_negatives_are_rejected(self, value):
        assert not ctx.is_plausible(value)

    @given(value=st.integers(min_value=-(1 << 80), max_value=1 << 80))
    def test_matches_structural_definition(self, value):
        expected = 0 < value <= hdr.MASK_32 and ctx.context_site(value) != 0
        assert ctx.is_plausible(value) == expected

    @given(site=st.integers(min_value=1, max_value=0xFFFF))
    def test_site_base_context_is_plausible(self, site):
        assert ctx.is_plausible(ctx.site_base_context(site))


def _grown_older(header):
    obj = SimObject(64, 0)
    obj.header = header
    obj.grow_older()
    return obj.header


class TestHeaderFastReferenceEquivalence:
    @given(header=u64)
    def test_increment_age_matches_reference(self, header):
        assert _grown_older(header) == hdr.increment_age(header)

    @given(header=u64)
    def test_increment_age_saturates_at_max_age(self, header):
        saturated = hdr.set_age(header, hdr.MAX_AGE)
        assert _grown_older(saturated) == saturated

    @given(context=u32)
    def test_fresh_header_matches_reference(self, context):
        obj = SimObject(64, 0, IMMORTAL, context)
        assert obj.header == hdr.fresh_header(context)

    @given(context=u32, age=ages)
    def test_fresh_header_fields_read_back(self, context, age):
        header = hdr.fresh_header(context, age)
        assert hdr.extract_context(header) == context
        assert hdr.get_age(header) == age
