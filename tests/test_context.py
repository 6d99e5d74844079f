"""Tests for the allocation-context encoding helpers."""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.context import context_site, context_stack_state, encode

u16 = st.integers(min_value=0, max_value=0xFFFF)


class TestEncode:
    @given(site=u16, state=u16)
    def test_roundtrip(self, site, state):
        ctx = encode(site, state)
        assert context_site(ctx) == site
        assert context_stack_state(ctx) == state
