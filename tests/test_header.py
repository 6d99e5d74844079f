"""Unit and property tests for the 64-bit object header bit model."""

from hypothesis import given
from hypothesis import strategies as st

from repro.heap import header as hdr

u16 = st.integers(min_value=0, max_value=0xFFFF)
u25 = st.integers(min_value=0, max_value=(1 << 25) - 1)
u32 = st.integers(min_value=0, max_value=0xFFFF_FFFF)
u64 = st.integers(min_value=0, max_value=(1 << 64) - 1)
ages = st.integers(min_value=0, max_value=hdr.MAX_AGE)


class TestContextPacking:
    def test_pack_layout(self):
        context = hdr.pack_context(0xABCD, 0x1234)
        assert context == 0xABCD_1234

    def test_site_extraction(self):
        assert hdr.context_site(0xABCD_1234) == 0xABCD

    def test_stack_state_extraction(self):
        assert hdr.context_stack_state(0xABCD_1234) == 0x1234

    def test_pack_masks_overflow(self):
        context = hdr.pack_context(0x1_FFFF, 0x2_0001)
        assert hdr.context_site(context) == 0xFFFF
        assert hdr.context_stack_state(context) == 0x0001

    @given(site=u16, state=u16)
    def test_roundtrip(self, site, state):
        context = hdr.pack_context(site, state)
        assert hdr.context_site(context) == site
        assert hdr.context_stack_state(context) == state

    @given(site=u16, state=u16)
    def test_context_fits_32_bits(self, site, state):
        assert 0 <= hdr.pack_context(site, state) <= hdr.MASK_32


class TestHeaderContext:
    def test_install_and_extract(self):
        header = hdr.install_context(0, 0xDEAD_BEEF)
        assert hdr.extract_context(header) == 0xDEAD_BEEF

    def test_install_preserves_low_bits(self):
        header = hdr.set_age(0, 7)
        header = hdr.install_context(header, 0x1234_5678)
        assert hdr.get_age(header) == 7

    @given(header=u64, context=u32)
    def test_install_extract_roundtrip(self, header, context):
        assert hdr.extract_context(hdr.install_context(header, context)) == context

    @given(header=u64, context=u32)
    def test_install_only_touches_upper_bits(self, header, context):
        installed = hdr.install_context(header, context)
        assert installed & hdr.MASK_32 == header & hdr.MASK_32

    def test_fresh_header(self):
        header = hdr.fresh_header(0xCAFE_BABE)
        assert hdr.extract_context(header) == 0xCAFE_BABE
        assert hdr.get_age(header) == 0
        assert not hdr.is_biased_locked(header)

    def test_fresh_header_with_age(self):
        assert hdr.get_age(hdr.fresh_header(0, age=5)) == 5


class TestAge:
    def test_new_object_age_zero(self):
        assert hdr.get_age(0) == 0

    @given(age=ages)
    def test_set_get_roundtrip(self, age):
        assert hdr.get_age(hdr.set_age(0, age)) == age

    def test_set_age_clamps_high(self):
        assert hdr.get_age(hdr.set_age(0, 99)) == hdr.MAX_AGE

    def test_set_age_clamps_negative(self):
        assert hdr.get_age(hdr.set_age(0, -3)) == 0

    def test_increment(self):
        header = hdr.set_age(0, 3)
        assert hdr.get_age(hdr.increment_age(header)) == 4

    def test_increment_saturates(self):
        header = hdr.set_age(0, hdr.MAX_AGE)
        assert hdr.get_age(hdr.increment_age(header)) == hdr.MAX_AGE

    @given(header=u64)
    def test_increment_never_decreases(self, header):
        assert hdr.get_age(hdr.increment_age(header)) >= hdr.get_age(header)

    @given(header=u64, age=ages)
    def test_set_age_preserves_context(self, header, age):
        assert hdr.extract_context(hdr.set_age(header, age)) == hdr.extract_context(
            header
        )

    def test_max_age_is_15(self):
        # 4 age bits, the basis for 16 OLD columns and NG2C generations
        assert hdr.MAX_AGE == 15
        assert hdr.NUM_AGES == 16


class TestBiasedLocking:
    def test_bias_sets_flag(self):
        assert hdr.is_biased_locked(hdr.bias_lock(0, 0x7F001234))

    def test_bias_overwrites_context(self):
        header = hdr.install_context(0, 0xAAAA_BBBB)
        header = hdr.bias_lock(header, 0x7F001234)
        assert hdr.extract_context(header) == 0x7F001234

    def test_revoke_clears_flag_keeps_stale_pointer(self):
        header = hdr.bias_lock(hdr.install_context(0, 0x1111_2222), 0x7F009900)
        revoked = hdr.revoke_bias(header)
        assert not hdr.is_biased_locked(revoked)
        # the stale thread pointer remains: the context is corrupted
        assert hdr.extract_context(revoked) == 0x7F009900

    @given(header=u64, pointer=u32)
    def test_bias_preserves_age(self, header, pointer):
        assert hdr.get_age(hdr.bias_lock(header, pointer)) == hdr.get_age(header)

    def test_bias_bit_is_bit_2(self):
        # the paper's 'bit number 3' in 1-based numbering
        assert hdr.BIASED_MASK == 0b100


class TestIdentityHash:
    @given(value=u25)
    def test_roundtrip(self, value):
        assert hdr.get_identity_hash(hdr.set_identity_hash(0, value)) == value

    @given(header=u64, value=u25)
    def test_does_not_disturb_context_or_age(self, header, value):
        updated = hdr.set_identity_hash(header, value)
        assert hdr.extract_context(updated) == hdr.extract_context(header)
        assert hdr.get_age(updated) == hdr.get_age(header)

    def test_masks_oversized_value(self):
        assert hdr.get_identity_hash(hdr.set_identity_hash(0, 1 << 30)) == 0


class TestFieldDisjointness:
    def test_field_masks_do_not_overlap(self):
        masks = [hdr.LOCK_MASK, hdr.BIASED_MASK, hdr.AGE_MASK, hdr.HASH_MASK, hdr.CONTEXT_MASK]
        for i, a in enumerate(masks):
            for b in masks[i + 1:]:
                assert a & b == 0

    def test_all_64_bits_accounted(self):
        combined = (
            hdr.LOCK_MASK
            | hdr.BIASED_MASK
            | hdr.AGE_MASK
            | hdr.HASH_MASK
            | hdr.CONTEXT_MASK
        )
        # bits 0..31 fully covered except none; the full header is 64 bits
        assert combined <= hdr.MASK_64
