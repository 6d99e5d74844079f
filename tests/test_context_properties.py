"""Property tests for the header arithmetic simulations actually run.

They pin the copies inlined in ``SimObject.__init__`` and
``SimObject.grow_older`` to :func:`~repro.heap.header.fresh_header` and
:func:`~repro.heap.header.increment_age` over the whole input domain,
not just the inputs the workloads happen to draw.  (A context read back
from a header is trusted only when the OLD table knows its site:
:meth:`repro.core.old_table.OldTable.is_known_context`.)
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.heap import header as hdr
from repro.heap.object_model import IMMORTAL, SimObject

u32 = st.integers(min_value=0, max_value=hdr.MASK_32)
u64 = st.integers(min_value=0, max_value=hdr.MASK_64)
ages = st.integers(min_value=0, max_value=hdr.MAX_AGE)


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
