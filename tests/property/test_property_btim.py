"""BTIM (ID 201) partial-virtual-bitmap round-trip over the full AID
space.

Hypothesis drives random AID sets across 1..2007 (including adversarial
shapes: empty, a single maximal AID, dense low ranges) through
encode -> decode; the set must survive exactly. The bitmap offset
compression is the part most likely to corrupt sparse high-AID sets,
so the strategies bias toward the extremes.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dot11 import pvb
from repro.dot11.elements.btim import BtimElement

aid_sets = st.sets(
    st.integers(min_value=1, max_value=pvb.MAX_AID), max_size=64
)

# Sparse-high sets: few AIDs clustered at the top of the space, where
# the offset compression does the most work.
high_aid_sets = st.sets(
    st.integers(min_value=pvb.MAX_AID - 32, max_value=pvb.MAX_AID), max_size=8
)


class TestBtimRoundTrip:
    @given(aid_sets)
    @settings(max_examples=200)
    @example(set())                      # all-zero bitmap
    @example({pvb.MAX_AID})              # single highest AID
    @example({1})                        # single lowest AID
    @example({1, pvb.MAX_AID})           # both extremes at once
    @example(set(range(1, 65)))          # dense low block
    def test_payload_round_trip(self, aids):
        element = BtimElement(frozenset(aids))
        decoded = BtimElement.from_payload(element.payload_bytes())
        assert decoded.aids_with_useful_broadcast == frozenset(aids)

    @given(high_aid_sets)
    @settings(max_examples=100)
    def test_sparse_high_aids_round_trip(self, aids):
        element = BtimElement(frozenset(aids))
        decoded = BtimElement.from_payload(element.payload_bytes())
        assert decoded.aids_with_useful_broadcast == frozenset(aids)

    @given(aid_sets)
    @settings(max_examples=100)
    def test_membership_queries_survive_the_wire(self, aids):
        decoded = BtimElement.from_payload(
            BtimElement(frozenset(aids)).payload_bytes()
        )
        for aid in aids:
            assert decoded.indicates_useful_broadcast_for(aid)
        for probe in (1, pvb.MAX_AID // 2, pvb.MAX_AID):
            assert decoded.indicates_useful_broadcast_for(probe) == (
                probe in aids
            )

    @given(high_aid_sets)
    @settings(max_examples=50)
    def test_offset_compression_shrinks_high_sets(self, aids):
        """Sanity on the mechanism itself: a set clustered at the top
        must not serialize the ~250 leading zero bytes."""
        payload = BtimElement(frozenset(aids)).payload_bytes()
        if aids:
            assert len(payload) < 40
