import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dot11 import pvb
from repro.errors import FrameEncodeError
from tests.dot11.pvb_oracle import aid_is_set, expand_bitmap


def reference_compress(bitmap: bytes):
    """The octet-by-octet scan :func:`pvb.compress_bitmap` replaced."""
    if len(bitmap) > pvb.FULL_BITMAP_OCTETS:
        raise FrameEncodeError("virtual bitmap too long")
    first = None
    last = None
    for index, octet in enumerate(bitmap):
        if octet:
            if first is None:
                first = index
            last = index
    if first is None:
        return 0, b"\x00"
    offset = first - (first % 2)
    return offset, bytes(bitmap[offset : last + 1])


def bitmap_with(octets) -> bytes:
    bitmap = bytearray(pvb.FULL_BITMAP_OCTETS)
    for index, value in octets.items():
        bitmap[index] = value
    return bytes(bitmap)


class TestBuildBitmap:
    def test_empty(self):
        bitmap = pvb.build_virtual_bitmap([])
        assert all(b == 0 for b in bitmap)
        assert len(bitmap) == pvb.FULL_BITMAP_OCTETS

    def test_aid_one_is_bit_one_of_octet_zero(self):
        bitmap = pvb.build_virtual_bitmap([1])
        assert bitmap[0] == 0b10

    def test_aid_eight_starts_octet_one(self):
        bitmap = pvb.build_virtual_bitmap([8])
        assert bitmap[0] == 0 and bitmap[1] == 0b1

    def test_max_aid(self):
        bitmap = pvb.build_virtual_bitmap([pvb.MAX_AID])
        assert bitmap[pvb.MAX_AID // 8] == 1 << (pvb.MAX_AID % 8)

    def test_aid_out_of_range(self):
        for bad in (0, -1, pvb.MAX_AID + 1):
            with pytest.raises(ValueError):
                pvb.build_virtual_bitmap([bad])


class TestCompression:
    def test_all_zero_compresses_to_single_octet(self):
        offset, partial = pvb.compress_bitmap(bytes(pvb.FULL_BITMAP_OCTETS))
        assert offset == 0
        assert partial == b"\x00"

    def test_offset_is_even(self):
        # First set bit in octet 5 -> offset rounds down to 4.
        bitmap = bytearray(pvb.FULL_BITMAP_OCTETS)
        bitmap[5] = 0xFF
        offset, partial = pvb.compress_bitmap(bytes(bitmap))
        assert offset == 4
        assert partial == b"\x00\xff"

    def test_trailing_zeros_dropped(self):
        bitmap = bytearray(pvb.FULL_BITMAP_OCTETS)
        bitmap[2] = 0x01
        bitmap[4] = 0x80
        offset, partial = pvb.compress_bitmap(bytes(bitmap))
        assert offset == 2
        assert partial == bytes([0x01, 0x00, 0x80])

    def test_too_long_rejected(self):
        with pytest.raises(FrameEncodeError):
            pvb.compress_bitmap(bytes(pvb.FULL_BITMAP_OCTETS + 1))

    def test_expand_is_inverse(self):
        bitmap = bytearray(pvb.FULL_BITMAP_OCTETS)
        bitmap[6] = 0xAB
        bitmap[9] = 0x11
        offset, partial = pvb.compress_bitmap(bytes(bitmap))
        assert expand_bitmap(offset, partial) == bytes(bitmap)

    def test_expand_rejects_odd_offset(self):
        with pytest.raises(FrameEncodeError):
            expand_bitmap(1, b"\x00")

    def test_expand_rejects_overrun(self):
        with pytest.raises(FrameEncodeError):
            expand_bitmap(pvb.FULL_BITMAP_OCTETS - 1 + 1, b"\x00\x00\x00")


class TestCompressionMatchesOctetScan:
    @pytest.mark.parametrize(
        "octets",
        [
            {},
            {0: 0x01},
            {0: 0x80},
            # The last octet, 250 (AIDs 2000..2007).
            {250: 0x01},
            {250: 0x80},
            {0: 0x02, 250: 0x40},
            # An odd first octet: the offset rounds down to even.
            {3: 0x10},
            {3: 0x10, 7: 0x01},
            {249: 0xFF},
        ],
    )
    def test_edge_bitmaps(self, octets):
        bitmap = bitmap_with(octets)
        assert pvb.compress_bitmap(bitmap) == reference_compress(bitmap)
        assert pvb.compress_bitmap(bytearray(bitmap)) == reference_compress(bitmap)

    def test_short_inputs(self):
        for bitmap in (b"", b"\x00", b"\x00\x05", b"\x05\x00\x00"):
            assert pvb.compress_bitmap(bitmap) == reference_compress(bitmap)

    def test_too_long_rejected_by_both(self):
        for bitmap in (bytes(pvb.FULL_BITMAP_OCTETS + 1), b"\x01" * 300):
            with pytest.raises(FrameEncodeError):
                reference_compress(bitmap)
            with pytest.raises(FrameEncodeError):
                pvb.compress_bitmap(bitmap)

    @given(st.binary(max_size=pvb.FULL_BITMAP_OCTETS))
    def test_dense_bitmaps(self, bitmap):
        assert pvb.compress_bitmap(bitmap) == reference_compress(bitmap)

    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=pvb.FULL_BITMAP_OCTETS - 1),
            st.integers(min_value=0, max_value=255),
            max_size=6,
        )
    )
    def test_sparse_bitmaps(self, octets):
        bitmap = bitmap_with(octets)
        assert pvb.compress_bitmap(bitmap) == reference_compress(bitmap)


class TestQueries:
    def test_aid_is_set_round_trip(self):
        aids = {1, 7, 8, 63, 64, 100, pvb.MAX_AID}
        bitmap = pvb.build_virtual_bitmap(aids)
        offset, partial = pvb.compress_bitmap(bytes(bitmap))
        for aid in range(1, 200):
            assert aid_is_set(offset, partial, aid) == (aid in aids)

    def test_aids_in_bitmap_inverse_of_build(self):
        aids = {2, 31, 32, 33, 500, 1999}
        offset, partial = pvb.compress_bitmap(
            bytes(pvb.build_virtual_bitmap(aids))
        )
        assert pvb.aids_in_bitmap(offset, partial) == aids

    def test_aid_is_set_outside_partial_is_false(self):
        assert not aid_is_set(10, b"\xff", aid=1)

    def test_aid_zero_rejected(self):
        with pytest.raises(ValueError):
            aid_is_set(0, b"\xff", 0)
