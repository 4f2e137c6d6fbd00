import pytest

from repro.dot11.elements.btim import BtimElement
from repro.dot11.elements.tim import TimElement
from repro.dot11.information_element import (
    ELEMENT_ID_BTIM,
    ELEMENT_ID_TIM,
    parse_elements,
)
from repro.errors import FrameDecodeError


class TestTim:
    def test_round_trip_with_aids(self):
        tim = TimElement(0, 1, True, frozenset({1, 5, 200}))
        parsed = TimElement.from_payload(tim.payload_bytes())
        assert parsed == tim

    def test_dtim_detection(self):
        assert TimElement(0, 3).is_dtim
        assert not TimElement(1, 3).is_dtim

    def test_group_traffic_bit(self):
        tim = TimElement(0, 1, group_traffic_buffered=True)
        assert tim.payload_bytes()[2] & 0x01
        assert TimElement.from_payload(tim.payload_bytes()).group_traffic_buffered

    def test_unicast_indication(self):
        tim = TimElement(0, 1, aids_with_traffic=frozenset({7}))
        assert tim.indicates_unicast_for(7)
        assert not tim.indicates_unicast_for(8)

    def test_empty_tim_is_four_bytes(self):
        # count, period, control, one zero bitmap octet.
        assert len(TimElement(0, 1).payload_bytes()) == 4

    def test_offset_encoded_in_bitmap_control(self):
        tim = TimElement(0, 1, aids_with_traffic=frozenset({100}))
        control = tim.payload_bytes()[2]
        offset = ((control >> 1) & 0x7F) * 2
        assert offset == (100 // 8) - (100 // 8) % 2

    def test_validation(self):
        with pytest.raises(ValueError):
            TimElement(dtim_count=1, dtim_period=1)  # count must be < period
        with pytest.raises(ValueError):
            TimElement(dtim_count=0, dtim_period=0)
        with pytest.raises(ValueError):
            TimElement(0, 1, aids_with_traffic=frozenset({0}))

    def test_truncated_payload(self):
        with pytest.raises(FrameDecodeError):
            TimElement.from_payload(b"\x00\x01\x00")

    def test_registered_element_id(self):
        parsed = parse_elements(TimElement(0, 1).to_bytes())
        assert isinstance(parsed[0], TimElement)
        assert parsed[0].element_id == ELEMENT_ID_TIM


class TestBtim:
    def test_round_trip(self):
        btim = BtimElement(frozenset({3, 17, 64, 1500}))
        assert BtimElement.from_payload(btim.payload_bytes()) == btim

    def test_per_client_indication(self):
        btim = BtimElement(frozenset({4}))
        assert btim.indicates_useful_broadcast_for(4)
        assert not btim.indicates_useful_broadcast_for(5)

    def test_empty_btim(self):
        btim = BtimElement()
        assert btim.payload_bytes() == b"\x00\x00"
        assert BtimElement.from_payload(btim.payload_bytes()) == btim

    def test_compression_matches_figure5(self):
        # AIDs only in high octets: leading zeros are elided via offset.
        btim = BtimElement(frozenset({80, 81}))  # octet 10
        payload = btim.payload_bytes()
        assert payload[0] == 10  # even offset
        assert len(payload) == 2  # offset + one bitmap octet

    def test_element_id_201(self):
        assert BtimElement().element_id == ELEMENT_ID_BTIM
        parsed = parse_elements(BtimElement(frozenset({9})).to_bytes())
        assert isinstance(parsed[0], BtimElement)

    def test_odd_offset_rejected(self):
        with pytest.raises(FrameDecodeError):
            BtimElement.from_payload(bytes([3, 0xFF]))

    def test_truncated(self):
        with pytest.raises(FrameDecodeError):
            BtimElement.from_payload(b"\x00")

    def test_aid_range_validated(self):
        with pytest.raises(ValueError):
            BtimElement(frozenset({0}))
        with pytest.raises(ValueError):
            BtimElement(frozenset({2008}))
