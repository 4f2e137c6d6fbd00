import pytest

from repro.dot11.mac_address import BROADCAST, MacAddress
from repro.errors import FrameDecodeError


class TestConstruction:
    def test_from_bytes(self):
        mac = MacAddress(bytes(range(6)))
        assert mac.octets == bytes([0, 1, 2, 3, 4, 5])

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            MacAddress(b"\x00" * 5)
        with pytest.raises(ValueError):
            MacAddress(b"\x00" * 7)

    def test_rejects_non_bytes(self):
        with pytest.raises(TypeError):
            MacAddress("aabbccddeeff")  # type: ignore[arg-type]

    def test_bytearray_normalized_to_bytes(self):
        mac = MacAddress(bytearray(6))
        assert isinstance(mac.octets, bytes)

    def test_from_string_colon(self):
        mac = MacAddress.from_string("aa:bb:cc:dd:ee:ff")
        assert mac.octets == bytes([0xAA, 0xBB, 0xCC, 0xDD, 0xEE, 0xFF])

    def test_from_string_dash(self):
        mac = MacAddress.from_string("aa-bb-cc-dd-ee-ff")
        assert str(mac) == "aa:bb:cc:dd:ee:ff"

    def test_from_string_malformed(self):
        for bad in ("aa:bb:cc:dd:ee", "zz:bb:cc:dd:ee:ff", "", "aa:bb:cc:dd:ee:ff:00"):
            with pytest.raises(FrameDecodeError):
                MacAddress.from_string(bad)

    def test_station_deterministic(self):
        assert MacAddress.station(0) == MacAddress.station(0)
        assert MacAddress.station(0) != MacAddress.station(1)

    def test_station_locally_administered(self):
        assert MacAddress.station(42).octets[0] == 0x02

    def test_station_index_range(self):
        with pytest.raises(ValueError):
            MacAddress.station(-1)
        with pytest.raises(ValueError):
            MacAddress.station(2**32)


class TestProperties:
    def test_broadcast(self):
        assert BROADCAST.is_broadcast
        assert not MacAddress.station(1).is_broadcast

    def test_hashable_and_ordered(self):
        macs = {MacAddress.station(i) for i in range(3)}
        assert len(macs) == 3
        assert MacAddress.station(1) < MacAddress.station(2)

    def test_str_roundtrip(self):
        mac = MacAddress.station(77)
        assert MacAddress.from_string(str(mac)) == mac

    def test_repr(self):
        assert "MacAddress" in repr(MacAddress.station(1))
