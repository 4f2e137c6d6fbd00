import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import FrameDecodeError, FrameEncodeError
from repro.net.ipv4 import (
    IP_BROADCAST,
    IPPROTO_TCP,
    IPPROTO_UDP,
    Ipv4Address,
    Ipv4Header,
    internet_checksum,
)


def rfc1071_checksum(data: bytes) -> int:
    """The RFC 1071 reference loop: one 16-bit word at a time."""
    if len(data) % 2:
        data += b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


class TestChecksum:
    def test_known_vector(self):
        # Classic RFC 1071 example.
        data = bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7])
        assert internet_checksum(data) == 0x220D

    def test_odd_length_padded(self):
        assert internet_checksum(b"\x01") == internet_checksum(b"\x01\x00")

    @pytest.mark.parametrize(
        "data",
        [
            b"",
            b"\x01",
            b"\xff",
            b"\xff\xff",
            b"\xff" * 3,
            # Sums to 0x1FFFF: the first carry fold gives 0x10000 and
            # only a second fold brings it back to 16 bits.
            b"\xff\xff\xff\xff\x00\x01",
            b"\x00" * 61,
            bytes(range(256)),
        ],
    )
    def test_matches_reference_loop_on_edge_inputs(self, data):
        assert internet_checksum(data) == rfc1071_checksum(data)

    @given(st.binary(max_size=300))
    def test_matches_reference_loop(self, data):
        # Odd and even lengths alike; the carry fold must agree too.
        assert internet_checksum(data) == rfc1071_checksum(data)

    def test_verifies_to_zero(self):
        header = Ipv4Header(
            source=Ipv4Address.from_string("10.0.0.1"),
            destination=IP_BROADCAST,
        )
        assert internet_checksum(header.to_bytes(0)) == 0


class TestAddress:
    def test_string_round_trip(self):
        addr = Ipv4Address.from_string("192.168.1.42")
        assert str(addr) == "192.168.1.42"

    def test_bytes_round_trip(self):
        addr = Ipv4Address.from_string("8.8.4.4")
        assert Ipv4Address.from_bytes(addr.to_bytes()) == addr

    def test_broadcast(self):
        assert IP_BROADCAST.is_broadcast
        assert str(IP_BROADCAST) == "255.255.255.255"

    def test_malformed(self):
        for bad in ("1.2.3", "1.2.3.4.5", "256.1.1.1", "a.b.c.d", ""):
            with pytest.raises(FrameDecodeError):
                Ipv4Address.from_string(bad)

    def test_range(self):
        with pytest.raises(ValueError):
            Ipv4Address(-1)
        with pytest.raises(ValueError):
            Ipv4Address(2**32)

    def test_ordering(self):
        assert Ipv4Address(1) < Ipv4Address(2)


class TestHeader:
    def make(self, **kwargs):
        defaults = dict(
            source=Ipv4Address.from_string("192.168.1.5"),
            destination=IP_BROADCAST,
            protocol=IPPROTO_UDP,
        )
        defaults.update(kwargs)
        return Ipv4Header(**defaults)

    def test_round_trip(self):
        header = self.make(ttl=1, identification=555)
        encoded = header.to_bytes(12) + b"x" * 12
        decoded, payload = Ipv4Header.from_bytes(encoded)
        assert decoded == header
        assert payload == b"x" * 12

    def test_options_honoured(self):
        header = self.make(options=b"\x01" * 8)
        assert header.header_length == 28
        decoded, payload = Ipv4Header.from_bytes(header.to_bytes(4) + b"abcd")
        assert decoded.options == b"\x01" * 8
        assert payload == b"abcd"

    def test_checksum_mismatch_detected(self):
        data = bytearray(self.make().to_bytes(0))
        data[15] ^= 0x01
        with pytest.raises(FrameDecodeError):
            Ipv4Header.from_bytes(bytes(data))

    def test_wrong_version(self):
        data = bytearray(self.make().to_bytes(0))
        data[0] = (6 << 4) | 5
        with pytest.raises(FrameDecodeError):
            Ipv4Header.from_bytes(bytes(data))

    def test_bad_ihl(self):
        data = bytearray(self.make().to_bytes(0))
        data[0] = (4 << 4) | 4  # IHL 16 bytes < 20
        with pytest.raises(FrameDecodeError):
            Ipv4Header.from_bytes(bytes(data))

    def test_truncated(self):
        with pytest.raises(FrameDecodeError):
            Ipv4Header.from_bytes(b"\x45\x00" * 5)

    def test_total_length_validated(self):
        header = self.make()
        encoded = bytearray(header.to_bytes(10) + b"y" * 10)
        # Claim more bytes than present (and fix the checksum so the
        # length check, not the checksum, fires).
        with pytest.raises(FrameDecodeError):
            Ipv4Header.from_bytes(bytes(encoded[:25]))

    def test_validation(self):
        with pytest.raises(ValueError):
            self.make(protocol=300)
        with pytest.raises(ValueError):
            self.make(ttl=-1)
        with pytest.raises(ValueError):
            self.make(options=b"\x01")  # not 32-bit padded
        with pytest.raises(ValueError):
            self.make(options=b"\x00" * 44)

    def test_payload_too_long(self):
        with pytest.raises(FrameEncodeError):
            self.make().to_bytes(70000)

    def test_protocol_preserved(self):
        header = self.make(protocol=IPPROTO_TCP)
        decoded, _ = Ipv4Header.from_bytes(header.to_bytes(0))
        assert decoded.protocol == IPPROTO_TCP
