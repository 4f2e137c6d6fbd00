import pytest

from repro.dot11.control import Ack, PsPoll
from repro.dot11.data import DataFrame
from repro.dot11.llc import ETHERTYPE_ARP, ETHERTYPE_IPV4, LlcSnapHeader
from repro.dot11.mac_address import BROADCAST, MacAddress
from repro.dot11.sizes import ACK_BYTES, PS_POLL_BYTES
from repro.errors import FrameDecodeError
from repro.net.packet import build_broadcast_udp_packet


@pytest.fixture
def bssid():
    return MacAddress.from_string("02:aa:00:00:00:01")


class TestAck:
    def test_round_trip(self):
        ack = Ack(receiver=MacAddress.station(5))
        assert Ack.from_bytes(ack.to_bytes()) == ack

    def test_on_air_size(self):
        ack = Ack(receiver=MacAddress.station(5))
        assert len(ack.to_bytes()) == ACK_BYTES == ack.length_bytes

    def test_wrong_size_rejected(self):
        with pytest.raises(FrameDecodeError):
            Ack.from_bytes(b"\x00" * 13)

    def test_corruption_detected(self):
        data = bytearray(Ack(receiver=MacAddress.station(5)).to_bytes())
        data[5] ^= 1
        with pytest.raises(FrameDecodeError):
            Ack.from_bytes(bytes(data))


class TestPsPoll:
    def test_round_trip(self, bssid):
        poll = PsPoll(aid=77, bssid=bssid, transmitter=MacAddress.station(2))
        assert PsPoll.from_bytes(poll.to_bytes()) == poll

    def test_on_air_size(self, bssid):
        poll = PsPoll(aid=1, bssid=bssid, transmitter=MacAddress.station(2))
        assert len(poll.to_bytes()) == PS_POLL_BYTES

    def test_aid_top_bits_set(self, bssid):
        poll = PsPoll(aid=1, bssid=bssid, transmitter=MacAddress.station(2))
        aid_field = int.from_bytes(poll.to_bytes()[2:4], "little")
        assert aid_field & 0xC000 == 0xC000

    def test_aid_validation(self, bssid):
        with pytest.raises(ValueError):
            PsPoll(aid=0, bssid=bssid, transmitter=MacAddress.station(2))
        with pytest.raises(ValueError):
            PsPoll(aid=2008, bssid=bssid, transmitter=MacAddress.station(2))

    def test_not_a_ps_poll(self, bssid):
        ack_sized = PsPoll(aid=5, bssid=bssid, transmitter=MacAddress.station(2))
        data = bytearray(ack_sized.to_bytes())
        with pytest.raises(FrameDecodeError):
            Ack.from_bytes(bytes(data[:14]))


class TestLlcSnap:
    def test_round_trip(self):
        header = LlcSnapHeader(ETHERTYPE_IPV4)
        assert LlcSnapHeader.from_bytes(header.to_bytes()) == header

    def test_wrap_unwrap(self):
        header, payload = LlcSnapHeader.unwrap(
            LlcSnapHeader.wrap(ETHERTYPE_ARP, b"arp-body")
        )
        assert header.ethertype == ETHERTYPE_ARP
        assert payload == b"arp-body"

    def test_bad_prefix(self):
        with pytest.raises(FrameDecodeError):
            LlcSnapHeader.from_bytes(b"\x00" * 8)

    def test_truncated(self):
        with pytest.raises(FrameDecodeError):
            LlcSnapHeader.from_bytes(b"\xaa\xaa\x03")


class TestDataFrame:
    def test_broadcast_round_trip(self, bssid):
        ip_packet = build_broadcast_udp_packet(5353, b"announce")
        frame = DataFrame.broadcast_udp(
            bssid=bssid, source=MacAddress.station(9), ip_packet=ip_packet
        )
        decoded = DataFrame.from_bytes(frame.to_bytes())
        assert decoded == frame
        assert decoded.is_broadcast
        assert decoded.destination == BROADCAST

    def test_more_data_bit_round_trip(self, bssid):
        frame = DataFrame.broadcast_udp(
            bssid=bssid,
            source=MacAddress.station(9),
            ip_packet=build_broadcast_udp_packet(137, b"x"),
            more_data=True,
        )
        assert DataFrame.from_bytes(frame.to_bytes()).more_data

    def test_with_more_data(self, bssid):
        frame = DataFrame.broadcast_udp(
            bssid=bssid,
            source=MacAddress.station(9),
            ip_packet=build_broadcast_udp_packet(137, b"x"),
        )
        tagged = frame.with_more_data(True)
        assert tagged.more_data and not frame.more_data
        assert tagged.llc_payload == frame.llc_payload

    def test_with_more_data_keeps_the_parsed_port(self, bssid, monkeypatch):
        import repro.net.packet as packet

        frame = DataFrame.broadcast_udp(
            bssid=bssid,
            source=MacAddress.station(9),
            ip_packet=build_broadcast_udp_packet(137, b"x"),
        )
        assert frame.udp_dst_port() == 137

        def no_second_parse(llc_payload):
            raise AssertionError("the copy parsed its payload again")

        monkeypatch.setattr(
            packet, "extract_udp_dst_port_from_dot11_body", no_second_parse
        )
        for more_data in (True, False):
            assert frame.with_more_data(more_data).udp_dst_port() == 137

    def test_with_more_data_before_any_parse(self, bssid):
        frame = DataFrame.broadcast_udp(
            bssid=bssid,
            source=MacAddress.station(9),
            ip_packet=build_broadcast_udp_packet(1900, b"x"),
        )
        assert frame.with_more_data(True).udp_dst_port() == 1900

    def test_length_property(self, bssid):
        frame = DataFrame.broadcast_udp(
            bssid=bssid,
            source=MacAddress.station(9),
            ip_packet=build_broadcast_udp_packet(137, b"payload"),
        )
        assert frame.length_bytes == len(frame.to_bytes())

    def test_corruption_detected(self, bssid):
        frame = DataFrame.broadcast_udp(
            bssid=bssid,
            source=MacAddress.station(9),
            ip_packet=build_broadcast_udp_packet(137, b"x"),
        )
        data = bytearray(frame.to_bytes())
        data[40] ^= 0x10
        with pytest.raises(FrameDecodeError):
            DataFrame.from_bytes(bytes(data))

    def test_too_short(self):
        with pytest.raises(FrameDecodeError):
            DataFrame.from_bytes(b"\x08\x02" + b"\x00" * 10)
