import pytest

from repro.dot11.elements.btim import BtimElement
from repro.dot11.elements.tim import TimElement
from repro.dot11.frame_control import FrameType, ManagementSubtype
from repro.dot11.mac_address import BROADCAST, MacAddress
from repro.dot11.management import Beacon, CapabilityInfo, UdpPortMessage
from repro.dot11.sizes import STANDARD_BEACON_BYTES, standard_beacon_length
from repro.errors import FrameDecodeError


@pytest.fixture
def bssid():
    return MacAddress.from_string("02:aa:00:00:00:01")


def make_beacon(bssid, **kwargs):
    defaults = dict(
        bssid=bssid,
        timestamp_us=1_000_000,
        beacon_interval_tu=100,
        tim=TimElement(0, 1, True, frozenset({5})),
    )
    defaults.update(kwargs)
    return Beacon(**defaults)


class TestBeacon:
    def test_round_trip_plain(self, bssid):
        beacon = make_beacon(bssid)
        decoded = Beacon.from_bytes(beacon.to_bytes())
        assert decoded == beacon

    def test_round_trip_with_btim(self, bssid):
        beacon = make_beacon(bssid, btim=BtimElement(frozenset({2, 9})))
        decoded = Beacon.from_bytes(beacon.to_bytes())
        assert decoded.btim == BtimElement(frozenset({2, 9}))
        assert decoded.btim.indicates_useful_broadcast_for(9)

    def test_destination_is_broadcast(self, bssid):
        data = make_beacon(bssid).to_bytes()
        assert data[4:10] == BROADCAST.octets

    def test_length_property_matches_bytes(self, bssid):
        beacon = make_beacon(bssid, btim=BtimElement(frozenset({1})))
        assert beacon.length_bytes == len(beacon.to_bytes())

    def test_btim_length_zero_without_btim(self, bssid):
        assert make_beacon(bssid).btim_length_bytes == 0

    def test_btim_length_counted(self, bssid):
        beacon = make_beacon(bssid, btim=BtimElement(frozenset({3})))
        plain = make_beacon(bssid)
        assert beacon.length_bytes - plain.length_bytes == beacon.btim_length_bytes

    def test_fcs_validated(self, bssid):
        data = bytearray(make_beacon(bssid).to_bytes())
        data[-1] ^= 0xFF
        with pytest.raises(FrameDecodeError):
            Beacon.from_bytes(bytes(data))

    def test_corrupted_body_detected(self, bssid):
        data = bytearray(make_beacon(bssid).to_bytes())
        data[30] ^= 0x55
        with pytest.raises(FrameDecodeError):
            Beacon.from_bytes(bytes(data))

    def test_requires_tim(self, bssid):
        # Hand-build a beacon body without a TIM element.
        beacon = make_beacon(bssid)
        import zlib
        body = beacon.body_bytes()
        tim_bytes = beacon.tim.to_bytes()
        body = body.replace(tim_bytes, b"")
        header = beacon.to_bytes()[:24]
        frame = header + body
        frame += zlib.crc32(frame).to_bytes(4, "little")
        with pytest.raises(FrameDecodeError):
            Beacon.from_bytes(frame)

    def test_not_a_beacon(self, bssid):
        message = UdpPortMessage(
            source=MacAddress.station(1), bssid=bssid, ports=frozenset()
        )
        with pytest.raises(FrameDecodeError):
            Beacon.from_bytes(message.to_bytes())

    def test_validation(self, bssid):
        with pytest.raises(ValueError):
            make_beacon(bssid, timestamp_us=-1)
        with pytest.raises(ValueError):
            make_beacon(bssid, beacon_interval_tu=0)

    def test_frame_control_type(self, bssid):
        fc = make_beacon(bssid).frame_control
        assert fc.ftype is FrameType.MANAGEMENT
        assert fc.subtype == int(ManagementSubtype.BEACON)


class TestUdpPortMessage:
    def test_round_trip(self, bssid):
        message = UdpPortMessage(
            source=MacAddress.station(3),
            bssid=bssid,
            ports=frozenset({5353, 1900, 17500}),
            report_sequence=7,
        )
        decoded = UdpPortMessage.from_bytes(message.to_bytes())
        assert decoded.ports == message.ports
        assert decoded.report_sequence == 7
        assert decoded.source == message.source
        assert decoded.bssid == bssid

    def test_empty_ports(self, bssid):
        message = UdpPortMessage(
            source=MacAddress.station(1), bssid=bssid, ports=frozenset()
        )
        assert UdpPortMessage.from_bytes(message.to_bytes()).ports == frozenset()

    def test_many_ports_split_across_elements(self, bssid):
        ports = frozenset(range(1000, 1300))  # 300 ports > 127/element
        message = UdpPortMessage(
            source=MacAddress.station(1), bssid=bssid, ports=ports
        )
        assert len(message.elements()) == 3
        assert UdpPortMessage.from_bytes(message.to_bytes()).ports == ports

    def test_subtype_1111(self, bssid):
        message = UdpPortMessage(
            source=MacAddress.station(1), bssid=bssid, ports=frozenset({53})
        )
        fc = message.frame_control
        assert fc.ftype is FrameType.MANAGEMENT
        assert fc.subtype == 0b1111

    def test_length_matches_paper_eq19_plus_overheads(self, bssid):
        # Eq. (19): body is 2 fixed bytes + 2 per port (+ TLV headers,
        # which the paper's approximation folds into the fixed bytes).
        ports = frozenset(range(2000, 2050))
        message = UdpPortMessage(
            source=MacAddress.station(1), bssid=bssid, ports=ports
        )
        body = message.body_bytes()
        assert len(body) == 2 + 2 + 2 * 50  # fixed + element header + ports

    def test_length_property(self, bssid):
        message = UdpPortMessage(
            source=MacAddress.station(1), bssid=bssid, ports=frozenset({1, 2})
        )
        assert message.length_bytes == len(message.to_bytes())

    def test_validation(self, bssid):
        with pytest.raises(ValueError):
            UdpPortMessage(
                source=MacAddress.station(1), bssid=bssid,
                ports=frozenset({0}),
            )
        with pytest.raises(ValueError):
            UdpPortMessage(
                source=MacAddress.station(1), bssid=bssid,
                ports=frozenset(), report_sequence=70000,
            )


class TestCapabilityInfo:
    def test_round_trip(self):
        cap = CapabilityInfo(ess=True, privacy=True)
        assert CapabilityInfo.from_bytes(cap.to_bytes()) == cap

    def test_truncated(self):
        with pytest.raises(FrameDecodeError):
            CapabilityInfo.from_bytes(b"\x01")


class TestStandardBeaconLength:
    def test_reasonable_size(self):
        length = standard_beacon_length()
        assert 50 <= length <= 120

    def test_constant_is_the_serialized_length(self):
        assert standard_beacon_length() == STANDARD_BEACON_BYTES

    def test_grows_with_stations(self):
        assert standard_beacon_length(station_count=100) > standard_beacon_length()
