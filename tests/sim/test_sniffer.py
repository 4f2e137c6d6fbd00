import pytest

from repro.ap.access_point import AccessPoint, ApConfig
from repro.dot11.management import Beacon, UdpPortMessage
from repro.dot11.mac_address import MacAddress
from repro.net.packet import build_broadcast_udp_packet
from repro.sim.engine import Simulator
from repro.sim.medium import Medium
from repro.sim.sniffer import ProtocolSniffer
from repro.station.client import Client, ClientConfig, ClientPolicy

AP_MAC = MacAddress.from_string("02:aa:00:00:00:01")
WIRED = MacAddress.from_string("02:bb:00:00:00:99")


def run_network(sniffer, duration=1.0):
    sim = Simulator()
    medium = Medium(sim)
    ap = AccessPoint(AP_MAC, medium, ApConfig())
    medium.attach(ap)
    client = Client(
        MacAddress.station(1), medium, AP_MAC,
        ClientConfig(policy=ClientPolicy.HIDE),
    )
    medium.attach(client)
    record = ap.associate(client.mac, hide_capable=True)
    client.set_aid(record.aid)
    client.open_port(5353)
    medium.attach(sniffer)
    packet = build_broadcast_udp_packet(5353, b"x")
    sim.schedule(0.3, lambda: ap.deliver_from_ds(packet, WIRED))
    sim.run(until=duration)
    return sim


class TestSniffer:
    def test_captures_all_frame_kinds(self):
        sniffer = ProtocolSniffer()
        run_network(sniffer)
        kinds = {c.kind for c in sniffer.captures}
        assert {"Beacon", "UdpPortMessage", "Ack", "DataFrame"} <= kinds

    def test_filter_restricts_capture(self):
        sniffer = ProtocolSniffer(frame_filter=(Beacon,))
        run_network(sniffer)
        assert sniffer.captures
        assert all(isinstance(c.frame, Beacon) for c in sniffer.captures)

    def test_live_callback(self):
        seen = []
        sniffer = ProtocolSniffer(on_capture=seen.append)
        run_network(sniffer)
        assert len(seen) == len(sniffer.captures)

    def test_capacity_drops_counted(self):
        sniffer = ProtocolSniffer(capacity=3)
        run_network(sniffer)
        assert len(sniffer.captures) == 3
        assert sniffer.dropped > 0

    def test_timestamps_nondecreasing(self):
        sniffer = ProtocolSniffer()
        run_network(sniffer)
        times = [c.time for c in sniffer.captures]
        assert times == sorted(times)

    def test_describe_shows_hide_details(self):
        sniffer = ProtocolSniffer()
        run_network(sniffer)
        lines = "\n".join(c.describe() for c in sniffer.captures)
        assert "btim=" in lines
        assert "ports=[5353]" in lines
        assert "udp-port=5353" in lines

    def test_describe_every_kind_is_stringy(self):
        sniffer = ProtocolSniffer()
        run_network(sniffer)
        for captured in sniffer.captures:
            line = captured.describe()
            assert captured.kind in line
            assert "ms" in line

class TestDescribeManagementFrames:
    """describe() detail for the probe/association/disassociation frames."""

    @staticmethod
    def _line(frame) -> str:
        from repro.sim.sniffer import CapturedFrame

        return CapturedFrame(
            time=0.5, frame=frame, length_bytes=64, rate_bps=1e6
        ).describe()

    def test_probe_request_wildcard(self):
        from repro.dot11.probe_frames import ProbeRequest

        line = self._line(ProbeRequest(source=MacAddress.station(1)))
        assert "ProbeRequest" in line
        assert "ssid=*" in line

    def test_probe_request_directed(self):
        from repro.dot11.probe_frames import ProbeRequest

        line = self._line(
            ProbeRequest(source=MacAddress.station(1), ssid="hide-net")
        )
        assert "ssid=hide-net" in line

    def test_probe_response(self):
        from repro.dot11.probe_frames import ProbeResponse

        line = self._line(
            ProbeResponse(
                destination=MacAddress.station(1),
                bssid=AP_MAC,
                ssid="hide-net",
                channel=11,
                hide_supported=True,
            )
        )
        assert "ssid=hide-net" in line
        assert "channel=11" in line
        assert "hide=yes" in line

    def test_association_request_with_ports(self):
        from repro.dot11.association_frames import AssociationRequest

        line = self._line(
            AssociationRequest(
                source=MacAddress.station(1),
                bssid=AP_MAC,
                ssid="hide-net",
                hide_capable=True,
                initial_ports=frozenset({5353, 137}),
            )
        )
        assert "hide=yes" in line
        assert "ports=[137, 5353]" in line

    def test_association_response_status(self):
        from repro.dot11.association_frames import (
            STATUS_DENIED,
            AssociationResponse,
        )

        denied = self._line(
            AssociationResponse(
                destination=MacAddress.station(1),
                bssid=AP_MAC,
                status=STATUS_DENIED,
                aid=0,
            )
        )
        assert "status=denied" in denied

    def test_disassociation_reason(self):
        from repro.dot11.disassociation import Disassociation

        line = self._line(
            Disassociation(
                source=MacAddress.station(1),
                destination=AP_MAC,
                bssid=AP_MAC,
                reason=8,
            )
        )
        assert "Disassociation" in line
        assert "reason=8" in line
