"""DES-level AP behaviour: beaconing, DTIM bursts, port messages."""

import pytest

from repro.ap.access_point import AccessPoint, ApConfig
from repro.dot11.control import Ack
from repro.dot11.management import Beacon, UdpPortMessage
from repro.dot11.mac_address import MacAddress
from repro.errors import ConfigurationError
from repro.net.packet import build_broadcast_udp_packet
from repro.sim.engine import Simulator
from repro.sim.entity import Entity
from repro.sim.medium import Medium

AP_MAC = MacAddress.from_string("02:aa:00:00:00:01")
WIRED_SRC = MacAddress.from_string("02:bb:00:00:00:99")


class Sniffer(Entity):
    """Captures every frame on the medium."""

    def __init__(self):
        super().__init__("sniffer")
        self.frames = []

    def on_receive(self, transmission):
        self.frames.append((self.now, transmission.frame))

    def of_type(self, frame_type):
        return [f for _, f in self.frames if isinstance(f, frame_type)]


def make_ap(config=None):
    sim = Simulator()
    medium = Medium(sim)
    ap = AccessPoint(AP_MAC, medium, config or ApConfig())
    medium.attach(ap)
    sniffer = Sniffer()
    medium.attach(sniffer)
    return sim, medium, ap, sniffer


class TestBeaconing:
    def test_beacons_at_interval(self):
        sim, medium, ap, sniffer = make_ap()
        sim.run(until=1.0)
        beacons = sniffer.of_type(Beacon)
        assert len(beacons) == 9  # every 102.4 ms starting at t=102.4ms
        assert ap.counters.beacons_sent == 9

    def test_every_beacon_is_dtim_with_period_one(self):
        sim, medium, ap, sniffer = make_ap(ApConfig(dtim_period=1))
        sim.run(until=0.5)
        for beacon in sniffer.of_type(Beacon):
            assert beacon.tim.is_dtim

    def test_dtim_period_three_counts_down(self):
        sim, medium, ap, sniffer = make_ap(ApConfig(dtim_period=3))
        sim.run(until=1.0)
        counts = [b.tim.dtim_count for b in sniffer.of_type(Beacon)]
        assert counts[:6] == [0, 1, 2, 0, 1, 2]

    def test_btim_present_when_hide_enabled(self):
        sim, medium, ap, sniffer = make_ap(ApConfig(hide_enabled=True))
        sim.run(until=0.3)
        assert all(b.btim is not None for b in sniffer.of_type(Beacon))

    def test_no_btim_when_hide_disabled(self):
        sim, medium, ap, sniffer = make_ap(ApConfig(hide_enabled=False))
        sim.run(until=0.3)
        assert all(b.btim is None for b in sniffer.of_type(Beacon))

    def test_beacons_parse_from_real_bytes(self):
        sim, medium, ap, sniffer = make_ap()
        captured = []
        original = sniffer.on_receive

        def checking(transmission):
            if isinstance(transmission.frame, Beacon):
                captured.append(Beacon.from_bytes(transmission.frame_bytes))
            original(transmission)

        sniffer.on_receive = checking
        sim.run(until=0.3)
        assert captured and all(b.bssid == AP_MAC for b in captured)


class TestBroadcastBuffering:
    def test_frames_buffered_until_dtim(self):
        sim, medium, ap, sniffer = make_ap()
        ap.associate(MacAddress.station(1))  # PS client forces buffering
        packet = build_broadcast_udp_packet(5353, b"x")
        sim.schedule(0.01, lambda: ap.deliver_from_ds(packet, WIRED_SRC))
        sim.run(until=0.09)
        # Before the first DTIM nothing is on the air.
        assert ap.counters.broadcast_frames_sent == 0
        assert len(ap.broadcast_buffer) == 1
        sim.run(until=0.2)
        assert ap.counters.broadcast_frames_sent == 1

    def test_group_bit_set_when_buffered(self):
        sim, medium, ap, sniffer = make_ap()
        ap.associate(MacAddress.station(1))
        packet = build_broadcast_udp_packet(5353, b"x")
        sim.schedule(0.01, lambda: ap.deliver_from_ds(packet, WIRED_SRC))
        sim.run(until=0.11)
        first_beacon = sniffer.of_type(Beacon)[0]
        assert first_beacon.tim.group_traffic_buffered

    def test_immediate_send_without_ps_clients(self):
        sim, medium, ap, sniffer = make_ap()
        record = ap.associate(MacAddress.station(1))
        record.power_save = False
        packet = build_broadcast_udp_packet(5353, b"x")
        sim.schedule(0.01, lambda: ap.deliver_from_ds(packet, WIRED_SRC))
        sim.run(until=0.05)
        assert ap.counters.broadcast_frames_sent == 1

    def test_burst_more_data_bits(self):
        from repro.dot11.data import DataFrame

        sim, medium, ap, sniffer = make_ap()
        ap.associate(MacAddress.station(1))
        for port in (137, 138, 1900):
            packet = build_broadcast_udp_packet(port, b"x")
            sim.schedule(0.01, lambda p=packet: ap.deliver_from_ds(p, WIRED_SRC))
        sim.run(until=0.25)
        data = sniffer.of_type(DataFrame)
        assert [f.more_data for f in data] == [True, True, False]


class TestBtimFlags:
    def test_btim_flags_only_listening_clients(self):
        sim, medium, ap, sniffer = make_ap()
        r1 = ap.associate(MacAddress.station(1), hide_capable=True)
        r2 = ap.associate(MacAddress.station(2), hide_capable=True)
        ap.port_table.update_client(r1.aid, {5353})
        ap.port_table.update_client(r2.aid, {137})
        packet = build_broadcast_udp_packet(5353, b"x")
        sim.schedule(0.01, lambda: ap.deliver_from_ds(packet, WIRED_SRC))
        sim.run(until=0.11)
        dtim = sniffer.of_type(Beacon)[0]
        assert dtim.btim.indicates_useful_broadcast_for(r1.aid)
        assert not dtim.btim.indicates_useful_broadcast_for(r2.aid)

    def test_port_message_updates_table_and_acks(self):
        sim, medium, ap, sniffer = make_ap()
        record = ap.associate(MacAddress.station(1), hide_capable=True)

        class Sender(Entity):
            def on_attach(self):
                message = UdpPortMessage(
                    source=MacAddress.station(1), bssid=AP_MAC,
                    ports=frozenset({5353, 1900}),
                )
                self.simulator.schedule(
                    0.005,
                    lambda: medium.transmit(self, message, message.to_bytes(), 1e6),
                )

        medium.attach(Sender("sender"))
        sim.run(until=0.05)
        assert ap.counters.port_messages_received == 1
        assert ap.port_table.ports_for_client(record.aid) == frozenset({5353, 1900})
        assert len(sniffer.of_type(Ack)) == 1

    def test_port_message_from_unassociated_ignored(self):
        sim, medium, ap, sniffer = make_ap()

        class Sender(Entity):
            def on_attach(self):
                message = UdpPortMessage(
                    source=MacAddress.station(9), bssid=AP_MAC,
                    ports=frozenset({5353}),
                )
                self.simulator.schedule(
                    0.005,
                    lambda: medium.transmit(self, message, message.to_bytes(), 1e6),
                )

        medium.attach(Sender("sender"))
        sim.run(until=0.05)
        assert ap.counters.port_messages_received == 0
        assert sniffer.of_type(Ack) == []

    def test_disassociate_clears_port_table(self):
        sim, medium, ap, sniffer = make_ap()
        record = ap.associate(MacAddress.station(1))
        ap.port_table.update_client(record.aid, {5353})
        ap.disassociate(MacAddress.station(1))
        assert ap.port_table.ports_for_client(record.aid) == frozenset()


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ApConfig(dtim_period=0)
