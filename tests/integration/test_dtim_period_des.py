"""DES behaviour with DTIM periods above 1 (paper: typical values 1-3)."""

from repro.ap.access_point import AccessPoint, ApConfig
from repro.dot11.data import DataFrame
from repro.dot11.mac_address import MacAddress
from repro.energy.profile import NEXUS_ONE
from repro.net.packet import build_broadcast_udp_packet
from repro.sim.engine import Simulator
from repro.sim.medium import Medium
from repro.sim.sniffer import ProtocolSniffer
from repro.station.client import Client, ClientConfig, ClientPolicy
from repro.units import BEACON_INTERVAL_S

AP_MAC = MacAddress.from_string("02:aa:00:00:00:01")
WIRED = MacAddress.from_string("02:bb:00:00:00:99")


def build(dtim_period):
    sim = Simulator()
    medium = Medium(sim)
    ap = AccessPoint(AP_MAC, medium, ApConfig(dtim_period=dtim_period))
    medium.attach(ap)
    client = Client(
        MacAddress.station(1), medium, AP_MAC,
        ClientConfig(
            policy=ClientPolicy.HIDE,
            profile=NEXUS_ONE.with_overrides(wakelock_timeout_s=0.3),
        ),
    )
    medium.attach(client)
    record = ap.associate(client.mac, hide_capable=True)
    client.set_aid(record.aid)
    client.open_port(5353)
    sniffer = ProtocolSniffer(frame_filter=(DataFrame,))
    medium.attach(sniffer)
    return sim, medium, ap, client, sniffer


class TestDtimPeriodThree:
    def test_broadcast_released_only_at_dtims(self):
        # The first beacon (t = 102.4 ms) is DTIM count 0, so DTIMs fall
        # at 0.1024 + k * 0.3072 s with period 3. Offer a frame after
        # the first DTIM: it must wait for the next one.
        sim, medium, ap, client, sniffer = build(dtim_period=3)
        packet = build_broadcast_udp_packet(5353, b"x")
        sim.schedule(0.15, lambda: ap.deliver_from_ds(packet, WIRED))
        sim.run(until=2.0)
        assert len(sniffer.captures) == 1
        air_time = sniffer.captures[0].time
        dtim_interval = 3 * BEACON_INTERVAL_S
        offset_into_cycle = (air_time - BEACON_INTERVAL_S) % dtim_interval
        assert offset_into_cycle < BEACON_INTERVAL_S / 2
        assert air_time > 0.4  # not before the second DTIM at ~0.41 s

    def test_frame_still_delivered_to_listener(self):
        sim, medium, ap, client, sniffer = build(dtim_period=3)
        packet = build_broadcast_udp_packet(5353, b"x")
        sim.schedule(0.15, lambda: ap.deliver_from_ds(packet, WIRED))
        sim.run(until=2.0)
        assert client.counters.useful_frames_received == 1

    def test_longer_period_defers_delivery(self):
        # Offered after the shared first DTIM: period 1 delivers at the
        # next beacon (~0.20 s), period 3 at the next DTIM (~0.41 s).
        times = {}
        for period in (1, 3):
            sim, medium, ap, client, sniffer = build(dtim_period=period)
            packet = build_broadcast_udp_packet(5353, b"x")
            sim.schedule(
                0.15, lambda p=packet, a=ap: a.deliver_from_ds(p, WIRED)
            )
            sim.run(until=2.0)
            times[period] = sniffer.captures[0].time
        assert times[3] > times[1] + BEACON_INTERVAL_S

    def test_buffered_frames_batch_at_dtim(self):
        sim, medium, ap, client, sniffer = build(dtim_period=3)
        for i in range(4):
            packet = build_broadcast_udp_packet(5353, b"x%d" % i)
            sim.schedule(
                0.15 + 0.05 * i, lambda p=packet: ap.deliver_from_ds(p, WIRED)
            )
        sim.run(until=2.0)
        assert len(sniffer.captures) == 4
        spread = sniffer.captures[-1].time - sniffer.captures[0].time
        assert spread < 0.02  # all in one back-to-back burst

