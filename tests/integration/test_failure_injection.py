"""Failure injection: the protocol under a lossy channel.

The UDP Port Message path is the part of HIDE with a hard safety
requirement: if the AP's Client UDP Port Table goes stale in the
*smaller* direction, a client misses useful traffic. The paper's answer
is the ACK + standard retransmission on the report; these tests verify
the retry machinery actually masks loss, and quantify what pure loss
does to delivery counts.
"""

from repro.ap.access_point import AccessPoint, ApConfig
from repro.dot11.mac_address import MacAddress
from repro.energy.profile import NEXUS_ONE
from repro.faults import FaultInjector, FaultPlan
from repro.net.packet import build_broadcast_udp_packet
from repro.sim.engine import Simulator
from repro.sim.medium import Medium
from repro.station import client as client_module
from repro.station.client import Client, ClientConfig, ClientPolicy
from repro.station.power import PowerState

AP_MAC = MacAddress.from_string("02:aa:00:00:00:01")
WIRED_SRC = MacAddress.from_string("02:bb:00:00:00:99")


def build(loss, loss_seed=1):
    """AP + one HIDE client on a channel losing non-beacon frames."""
    sim = Simulator()
    injector = FaultInjector(FaultPlan(default_loss=loss, seed=loss_seed))
    medium = Medium(sim, fault_injector=injector)
    ap = AccessPoint(AP_MAC, medium, ApConfig())
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
    return sim, medium, ap, client


class TestLossyMedium:
    def test_zero_loss_drops_nothing(self):
        sim, medium, ap, client = build(loss=0.0)
        sim.run(until=2.0)
        assert medium.frames_dropped == 0

    def test_drops_counted(self):
        sim, medium, ap, client = build(loss=0.5)
        for i in range(10):
            packet = build_broadcast_udp_packet(5353, b"x")
            sim.schedule(0.3 * (i + 1), lambda p=packet: ap.deliver_from_ds(p, WIRED_SRC))
        sim.run(until=10.0)
        assert medium.frames_dropped > 0

    def test_beacons_exempt_from_loss(self):
        sim, medium, ap, client = build(loss=0.9)
        sim.run(until=3.0)
        # Beacons every 102.4 ms arrive regardless of the loss rate.
        assert client.counters.beacons_received >= 25


class TestReportRetransmission:
    def test_retries_mask_moderate_loss(self):
        # 30% loss: the 7-retry budget makes report delivery ~certain.
        sim, medium, ap, client = build(loss=0.3)
        sim.run(until=5.0)
        assert ap.port_table.ports_for_client(client.aid) == frozenset({5353})
        assert client.power.state is PowerState.SUSPENDED

    def test_retransmissions_happen_under_loss(self):
        sim, medium, ap, client = build(loss=0.5, loss_seed=7)
        sim.run(until=5.0)
        assert client.counters.port_message_retransmissions > 0

    def test_lossless_run_needs_no_retransmissions(self):
        sim, medium, ap, client = build(loss=0.0)
        sim.run(until=5.0)
        assert client.counters.port_message_retransmissions == 0

    def test_client_eventually_suspends_even_under_heavy_loss(self, monkeypatch):
        # Even if every retry is eaten, the client gives up and
        # suspends rather than burning the battery waiting for ACKs.
        monkeypatch.setattr(client_module, "MAX_PORT_MESSAGE_RETRIES", 3)
        sim, medium, ap, client = build(loss=0.9, loss_seed=3)
        sim.run(until=10.0)
        assert client.power.state is PowerState.SUSPENDED

    def test_useful_delivery_survives_loss(self):
        # With retries protecting the report path, useful frames still
        # reach the client unless the data frame itself is lost.
        sim, medium, ap, client = build(loss=0.2, loss_seed=11)
        sent = 15
        for i in range(sent):
            packet = build_broadcast_udp_packet(5353, b"x")
            sim.schedule(
                0.5 * (i + 1), lambda p=packet: ap.deliver_from_ds(p, WIRED_SRC)
            )
        sim.run(until=15.0)
        received = client.counters.useful_frames_received
        # Every non-dropped useful frame was received: the losses are
        # channel losses, not HIDE filtering mistakes.
        assert received + medium.frames_dropped >= sent
        assert received > 0
