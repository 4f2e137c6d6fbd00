"""DES client behaviour under the three policies."""

import pytest

from repro.ap.access_point import AccessPoint, ApConfig
from repro.dot11.mac_address import MacAddress
from repro.energy.profile import NEXUS_ONE
from repro.net.packet import build_broadcast_udp_packet
from repro.sim.engine import Simulator
from repro.sim.medium import Medium
from repro.station import client as client_module
from repro.station.client import Client, ClientConfig, ClientPolicy
from repro.station.power import PowerState

AP_MAC = MacAddress.from_string("02:aa:00:00:00:01")
WIRED_SRC = MacAddress.from_string("02:bb:00:00:00:99")


def make_network(policies, open_ports=(5353,), hide_ap=True, tau=0.3):
    """AP + one client per policy; clients listen on ``open_ports``."""
    sim = Simulator()
    medium = Medium(sim)
    ap = AccessPoint(AP_MAC, medium, ApConfig(hide_enabled=hide_ap))
    medium.attach(ap)
    clients = []
    for index, policy in enumerate(policies):
        mac = MacAddress.station(index + 1)
        client = Client(
            mac, medium, AP_MAC,
            ClientConfig(
                policy=policy,
                profile=NEXUS_ONE.with_overrides(wakelock_timeout_s=tau),
            ),
        )
        medium.attach(client)
        record = ap.associate(mac, hide_capable=policy is ClientPolicy.HIDE)
        client.set_aid(record.aid)
        for port in open_ports:
            client.open_port(port)
        clients.append(client)
    return sim, medium, ap, clients


def inject(sim, ap, time, port):
    packet = build_broadcast_udp_packet(port, b"payload")
    sim.schedule(time, lambda: ap.deliver_from_ds(packet, WIRED_SRC))


class TestSuspendEntry:
    def test_hide_client_sends_port_message_before_suspend(self):
        sim, medium, ap, (client,) = make_network([ClientPolicy.HIDE])
        sim.run(until=1.0)
        assert client.counters.port_messages_sent >= 1
        assert client.counters.acks_received >= 1
        assert client.power.state is PowerState.SUSPENDED
        aid = client.aid
        assert ap.port_table.ports_for_client(aid) == frozenset({5353})

    def test_default_profile_suspends_for_the_nexus_one_tsp(self):
        # Receive-all suspends at t = 0, so the time spent suspending is
        # the machine's T_sp to the bit.
        sim = Simulator()
        medium = Medium(sim)
        client = Client(
            MacAddress.station(1), medium, AP_MAC,
            ClientConfig(policy=ClientPolicy.RECEIVE_ALL),
        )
        medium.attach(client)
        sim.run(until=1.0)
        assert client.power.counters.suspends_completed == 1
        suspending = client.power.time_in_state(PowerState.SUSPENDING)
        assert suspending == NEXUS_ONE.suspend_duration_s

    def test_legacy_client_suspends_without_port_message(self):
        sim, medium, ap, (client,) = make_network([ClientPolicy.RECEIVE_ALL])
        sim.run(until=1.0)
        assert client.counters.port_messages_sent == 0
        assert client.power.state is PowerState.SUSPENDED

    def test_port_message_retransmitted_without_ack(self, monkeypatch):
        # Client attached to a dead medium: AP never ACKs.
        monkeypatch.setattr(client_module, "MAX_PORT_MESSAGE_RETRIES", 3)
        sim = Simulator()
        medium = Medium(sim)
        client = Client(
            MacAddress.station(1), medium, AP_MAC,
            ClientConfig(policy=ClientPolicy.HIDE),
        )
        medium.attach(client)
        client.set_aid(1)
        sim.run(until=2.0)
        assert client.counters.port_message_retransmissions == 3
        # Gives up and suspends anyway.
        assert client.power.state is PowerState.SUSPENDED


class TestHidePolicy:
    def test_sleeps_through_useless_broadcast(self):
        sim, medium, ap, (client,) = make_network([ClientPolicy.HIDE])
        inject(sim, ap, 0.5, port=1900)  # client listens on 5353 only
        sim.run(until=2.0)
        assert client.counters.broadcast_frames_ignored == 1
        assert client.counters.broadcast_frames_received == 0
        assert client.power.counters.resumes == 0

    def test_wakes_for_useful_broadcast(self):
        sim, medium, ap, (client,) = make_network([ClientPolicy.HIDE])
        inject(sim, ap, 0.5, port=5353)
        sim.run(until=2.0)
        assert client.counters.broadcast_frames_received == 1
        assert client.counters.useful_frames_received == 1
        assert client.counters.frames_delivered_to_apps == 1
        assert client.power.counters.resumes == 1

    def test_returns_to_suspend_after_processing(self):
        sim, medium, ap, (client,) = make_network([ClientPolicy.HIDE])
        inject(sim, ap, 0.5, port=5353)
        sim.run(until=5.0)
        assert client.power.state is PowerState.SUSPENDED
        # Re-reported ports on the second suspend entry.
        assert client.counters.port_messages_sent >= 2

    def test_receives_burst_companions(self):
        # A useful frame shares a DTIM burst with a useless one: the
        # radio is up for the whole burst, so both are received.
        sim, medium, ap, (client,) = make_network([ClientPolicy.HIDE])
        inject(sim, ap, 0.05, port=5353)
        inject(sim, ap, 0.06, port=1900)
        sim.run(until=2.0)
        assert client.counters.broadcast_frames_received == 2
        assert client.counters.useful_frames_received == 1
        assert client.counters.useless_frames_received == 1

    def test_hide_client_under_legacy_ap_follows_tim(self):
        sim, medium, ap, (client,) = make_network(
            [ClientPolicy.HIDE], hide_ap=False
        )
        inject(sim, ap, 0.5, port=1900)  # useless
        sim.run(until=2.0)
        # No BTIM: the client falls back to the TIM group bit and wakes.
        assert client.counters.broadcast_frames_received == 1
        assert client.power.counters.resumes == 1


class TestReceiveAllPolicy:
    def test_wakes_for_everything(self):
        sim, medium, ap, (client,) = make_network([ClientPolicy.RECEIVE_ALL])
        inject(sim, ap, 0.3, port=1900)
        inject(sim, ap, 0.9, port=5353)
        sim.run(until=3.0)
        assert client.counters.broadcast_frames_received == 2
        assert client.power.counters.resumes == 2

    def test_wakelock_held_for_useless_frames(self):
        sim, medium, ap, (client,) = make_network(
            [ClientPolicy.RECEIVE_ALL], tau=0.5
        )
        inject(sim, ap, 0.3, port=1900)
        sim.run(until=3.0)
        assert client.wakelock.total_held_time() == pytest.approx(0.5, abs=1e-6)


class TestClientSidePolicy:
    def test_no_wakelock_for_useless_frames(self):
        sim, medium, ap, (client,) = make_network(
            [ClientPolicy.CLIENT_SIDE], tau=0.5
        )
        inject(sim, ap, 0.3, port=1900)
        sim.run(until=3.0)
        assert client.counters.broadcast_frames_received == 1
        assert client.wakelock.total_held_time() == 0.0
        assert client.power.counters.resumes == 1
        assert client.power.state is PowerState.SUSPENDED

    def test_wakelock_for_useful_frames(self):
        sim, medium, ap, (client,) = make_network(
            [ClientPolicy.CLIENT_SIDE], tau=0.5
        )
        inject(sim, ap, 0.3, port=5353)
        sim.run(until=3.0)
        assert client.wakelock.total_held_time() == pytest.approx(0.5, abs=1e-6)


class TestMixedNetwork:
    def test_hide_sleeps_while_legacy_wakes(self):
        sim, medium, ap, (hide, legacy) = make_network(
            [ClientPolicy.HIDE, ClientPolicy.RECEIVE_ALL]
        )
        # Port useless to the HIDE client but legacy receives everything.
        inject(sim, ap, 0.5, port=1900)
        sim.run(until=2.5)
        assert hide.counters.broadcast_frames_received == 0
        assert legacy.counters.broadcast_frames_received == 1
        assert hide.suspend_fraction() > legacy.suspend_fraction()

    def test_open_port_changes_next_report(self):
        sim, medium, ap, (client,) = make_network([ClientPolicy.HIDE])
        inject(sim, ap, 0.5, port=5353)  # wake it so it can re-report

        def add_port():
            client.open_port(17500)

        sim.schedule(0.7, add_port)
        sim.run(until=5.0)
        assert ap.port_table.ports_for_client(client.aid) == frozenset(
            {5353, 17500}
        )


def while_active(client, change, port):
    """An app opening or closing a socket, as user activity (§III-B:
    ports change only in active mode). Wakes the system, makes the
    change once ACTIVE, and holds a wakelock so the normal suspend path
    re-reports when it expires."""

    def run():
        client.power.request_wake()

        def apply():
            change(port)
            client.wakelock.acquire()

        client.power.when_active(apply)

    return run


class TestPortChurn:
    """§III-B: the AP's view follows the client's sockets as they change."""

    def test_ap_table_follows_app_lifecycle(self):
        sim, medium, ap, (client,) = make_network(
            [ClientPolicy.HIDE], open_ports=(), tau=0.2
        )
        sim.schedule(1.0, while_active(client, client.open_port, 5353))
        sim.schedule(5.0, while_active(client, client.open_port, 1900))
        sim.schedule(10.0, while_active(client, client.close_port, 5353))
        sim.run(until=15.0)
        # After all the churn settles, the AP has exactly the open port.
        assert ap.port_table.ports_for_client(client.aid) == frozenset({1900})
        assert client.power.state is PowerState.SUSPENDED

    def test_new_app_changes_filtering(self):
        sim, medium, ap, (client,) = make_network(
            [ClientPolicy.HIDE], open_ports=(), tau=0.2
        )
        # No socket on 5353 yet: the client sleeps through mDNS.
        inject(sim, ap, 2.0, port=5353)
        sim.schedule(4.0, while_active(client, client.open_port, 5353))
        inject(sim, ap, 6.0, port=5353)
        sim.run(until=10.0)
        assert client.counters.useful_frames_received == 1
        assert client.counters.broadcast_frames_ignored >= 1

    def test_stopping_app_stops_wakeups(self):
        sim, medium, ap, (client,) = make_network([ClientPolicy.HIDE], tau=0.2)
        sim.schedule(3.0, while_active(client, client.close_port, 5353))
        for i in range(8):
            inject(sim, ap, 5.0 + i, port=5353)
        sim.run(until=4.5)
        resumes_before = client.power.counters.resumes
        sim.run(until=15.0)
        # All post-close mDNS ignored: no useful frames, no wakeups.
        assert client.power.counters.resumes == resumes_before
        assert client.counters.useful_frames_received == 0
        assert client.counters.broadcast_frames_ignored >= 8
        assert ap.port_table.ports_for_client(client.aid) == frozenset()
