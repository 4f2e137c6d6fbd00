"""End-to-end DES runs of the full HIDE protocol."""

import pytest

from repro.ap.access_point import AccessPoint, ApConfig
from repro.dot11.mac_address import MacAddress
from repro.energy.profile import NEXUS_ONE
from repro.net.packet import build_broadcast_udp_packet
from repro.sim.engine import Simulator
from repro.sim.medium import Medium
from repro.station.client import Client, ClientConfig, ClientPolicy

AP_MAC = MacAddress.from_string("02:aa:00:00:00:01")
WIRED_SRC = MacAddress.from_string("02:bb:00:00:00:99")


def build_network(client_specs, hide_ap=True):
    """client_specs: list of (policy, open_ports)."""
    sim = Simulator()
    medium = Medium(sim)
    ap = AccessPoint(AP_MAC, medium, ApConfig(hide_enabled=hide_ap))
    medium.attach(ap)
    clients = []
    for index, (policy, ports) in enumerate(client_specs):
        mac = MacAddress.station(index + 1)
        client = Client(
            mac, medium, AP_MAC,
            ClientConfig(
                policy=policy,
                profile=NEXUS_ONE.with_overrides(wakelock_timeout_s=0.3),
            ),
        )
        medium.attach(client)
        record = ap.associate(mac, hide_capable=policy is ClientPolicy.HIDE)
        client.set_aid(record.aid)
        for port in ports:
            client.open_port(port)
        clients.append(client)
    return sim, medium, ap, clients


def schedule_traffic(sim, ap, traffic):
    """traffic: list of (time, port)."""
    for time, port in traffic:
        packet = build_broadcast_udp_packet(port, b"svc-announce")
        sim.schedule(time, lambda p=packet: ap.deliver_from_ds(p, WIRED_SRC))


class TestSelectiveWakeup:
    def test_each_client_gets_exactly_its_services(self):
        sim, medium, ap, (mdns_client, ssdp_client, silent_client) = build_network(
            [
                (ClientPolicy.HIDE, [5353]),
                (ClientPolicy.HIDE, [1900]),
                (ClientPolicy.HIDE, []),
            ]
        )
        traffic = [(0.2 + 0.5 * i, 5353 if i % 2 == 0 else 1900) for i in range(20)]
        schedule_traffic(sim, ap, traffic)
        sim.run(until=15.0)

        assert mdns_client.counters.useful_frames_received == 10
        assert ssdp_client.counters.useful_frames_received == 10
        assert silent_client.counters.broadcast_frames_received == 0
        assert silent_client.power.counters.resumes == 0
        assert silent_client.suspend_fraction() > 0.95

    def test_all_broadcast_frames_still_air(self):
        # HIDE never drops frames; it only hides their presence.
        sim, medium, ap, clients = build_network([(ClientPolicy.HIDE, [])])
        schedule_traffic(sim, ap, [(0.1 * i, 137) for i in range(1, 11)])
        sim.run(until=5.0)
        assert ap.counters.broadcast_frames_sent == 10

    def test_suspend_fraction_ordering_across_policies(self):
        sim, medium, ap, (hide, client_side, receive_all) = build_network(
            [
                (ClientPolicy.HIDE, [5353]),
                (ClientPolicy.CLIENT_SIDE, [5353]),
                (ClientPolicy.RECEIVE_ALL, [5353]),
            ]
        )
        # Mostly useless traffic with a little mDNS.
        traffic = [(0.3 * i, 5353 if i % 10 == 0 else 137) for i in range(1, 60)]
        schedule_traffic(sim, ap, traffic)
        sim.run(until=25.0)

        assert hide.suspend_fraction() >= client_side.suspend_fraction()
        assert client_side.suspend_fraction() >= receive_all.suspend_fraction()
        # Receive-all and client-side radios saw everything.
        assert receive_all.counters.broadcast_frames_received == 59
        assert client_side.counters.broadcast_frames_received == 59
        # HIDE's radio only came up for bursts containing useful frames.
        assert hide.counters.broadcast_frames_received < 59

    def test_hide_client_never_misses_useful_frames(self):
        sim, medium, ap, (client,) = build_network([(ClientPolicy.HIDE, [5353])])
        useful_times = [0.4 * i for i in range(1, 30)]
        schedule_traffic(sim, ap, [(t, 5353) for t in useful_times])
        schedule_traffic(sim, ap, [(t + 0.05, 137) for t in useful_times])
        sim.run(until=20.0)
        assert client.counters.useful_frames_received == 29
        assert client.counters.frames_delivered_to_apps == 29


class TestLegacyCoexistence:
    def test_legacy_client_unaffected_by_btim(self):
        # A legacy (receive-all) client under a HIDE AP must behave as
        # under a plain AP: TIM group bit drives it.
        sim_h, _, ap_h, (legacy_h,) = build_network(
            [(ClientPolicy.RECEIVE_ALL, [5353])], hide_ap=True
        )
        schedule_traffic(sim_h, ap_h, [(0.5, 137), (1.7, 1900)])
        sim_h.run(until=5.0)

        sim_p, _, ap_p, (legacy_p,) = build_network(
            [(ClientPolicy.RECEIVE_ALL, [5353])], hide_ap=False
        )
        schedule_traffic(sim_p, ap_p, [(0.5, 137), (1.7, 1900)])
        sim_p.run(until=5.0)

        assert (
            legacy_h.counters.broadcast_frames_received
            == legacy_p.counters.broadcast_frames_received
            == 2
        )
        assert legacy_h.power.counters.resumes == legacy_p.power.counters.resumes

    def test_mixed_population(self):
        sim, medium, ap, (hide, legacy) = build_network(
            [(ClientPolicy.HIDE, [5353]), (ClientPolicy.RECEIVE_ALL, [5353])]
        )
        schedule_traffic(sim, ap, [(0.5, 137), (1.5, 137), (2.5, 5353)])
        sim.run(until=8.0)
        assert legacy.counters.broadcast_frames_received == 3
        assert hide.counters.broadcast_frames_received == 1
        assert hide.counters.useful_frames_received == 1


class TestProtocolAccounting:
    def test_port_message_flow(self):
        sim, medium, ap, (client,) = build_network([(ClientPolicy.HIDE, [5353])])
        schedule_traffic(sim, ap, [(1.0, 5353), (3.0, 5353)])
        sim.run(until=10.0)
        # Initial suspend entry + one re-entry per wake-up.
        assert client.counters.port_messages_sent >= 3
        assert ap.counters.port_messages_received == client.counters.port_messages_sent
        assert ap.counters.acks_sent == ap.counters.port_messages_received
        assert client.counters.acks_received == ap.counters.acks_sent

    def test_ap_and_client_frame_counters_agree(self):
        sim, medium, ap, (client,) = build_network(
            [(ClientPolicy.RECEIVE_ALL, [])]
        )
        schedule_traffic(sim, ap, [(0.2 * i, 137) for i in range(1, 21)])
        sim.run(until=10.0)
        assert ap.counters.broadcast_frames_sent == 20
        assert client.counters.broadcast_frames_received == 20

    def test_long_run_stability(self):
        sim, medium, ap, clients = build_network(
            [(ClientPolicy.HIDE, [5353]), (ClientPolicy.CLIENT_SIDE, [1900])]
        )
        schedule_traffic(
            sim, ap, [(0.37 * i, [137, 5353, 1900][i % 3]) for i in range(1, 150)]
        )
        sim.run(until=120.0)
        # Sanity: the simulation drained and the clients ended suspended.
        from repro.station.power import PowerState

        for client in clients:
            assert client.power.state is PowerState.SUSPENDED
