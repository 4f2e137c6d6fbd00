"""The unicast PS-Poll path, and a larger mixed-population BSS."""

import pytest

from repro.ap.access_point import AccessPoint, ApConfig
from repro.dot11.data import DataFrame
from repro.dot11.llc import LlcSnapHeader
from repro.dot11.mac_address import MacAddress
from repro.net.packet import build_broadcast_udp_packet
from repro.sim.engine import Simulator
from repro.sim.medium import Medium
from repro.station.client import Client, ClientConfig, ClientPolicy
from repro.station.power import PowerState

AP_MAC = MacAddress.from_string("02:aa:00:00:00:01")
WIRED_SRC = MacAddress.from_string("02:bb:00:00:00:99")


def unicast_frame(dest: MacAddress, payload=b"push!") -> DataFrame:
    return DataFrame(
        destination=dest,
        bssid=AP_MAC,
        source=WIRED_SRC,
        llc_payload=LlcSnapHeader.wrap(0x0800, payload),
    )


class TestUnicastPsPoll:
    def build(self):
        sim = Simulator()
        medium = Medium(sim)
        ap = AccessPoint(AP_MAC, medium, ApConfig())
        medium.attach(ap)
        client = Client(
            MacAddress.station(1), medium, AP_MAC,
            ClientConfig(policy=ClientPolicy.HIDE, wakelock_timeout_s=0.3),
        )
        medium.attach(client)
        record = ap.associate(client.mac, hide_capable=True)
        client.set_aid(record.aid)
        return sim, medium, ap, client

    def test_buffered_unicast_retrieved_via_ps_poll(self):
        sim, medium, ap, client = self.build()
        frame = unicast_frame(client.mac)
        sim.schedule(0.5, lambda: ap.deliver_unicast_from_ds(frame))
        sim.run(until=3.0)
        assert client.counters.unicast_frames_received == 1
        assert client.counters.ps_polls_sent >= 1
        assert ap.counters.ps_polls_received == client.counters.ps_polls_sent
        assert ap.counters.unicast_frames_sent == 1

    def test_multiple_buffered_unicast_frames_drain(self):
        sim, medium, ap, client = self.build()
        for i in range(3):
            frame = unicast_frame(client.mac, payload=b"m%d" % i)
            sim.schedule(0.5, lambda f=frame: ap.deliver_unicast_from_ds(f))
        sim.run(until=5.0)
        assert client.counters.unicast_frames_received == 3
        assert client.mac not in ap.unicast_buffer.clients_with_traffic()

    def test_unicast_wakes_suspended_client(self):
        sim, medium, ap, client = self.build()
        frame = unicast_frame(client.mac)
        sim.schedule(2.0, lambda: ap.deliver_unicast_from_ds(frame))
        sim.run(until=1.9)
        assert client.power.state is PowerState.SUSPENDED
        sim.run(until=6.0)
        assert client.power.counters.resumes >= 1
        assert client.power.state is PowerState.SUSPENDED  # back asleep

    def test_unicast_and_broadcast_coexist(self):
        sim, medium, ap, client = self.build()
        client.open_port(5353)
        packet = build_broadcast_udp_packet(5353, b"b")
        sim.schedule(0.5, lambda: ap.deliver_from_ds(packet, WIRED_SRC))
        frame = unicast_frame(client.mac)
        sim.schedule(0.52, lambda: ap.deliver_unicast_from_ds(frame))
        sim.run(until=4.0)
        assert client.counters.useful_frames_received == 1
        assert client.counters.unicast_frames_received == 1


class TestScale:
    def test_twenty_client_bss(self):
        """A realistic BSS: 20 phones, 3 policies, 4 services."""
        sim = Simulator()
        medium = Medium(sim)
        ap = AccessPoint(AP_MAC, medium, ApConfig())
        medium.attach(ap)

        ports_by_group = {0: [5353], 1: [1900], 2: [17500], 3: []}
        policies = [
            ClientPolicy.HIDE, ClientPolicy.HIDE, ClientPolicy.HIDE,
            ClientPolicy.CLIENT_SIDE, ClientPolicy.RECEIVE_ALL,
        ]
        clients = []
        for index in range(20):
            mac = MacAddress.station(index + 1)
            policy = policies[index % len(policies)]
            client = Client(
                mac, medium, AP_MAC,
                ClientConfig(policy=policy, wakelock_timeout_s=0.3),
            )
            medium.attach(client)
            record = ap.associate(mac, hide_capable=policy is ClientPolicy.HIDE)
            client.set_aid(record.aid)
            for port in ports_by_group[index % 4]:
                client.open_port(port)
            clients.append(client)

        service_cycle = [5353, 1900, 137, 17500, 138]
        for i in range(60):
            packet = build_broadcast_udp_packet(
                service_cycle[i % len(service_cycle)], b"x" * 80
            )
            sim.schedule(
                0.4 * (i + 1), lambda p=packet: ap.deliver_from_ds(p, WIRED_SRC)
            )
        sim.run(until=30.0)

        # Every frame aired exactly once regardless of population.
        assert ap.counters.broadcast_frames_sent == 60

        hide_clients = [
            c for c in clients if c.config.policy is ClientPolicy.HIDE
        ]
        legacy_clients = [
            c for c in clients if c.config.policy is ClientPolicy.RECEIVE_ALL
        ]
        # Legacy clients all received everything.
        for client in legacy_clients:
            assert client.counters.broadcast_frames_received == 60
        # HIDE clients received at most what legacy did, and those with
        # no open ports received nothing.
        for client in hide_clients:
            assert client.counters.broadcast_frames_received <= 60
            if not client.sockets.reportable_ports():
                assert client.counters.broadcast_frames_received == 0
        # Every HIDE client got every frame for its service.
        per_service_counts = {5353: 12, 1900: 12, 17500: 12}
        for client in hide_clients:
            for port in client.sockets.reportable_ports():
                assert (
                    client.counters.useful_frames_received
                    == per_service_counts[port]
                )
        # The silent HIDE phones slept essentially the whole run.
        silent = [
            c for c in hide_clients if not c.sockets.reportable_ports()
        ]
        assert silent and all(c.suspend_fraction() > 0.9 for c in silent)
