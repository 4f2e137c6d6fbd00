"""The DES energy counts, and their agreement with the closed-form model."""

import pytest

from repro.ap.access_point import AccessPoint, ApConfig
from repro.dot11.mac_address import MacAddress
from repro.energy.components import price
from repro.energy.meter import client_counts
from repro.energy.profile import NEXUS_ONE
from repro.errors import SimulationError
from repro.net.packet import build_broadcast_udp_packet
from repro.sim.engine import Simulator
from repro.sim.medium import Medium
from repro.station.client import Client, ClientConfig, ClientPolicy
from repro.station.power import PowerState

AP_MAC = MacAddress.from_string("02:aa:00:00:00:01")
WIRED_SRC = MacAddress.from_string("02:bb:00:00:00:99")


def run_scenario(policy, traffic, duration=20.0, open_ports=(5353,)):
    sim = Simulator()
    medium = Medium(sim)
    ap = AccessPoint(AP_MAC, medium, ApConfig())
    medium.attach(ap)
    client = Client(
        MacAddress.station(1), medium, AP_MAC,
        ClientConfig(
            profile=NEXUS_ONE,
            policy=policy,
        ),
    )
    medium.attach(client)
    record = ap.associate(client.mac, hide_capable=True)
    client.set_aid(record.aid)
    for port in open_ports:
        client.open_port(port)
    for time, port in traffic:
        packet = build_broadcast_udp_packet(port, b"x" * 150)
        sim.schedule(time, lambda p=packet: ap.deliver_from_ds(p, WIRED_SRC))
    sim.run(until=duration)
    return client


def meter(client):
    return price(client_counts(client, 20.0), NEXUS_ONE)


TRAFFIC = [(1.0, 5353), (4.0, 137), (8.0, 5353), (8.01, 137), (14.0, 5353)]


class TestMeter:
    def test_components_non_negative(self):
        client = run_scenario(ClientPolicy.RECEIVE_ALL, TRAFFIC)
        b = meter(client)
        assert b.beacon_j > 0
        assert b.receive_j > 0
        assert b.state_transfer_j > 0
        assert b.wakelock_j > 0
        assert b.overhead_j == 0.0  # receive-all sends no port messages

    def test_hide_pays_overhead(self):
        client = run_scenario(ClientPolicy.HIDE, TRAFFIC)
        assert meter(client).overhead_j > 0

    def test_hide_meters_below_receive_all(self):
        receive_all = run_scenario(ClientPolicy.RECEIVE_ALL, TRAFFIC)
        hide = run_scenario(ClientPolicy.HIDE, TRAFFIC)
        assert meter(hide).total_j < meter(receive_all).total_j

    def test_wakelock_energy_matches_hold_time(self):
        client = run_scenario(ClientPolicy.RECEIVE_ALL, TRAFFIC)
        assert meter(client).wakelock_j == pytest.approx(
            NEXUS_ONE.active_idle_power_w * client.wakelock.total_held_time()
        )

    def test_state_transfer_counts_aborts(self):
        # 8.0 and 8.01 are back-to-back: the second frame may abort the
        # first's suspend path depending on timing; either way the meter
        # must charge resumes * Erm + completed * Esp exactly.
        client = run_scenario(ClientPolicy.CLIENT_SIDE, TRAFFIC)
        power = client.power.counters
        expected_minimum = (
            NEXUS_ONE.resume_energy_j * power.resumes
            + NEXUS_ONE.suspend_energy_j * power.suspends_completed
        )
        assert meter(client).state_transfer_j >= expected_minimum

    def test_counts_read_the_client(self):
        client = run_scenario(ClientPolicy.HIDE, TRAFFIC)
        counts = client_counts(client, 20.0)
        assert counts.beacons == client.counters.beacons_received
        assert counts.btim_beacons == client.counters.dtims_received
        assert counts.resumes == client.power.counters.resumes
        assert counts.suspended_s == client.power.time_in_state(
            PowerState.SUSPENDED
        )
        assert counts.suspend_fraction == client.suspend_fraction(20.0)
        assert counts.report_airtime_s > 0
        idle = client_counts(run_scenario(ClientPolicy.RECEIVE_ALL, TRAFFIC), 20.0)
        assert idle.btim_beacons == 0 and idle.report_airtime_s == 0.0

    def test_agreement_with_closed_form_wakelock_and_transitions(self):
        """DES meter vs Section IV closed form on the same frame schedule."""
        from repro.energy.model import EnergyModel
        from repro.energy.dynamics import FrameEvent
        from repro.units import mbps

        client = run_scenario(ClientPolicy.RECEIVE_ALL, TRAFFIC)
        metered = meter(client)

        # Reconstruct the model's view from the known on-air schedule:
        # frames land just after the DTIM following their offered time.
        model = EnergyModel(NEXUS_ONE)
        events = []
        for time, port in TRAFFIC:
            dtim = (int(time / 0.1024) + 1) * 0.1024
            events.append(
                FrameEvent(
                    time=dtim + 0.001, length_bytes=214, rate_bps=mbps(1),
                    useful=port == 5353,
                )
            )
        events.sort(key=lambda e: e.time)
        closed_form = model.evaluate(events, 20.0)
        model_wl = closed_form.wakelock_j
        model_st = closed_form.state_transfer_j
        assert metered.wakelock_j == pytest.approx(model_wl, rel=0.05)
        assert metered.state_transfer_j == pytest.approx(
            model_st, rel=0.15
        )

    def test_unattached_client_rejected(self):
        sim = Simulator()
        medium = Medium(sim)
        client = Client(MacAddress.station(1), medium, AP_MAC)
        with pytest.raises(SimulationError):
            client_counts(client, 10.0)

    def test_zero_duration_rejected(self):
        client = run_scenario(ClientPolicy.HIDE, [])
        with pytest.raises(SimulationError):
            client_counts(client, 0.0)
