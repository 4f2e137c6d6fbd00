"""Cross-validation: the DES and the closed-form model must agree.

The paper's evaluation is trace-driven through the Section IV closed
form; the DES implements the same protocol mechanics event by event.
Feeding both the same broadcast schedule must produce the same wake-up
counts and closely matching suspend fractions.
"""

import pytest

from repro.ap.access_point import AccessPoint, ApConfig
from repro.dot11.mac_address import MacAddress
from repro.energy.dynamics import FrameEvent
from repro.energy.model import EnergyModel
from repro.energy.profile import NEXUS_ONE
from repro.net.packet import build_broadcast_udp_packet
from repro.sim.engine import Simulator
from repro.sim.medium import Medium
from repro.station.client import Client, ClientConfig, ClientPolicy
from repro.units import mbps

AP_MAC = MacAddress.from_string("02:aa:00:00:00:01")
WIRED_SRC = MacAddress.from_string("02:bb:00:00:00:99")

USEFUL_PORT = 5353
USELESS_PORT = 137


def run_des(offered, policy, duration, tau=1.0):
    """Run the DES; returns (client, on-air schedule of received frames)."""
    sim = Simulator()
    medium = Medium(sim)
    ap = AccessPoint(AP_MAC, medium, ApConfig())
    medium.attach(ap)
    client = Client(
        MacAddress.station(1), medium, AP_MAC,
        ClientConfig(
            policy=policy,
            wakelock_timeout_s=tau,
            resume_duration_s=NEXUS_ONE.resume_duration_s,
            suspend_duration_s=NEXUS_ONE.suspend_duration_s,
        ),
    )
    medium.attach(client)
    record = ap.associate(client.mac, hide_capable=True)
    client.set_aid(record.aid)
    client.open_port(USEFUL_PORT)

    on_air = []

    from repro.dot11.data import DataFrame

    class AirSniffer:
        pass

    from repro.sim.entity import Entity

    class Sniffer(Entity):
        def on_receive(self, transmission):
            if isinstance(transmission.frame, DataFrame):
                on_air.append(
                    (
                        transmission.start_time,
                        transmission.frame,
                        transmission.length_bytes,
                        transmission.rate_bps,
                    )
                )

    medium.attach(Sniffer("sniffer"))
    for time, port in offered:
        packet = build_broadcast_udp_packet(port, b"x" * 100)
        sim.schedule(time, lambda p=packet: ap.deliver_from_ds(p, WIRED_SRC))
    sim.run(until=duration)
    return client, on_air


def events_from_air(on_air, useful_only):
    events = []
    for start, frame, length, rate in on_air:
        port = frame.udp_dst_port()
        useful = port == USEFUL_PORT
        if useful_only and not useful:
            continue
        events.append(
            FrameEvent(
                time=start,
                length_bytes=length,
                rate_bps=rate,
                useful=useful,
                more_data=frame.more_data,
            )
        )
    return events


# Offered schedule: sparse singletons + one burst, mixed usefulness.
OFFERED = (
    [(1.0, USEFUL_PORT), (4.0, USELESS_PORT), (7.5, USEFUL_PORT)]
    + [(12.0 + 0.01 * i, USELESS_PORT) for i in range(5)]
    + [(12.03, USEFUL_PORT), (20.0, USEFUL_PORT)]
)
DURATION = 30.0


class TestReceiveAllAgreement:
    def test_resume_count_matches_model(self):
        client, on_air = run_des(OFFERED, ClientPolicy.RECEIVE_ALL, DURATION)
        events = events_from_air(on_air, useful_only=False)
        model = EnergyModel(NEXUS_ONE)
        dynamics = model.derive_dynamics(events)
        model_resumes = sum(1 for d in dynamics if d.suspended_on_arrival)
        assert client.power.counters.resumes == model_resumes

    def test_suspend_fraction_close(self):
        client, on_air = run_des(OFFERED, ClientPolicy.RECEIVE_ALL, DURATION)
        events = events_from_air(on_air, useful_only=False)
        counts = EnergyModel(NEXUS_ONE).counts(events, DURATION)
        # The DES includes protocol details (ACK waits, boot-time
        # suspend entry) the closed form abstracts, so allow a few
        # percentage points.
        assert client.suspend_fraction(DURATION) == pytest.approx(
            counts.suspend_fraction, abs=0.05
        )

    def test_wakelock_time_close(self):
        client, on_air = run_des(OFFERED, ClientPolicy.RECEIVE_ALL, DURATION)
        events = events_from_air(on_air, useful_only=False)
        dynamics = EnergyModel(NEXUS_ONE).derive_dynamics(events)
        model_wl = sum(d.coverage_increment for d in dynamics)
        assert client.wakelock.total_held_time() == pytest.approx(
            model_wl, rel=0.05
        )


class TestHideAgreement:
    def test_useful_frame_count_matches_eq1(self):
        client, on_air = run_des(OFFERED, ClientPolicy.HIDE, DURATION)
        useful_offered = sum(1 for _, port in OFFERED if port == USEFUL_PORT)
        assert client.counters.useful_frames_received == useful_offered

    def test_des_hide_between_ideal_and_receive_all(self):
        client, on_air = run_des(OFFERED, ClientPolicy.HIDE, DURATION)
        ideal_events = events_from_air(on_air, useful_only=True)
        all_events = events_from_air(on_air, useful_only=False)
        model = EnergyModel(NEXUS_ONE)
        ideal = model.counts(ideal_events, DURATION)
        receive_all = model.counts(all_events, DURATION)
        des_fraction = client.suspend_fraction(DURATION)
        # Real HIDE receives whole bursts -> sleeps no more than the
        # Eq. (1) idealization and no less than receive-all.
        assert des_fraction <= ideal.suspend_fraction + 0.05
        assert des_fraction >= receive_all.suspend_fraction - 0.02

    def test_client_side_resumes_match_model(self):
        client, on_air = run_des(OFFERED, ClientPolicy.CLIENT_SIDE, DURATION)
        events = events_from_air(on_air, useful_only=False)
        model = EnergyModel(NEXUS_ONE)
        tau = NEXUS_ONE.wakelock_timeout_s
        dynamics = model.derive_dynamics(
            events, wakelock_for_frame=lambda e: tau if e.useful else 0.0
        )
        model_resumes = sum(1 for d in dynamics if d.suspended_on_arrival)
        assert client.power.counters.resumes == pytest.approx(model_resumes, abs=1)
