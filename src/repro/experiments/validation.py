"""Extension experiment: closed-form model vs discrete-event simulation.

The paper evaluates through the Section IV closed form; this repository
also implements the protocol event by event. Running both on the *same*
on-air frame schedule and comparing what they say about the client is
the strongest internal-validity check available: two independent
implementations of the physics must agree on wake-up counts, wakelock
time, and suspend fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.ap.access_point import AccessPoint, ApConfig
from repro.dot11.data import DataFrame
from repro.dot11.mac_address import MacAddress
from repro.energy.dynamics import FrameEvent
from repro.energy.model import EnergyModel
from repro.energy.profile import DeviceEnergyProfile, NEXUS_ONE
from repro.errors import ConfigurationError
from repro.net.packet import build_broadcast_udp_packet
from repro.reporting import render_table
from repro.sim.engine import Simulator
from repro.sim.medium import Medium
from repro.sim.sniffer import ProtocolSniffer
from repro.station.client import Client, ClientConfig, ClientPolicy

AP_MAC = MacAddress.from_string("02:aa:00:00:00:01")
WIRED = MacAddress.from_string("02:bb:00:00:00:99")

USEFUL_PORT = 5353
USELESS_PORT = 137


@dataclass(frozen=True)
class AgreementRow:
    """One compared quantity for one policy."""

    policy: str
    quantity: str
    des_value: float
    model_value: float

    @property
    def absolute_error(self) -> float:
        return abs(self.des_value - self.model_value)

    @property
    def relative_error(self) -> float:
        scale = max(abs(self.model_value), 1e-12)
        return self.absolute_error / scale


@dataclass(frozen=True)
class ValidationResult:
    device: str
    duration_s: float
    rows: Tuple[AgreementRow, ...]

    def max_relative_error(self, quantity: str) -> float:
        return max(r.relative_error for r in self.rows if r.quantity == quantity)


def _offered_schedule(duration_s: float) -> List[Tuple[float, int]]:
    """A deterministic mix: singletons, a burst, and mixed usefulness."""
    schedule: List[Tuple[float, int]] = []
    time = 1.0
    index = 0
    while time < duration_s - 2.0:
        if index % 7 == 3:
            # A burst of four frames, one useful.
            for offset, port in (
                (0.00, USELESS_PORT),
                (0.01, USEFUL_PORT),
                (0.02, USELESS_PORT),
                (0.03, USELESS_PORT),
            ):
                schedule.append((time + offset, port))
        else:
            port = USEFUL_PORT if index % 3 == 0 else USELESS_PORT
            schedule.append((time, port))
        time += 1.7 if index % 2 == 0 else 3.1
        index += 1
    return schedule


def _run_des(policy: ClientPolicy, duration_s: float, profile: DeviceEnergyProfile):
    sim = Simulator()
    medium = Medium(sim)
    ap = AccessPoint(AP_MAC, medium, ApConfig())
    medium.attach(ap)
    client = Client(
        MacAddress.station(1), medium, AP_MAC,
        ClientConfig(
            policy=policy,
            wakelock_timeout_s=profile.wakelock_timeout_s,
            resume_duration_s=profile.resume_duration_s,
            suspend_duration_s=profile.suspend_duration_s,
        ),
    )
    medium.attach(client)
    record = ap.associate(client.mac, hide_capable=True)
    client.set_aid(record.aid)
    client.open_port(USEFUL_PORT)
    sniffer = ProtocolSniffer(frame_filter=(DataFrame,))
    medium.attach(sniffer)
    for time, port in _offered_schedule(duration_s):
        packet = build_broadcast_udp_packet(port, b"x" * 120)
        sim.schedule(time, lambda p=packet: ap.deliver_from_ds(p, WIRED))
    sim.run(until=duration_s)
    return client, sniffer


def _events_from_capture(sniffer, useful_only: bool) -> List[FrameEvent]:
    events = []
    for captured in sniffer.captures:
        frame = captured.frame
        if not frame.is_broadcast:
            continue
        port = frame.udp_dst_port()
        useful = port == USEFUL_PORT
        if useful_only and not useful:
            continue
        events.append(
            FrameEvent(
                time=captured.time,
                length_bytes=captured.length_bytes,
                rate_bps=captured.rate_bps,
                useful=useful,
                more_data=frame.more_data,
            )
        )
    return events


def compute(
    duration_s: float = 60.0, profile: DeviceEnergyProfile = NEXUS_ONE
) -> ValidationResult:
    if duration_s <= 10.0:
        raise ConfigurationError("need a non-trivial window to validate over")
    rows: List[AgreementRow] = []
    model = EnergyModel(profile)
    tau = profile.wakelock_timeout_s

    for policy, useful_only, wakelock_fn in (
        (ClientPolicy.RECEIVE_ALL, False, None),
        (ClientPolicy.CLIENT_SIDE, False,
         lambda e: tau if e.useful else 0.0),
        (ClientPolicy.HIDE, True, None),
    ):
        client, sniffer = _run_des(policy, duration_s, profile)
        events = _events_from_capture(sniffer, useful_only=useful_only)
        counts = model.counts(
            events, duration_s, model.derive_dynamics(events, wakelock_fn)
        )

        rows.append(
            AgreementRow(
                policy=policy.value,
                quantity="resumes",
                des_value=float(client.power.counters.resumes),
                model_value=float(counts.resumes),
            )
        )
        rows.append(
            AgreementRow(
                policy=policy.value,
                quantity="wakelock_s",
                des_value=client.wakelock.total_held_time(),
                model_value=counts.wakelock_s,
            )
        )
        rows.append(
            AgreementRow(
                policy=policy.value,
                quantity="suspend_fraction",
                des_value=client.suspend_fraction(duration_s),
                model_value=counts.suspend_fraction,
            )
        )
    return ValidationResult(
        device=profile.name, duration_s=duration_s, rows=tuple(rows)
    )


def render(result: Optional[ValidationResult] = None) -> str:
    if result is None:
        result = compute()
    table_rows = [
        [
            row.policy,
            row.quantity,
            f"{row.des_value:.3f}",
            f"{row.model_value:.3f}",
            f"{row.relative_error:.1%}",
        ]
        for row in result.rows
    ]
    return render_table(
        ["policy", "quantity", "DES", "closed form", "rel. error"],
        table_rows,
        title=(
            f"Extension: DES vs Section IV closed form on one schedule "
            f"({result.duration_s:.0f} s, {result.device})"
        ),
    )


def main() -> None:
    print(render())


if __name__ == "__main__":
    main()
