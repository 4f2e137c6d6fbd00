"""Extension experiment: fleet energy vs HIDE adoption, measured in the DES.

The paper evaluates one client at a time against traces; this experiment
runs an actual BSS — one AP, a population of phones with mixed service
interests — and sweeps what fraction of the phones run HIDE, metering
every phone with :func:`~repro.energy.meter.client_counts`. It
answers the deployment question the paper's Section V only brushes:
what does *partial* adoption buy the fleet?

(The DES is expensive relative to the closed form, so the default
workload is minutes, not the traces' full hour.)
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.ap.access_point import AccessPoint, ApConfig
from repro.dot11.mac_address import MacAddress
from repro.energy.components import price
from repro.energy.meter import client_counts
from repro.energy.profile import DeviceEnergyProfile, NEXUS_ONE
from repro.errors import ConfigurationError
from repro.net.packet import build_broadcast_udp_packet
from repro.net.ports import WELL_KNOWN_BROADCAST_SERVICES
from repro.reporting import render_table
from repro.sim.engine import Simulator
from repro.sim.medium import Medium
from repro.station.client import Client, ClientConfig, ClientPolicy

AP_MAC = MacAddress.from_string("02:aa:00:00:00:01")
WIRED = MacAddress.from_string("02:bb:00:00:00:99")

#: Services phones in the sweep may care about.
_INTERESTS: Tuple[Tuple[int, ...], ...] = ((5353,), (1900,), (17500,), ())


@dataclass(frozen=True)
class AdoptionPoint:
    """One swept adoption level."""

    hide_fraction: float
    clients: int
    mean_power_mw: float
    mean_hide_power_mw: float
    mean_legacy_power_mw: float
    mean_suspend_fraction: float


@dataclass(frozen=True)
class AdoptionResult:
    device: str
    duration_s: float
    points: Tuple[AdoptionPoint, ...]


def _run_bss(
    hide_count: int,
    total_clients: int,
    duration_s: float,
    profile: DeviceEnergyProfile,
    seed: int,
) -> Tuple[List[Client], List[ClientPolicy]]:
    sim = Simulator()
    medium = Medium(sim)
    ap = AccessPoint(AP_MAC, medium, ApConfig())
    medium.attach(ap)
    rng = random.Random(seed)

    clients: List[Client] = []
    policies: List[ClientPolicy] = []
    for index in range(total_clients):
        policy = (
            ClientPolicy.HIDE if index < hide_count else ClientPolicy.RECEIVE_ALL
        )
        mac = MacAddress.station(index + 1)
        client = Client(
            mac, medium, AP_MAC,
            ClientConfig(
                policy=policy,
                wakelock_timeout_s=profile.wakelock_timeout_s,
                resume_duration_s=profile.resume_duration_s,
                suspend_duration_s=profile.suspend_duration_s,
            ),
        )
        medium.attach(client)
        record = ap.associate(mac, hide_capable=policy is ClientPolicy.HIDE)
        client.set_aid(record.aid)
        for port in _INTERESTS[index % len(_INTERESTS)]:
            client.open_port(port)
        clients.append(client)
        policies.append(policy)

    # Broadcast chatter: a weighted mix of services at ~2 frames/s.
    ports = sorted(WELL_KNOWN_BROADCAST_SERVICES)
    weights = [WELL_KNOWN_BROADCAST_SERVICES[p].traffic_weight for p in ports]
    time = 0.0
    while True:
        time += rng.expovariate(2.0)
        if time >= duration_s:
            break
        port = rng.choices(ports, weights=weights, k=1)[0]
        packet = build_broadcast_udp_packet(port, b"x" * 120)
        sim.schedule(time, lambda p=packet: ap.deliver_from_ds(p, WIRED))

    sim.run(until=duration_s)
    return clients, policies


def compute(
    fractions: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0),
    total_clients: int = 8,
    duration_s: float = 120.0,
    profile: DeviceEnergyProfile = NEXUS_ONE,
    seed: int = 202,
) -> AdoptionResult:
    if total_clients < 1:
        raise ConfigurationError("need at least one client")
    if duration_s <= 0:
        raise ConfigurationError("duration must be positive")
    points: List[AdoptionPoint] = []
    for fraction in fractions:
        if not 0.0 <= fraction <= 1.0:
            raise ConfigurationError(f"fraction out of range: {fraction}")
        hide_count = round(fraction * total_clients)
        clients, policies = _run_bss(
            hide_count, total_clients, duration_s, profile, seed
        )
        powers = []
        hide_powers = []
        legacy_powers = []
        suspend_fractions = []
        for client, policy in zip(clients, policies):
            breakdown = price(client_counts(client, duration_s), profile)
            power_mw = breakdown.average_power_w * 1e3
            powers.append(power_mw)
            if policy is ClientPolicy.HIDE:
                hide_powers.append(power_mw)
            else:
                legacy_powers.append(power_mw)
            suspend_fractions.append(client.suspend_fraction(duration_s))
        points.append(
            AdoptionPoint(
                hide_fraction=hide_count / total_clients,
                clients=total_clients,
                mean_power_mw=sum(powers) / len(powers),
                mean_hide_power_mw=(
                    sum(hide_powers) / len(hide_powers) if hide_powers else 0.0
                ),
                mean_legacy_power_mw=(
                    sum(legacy_powers) / len(legacy_powers)
                    if legacy_powers
                    else 0.0
                ),
                mean_suspend_fraction=(
                    sum(suspend_fractions) / len(suspend_fractions)
                ),
            )
        )
    return AdoptionResult(
        device=profile.name, duration_s=duration_s, points=tuple(points)
    )


def render(result: Optional[AdoptionResult] = None) -> str:
    if result is None:
        result = compute()
    rows = [
        [
            f"{p.hide_fraction:.0%}",
            f"{p.mean_power_mw:.1f}",
            f"{p.mean_hide_power_mw:.1f}" if p.mean_hide_power_mw else "-",
            f"{p.mean_legacy_power_mw:.1f}" if p.mean_legacy_power_mw else "-",
            f"{p.mean_suspend_fraction:.1%}",
        ]
        for p in result.points
    ]
    return render_table(
        ["adoption", "fleet mW", "HIDE phones mW", "legacy mW", "suspended"],
        rows,
        title=(
            f"Extension: fleet average power vs HIDE adoption "
            f"(DES, {result.points[0].clients} phones, "
            f"{result.duration_s:.0f} s, {result.device})"
        ),
    )


def main() -> None:
    print(render())


if __name__ == "__main__":
    main()
