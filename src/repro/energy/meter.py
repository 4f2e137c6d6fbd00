"""Energy metering for DES clients.

The closed-form model (Section IV) computes energy from a frame trace;
this meter computes it from what a simulated client *actually did*:
its power-state history, its wakelock holds, its radio receive/transmit
activity, and its protocol overhead counters. Having both lets tests
pin the DES and the analytic model against each other, and lets users
meter arbitrary protocol scenarios the closed form cannot express
(retransmissions, PS-Poll exchanges, mixed client populations).

Component mapping to Eq. (2):

* E_b   — beacons the client's radio received, at E_b^u each;
* E_f   — airtime of received data frames at P_r (idle listening
  between burst frames is below the meter's resolution here; the DES
  delivers frames back-to-back);
* E_st  — resumes and (completed + aborted) suspends from the power
  state machine's counters;
* E_wl  — wakelock-held time at P_sa;
* E_o   — UDP Port Message airtime at P_t plus BTIM bytes at prorated
  E_b^u (HIDE clients only).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.dot11.sizes import standard_beacon_length
from repro.energy.components import EnergyBreakdown
from repro.energy.profile import DeviceEnergyProfile
from repro.errors import SimulationError
from repro.station.client import MANAGEMENT_RATE_BPS, Client, ClientPolicy
from repro.station.power import PowerState
from repro.units import PHY_OVERHEAD_S

#: Received data frames are priced at this mean size (bytes) ...
AVG_RECEIVED_FRAME_BYTES = 250
#: ... and at this rate: the 1 Mb/s basic rate broadcasts go out at.
AVG_DATA_RATE_BPS = 1_000_000.0
#: BTIM bytes a HIDE client's DTIM beacon carries, prorated at E_b^u.
BTIM_BYTES = 6


@dataclass(frozen=True)
class MeteredEnergy:
    """A breakdown plus the platform-baseline energy the closed form
    leaves out (P_ss while suspended, so totals can be compared to a
    whole-device power budget)."""

    breakdown: EnergyBreakdown
    platform_baseline_j: float


class ClientEnergyMeter:
    """Meters one DES client against a device profile."""

    def __init__(self, client: Client, profile: DeviceEnergyProfile) -> None:
        self.client = client
        self.profile = profile

    def measure(self, duration_s: Optional[float] = None) -> MeteredEnergy:
        client = self.client
        profile = self.profile
        if client.power is None or client.wakelock is None:
            raise SimulationError("client has not been attached to a simulator")
        elapsed = duration_s if duration_s is not None else client.simulator.now
        if elapsed <= 0:
            raise SimulationError("nothing to meter: no simulated time elapsed")

        beacon_j = profile.beacon_rx_j * client.counters.beacons_received

        frames = (
            client.counters.broadcast_frames_received
            + client.counters.unicast_frames_received
        )
        frame_airtime = (
            PHY_OVERHEAD_S + AVG_RECEIVED_FRAME_BYTES * 8 / AVG_DATA_RATE_BPS
        )
        receive_j = profile.rx_power_w * frames * frame_airtime

        power = client.power.counters
        state_transfer_j = (
            profile.resume_energy_j * power.resumes
            + profile.suspend_energy_j * power.suspends_completed
            + profile.suspend_energy_j
            * (
                power.aborted_suspend_time / profile.suspend_duration_s
                if profile.suspend_duration_s > 0
                else 0.0
            )
        )

        wakelock_j = profile.active_idle_power_w * client.wakelock.total_held_time()

        overhead_j = 0.0
        if client.config.policy is ClientPolicy.HIDE:
            message_seconds = (
                client.counters.port_message_bytes_sent
                * 8
                / MANAGEMENT_RATE_BPS
                + client.counters.port_messages_sent * PHY_OVERHEAD_S
            )
            overhead_j += profile.tx_power_w * message_seconds
            overhead_j += (
                profile.beacon_rx_j
                * (BTIM_BYTES / standard_beacon_length())
                * client.counters.dtims_received
            )

        breakdown = EnergyBreakdown(
            beacon_j=beacon_j,
            receive_j=receive_j,
            state_transfer_j=state_transfer_j,
            wakelock_j=wakelock_j,
            overhead_j=overhead_j,
            duration_s=elapsed,
        )
        platform_baseline_j = profile.suspend_power_w * client.power.time_in_state(
            PowerState.SUSPENDED
        )
        return MeteredEnergy(
            breakdown=breakdown, platform_baseline_j=platform_baseline_j
        )
