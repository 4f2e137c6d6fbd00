"""Energy counts of DES clients.

The closed-form model (Section IV) counts from a frame trace; this
module counts from what a simulated client *actually did*: its
power-state history, its wakelock holds, its radio receive activity,
and its protocol overhead counters. Both hand the same
:class:`~repro.energy.components.EnergyCounts` to
:func:`~repro.energy.components.price`, which lets tests pin the DES
and the analytic model against each other, and lets users meter
protocol scenarios the closed form cannot express (retransmissions,
PS-Poll exchanges, mixed client populations).

Count mapping to Eq. (2):

* E_b   — beacons the client's radio received;
* E_f   — received data frames, each at a mean airtime (idle listening
  between burst frames is below the meter's resolution here; the DES
  delivers frames back-to-back);
* E_st  — resumes and (completed + aborted) suspends from the power
  state machine's counters;
* E_wl  — wakelock-held time;
* E_o   — UDP Port Message airtime, and the DTIM beacons whose BTIM a
  HIDE client read.
"""

from __future__ import annotations

from repro.energy.components import EnergyCounts
from repro.errors import SimulationError
from repro.station.client import Client, ClientPolicy
from repro.station.power import PowerState
from repro.units import MANAGEMENT_RATE_BPS, PHY_OVERHEAD_S

#: Received data frames are counted at this mean size (bytes) ...
AVG_RECEIVED_FRAME_BYTES = 250
#: ... and at this rate: the 1 Mb/s basic rate broadcasts go out at.
AVG_DATA_RATE_BPS = 1_000_000.0


def client_counts(client: Client, duration_s: float) -> EnergyCounts:
    """What ``client`` did over its first ``duration_s`` simulated seconds."""
    if client.power is None or client.wakelock is None:
        raise SimulationError("client has not been attached to a simulator")
    if duration_s <= 0:
        raise SimulationError("nothing to meter: no simulated time elapsed")
    counters = client.counters
    power = client.power.counters
    frames = counters.broadcast_frames_received + counters.unicast_frames_received
    frame_airtime = PHY_OVERHEAD_S + AVG_RECEIVED_FRAME_BYTES * 8 / AVG_DATA_RATE_BPS
    tsp = client.config.profile.suspend_duration_s
    if client.config.policy is ClientPolicy.HIDE:
        btim_beacons = counters.dtims_received
        report_airtime_s = (
            counters.port_message_bytes_sent * 8 / MANAGEMENT_RATE_BPS
            + counters.port_messages_sent * PHY_OVERHEAD_S
        )
    else:
        btim_beacons = 0
        report_airtime_s = 0.0
    return EnergyCounts(
        duration_s=duration_s,
        beacons=counters.beacons_received,
        btim_beacons=btim_beacons,
        receive_s=frames * frame_airtime,
        idle_listen_s=0.0,
        resumes=power.resumes,
        suspends_completed=power.suspends_completed,
        aborted_suspends=power.aborted_suspend_time / tsp if tsp > 0 else 0.0,
        wakelock_s=client.wakelock.total_held_time(),
        report_airtime_s=report_airtime_s,
        suspended_s=client.power.time_in_state(PowerState.SUSPENDED),
    )
