"""Component energies — Eqs. (2), (6)-(19) of the paper.

:class:`EnergyModel` evaluates one client's energy for handling a
stream of received broadcast frames over an observation window. What to
feed it is the *solution's* choice (see :mod:`repro.solutions`): the
receive-all and client-side baselines pass every frame in the trace;
HIDE passes only the useful ones plus an overhead description.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.dot11.sizes import FCS_BYTES, MAC_HEADER_BYTES
from repro.energy.components import EnergyBreakdown
from repro.energy.dynamics import (
    FrameDynamics,
    FrameEvent,
    derive_frame_dynamics,
)
from repro.energy.profile import DeviceEnergyProfile
from repro.errors import ConfigurationError
from repro.units import BEACON_INTERVAL_S, PHY_OVERHEAD_S, mbps


@dataclass(frozen=True)
class HideOverheadParams:
    """Inputs to E_o (Eqs. 15-19).

    Defaults follow the paper's evaluation settings: a UDP Port Message
    every 10 s carrying 100 ports at the lowest rate (1 Mb/s) — "able to
    represent smartphones in heavy usage".
    """

    port_message_interval_s: float = 10.0
    ports_per_message: int = 100
    message_rate_bps: float = mbps(1)
    #: On-air bytes of the BTIM element added to each DTIM beacon.
    btim_bytes: int = 6
    #: Standard (pre-HIDE) beacon length used to prorate E_b^u per byte.
    standard_beacon_bytes: int = 65

    def __post_init__(self) -> None:
        if self.port_message_interval_s <= 0:
            raise ConfigurationError("port message interval must be positive")
        if self.ports_per_message < 0:
            raise ConfigurationError("ports per message must be non-negative")
        if self.message_rate_bps <= 0:
            raise ConfigurationError("message rate must be positive")
        if self.btim_bytes < 0 or self.standard_beacon_bytes <= 0:
            raise ConfigurationError("bad beacon size parameters")

    @classmethod
    def for_bss(
        cls,
        station_count: int,
        flagged_fraction: float = 0.2,
        **kwargs,
    ) -> "HideOverheadParams":
        """Overhead params with the BTIM size computed from a *real*
        encoded element for a BSS of ``station_count`` clients with
        ``flagged_fraction`` of them flagged — instead of the default
        6-byte estimate. Uses a worst-case-spread AID pattern (every
        (1/fraction)-th AID set), which defeats the offset compression
        and upper-bounds the element length."""
        from repro.dot11.elements.btim import BtimElement

        if station_count < 0:
            raise ConfigurationError("station count must be non-negative")
        if not 0.0 <= flagged_fraction <= 1.0:
            raise ConfigurationError("flagged fraction must be in [0, 1]")
        flagged_count = round(station_count * flagged_fraction)
        if flagged_count > 0:
            step = max(1, int(1 / max(flagged_fraction, 1e-9)))
            aids = frozenset(
                1 + i * step for i in range(flagged_count) if 1 + i * step <= 2007
            )
            btim_bytes = BtimElement(aids).encoded_length
        else:
            btim_bytes = BtimElement().encoded_length
        return cls(btim_bytes=btim_bytes, **kwargs)

    @property
    def message_length_bytes(self) -> int:
        """Eq. (19): MAC overhead + 2 fixed bytes + 2 bytes per port.

        (The PHY preamble is time, not bytes; it enters via airtime.)
        """
        return MAC_HEADER_BYTES + FCS_BYTES + 2 + 2 * self.ports_per_message

    @property
    def message_airtime_s(self) -> float:
        return PHY_OVERHEAD_S + self.message_length_bytes * 8 / self.message_rate_bps


class EnergyModel:
    """Evaluate Section IV for one device profile and beacon schedule."""

    def __init__(self, profile: DeviceEnergyProfile, dtim_period: int = 1) -> None:
        """The station receives every beacon, the paper's default."""
        if dtim_period < 1:
            raise ConfigurationError("DTIM period must be at least 1")
        self.profile = profile
        self.dtim_period = dtim_period

    # -- helpers -----------------------------------------------------

    def beacon_count(self, duration_s: float) -> int:
        """Beacons received during [0, duration)."""
        return max(1, math.ceil(duration_s / BEACON_INTERVAL_S))

    def beacon_index(self, time_s: float) -> int:
        """Which beacon interval b_i a time falls in (0-based)."""
        return int(time_s / BEACON_INTERVAL_S)

    def derive_dynamics(
        self,
        frames: Sequence[FrameEvent],
        wakelock_for_frame: Optional[Callable[[FrameEvent], float]] = None,
    ) -> List[FrameDynamics]:
        return derive_frame_dynamics(
            frames,
            wakelock_timeout_s=self.profile.wakelock_timeout_s,
            resume_duration_s=self.profile.resume_duration_s,
            suspend_duration_s=self.profile.suspend_duration_s,
            wakelock_for_frame=wakelock_for_frame,
        )

    # -- component energies ------------------------------------------

    def beacon_energy(self, duration_s: float) -> float:
        """E_b (Eq. 6): all beacons in the window, every solution alike."""
        return self.profile.beacon_rx_j * self.beacon_count(duration_s)

    def receive_energy(self, frames: Sequence[FrameEvent], duration_s: float) -> float:
        """E_f (Eq. 7): transmission time at P_r plus idle listening at
        P_idle — both the post-DTIM wait for the first frame (t_f) and
        the more-data gaps between frames (t_d)."""
        rx_time = sum(frame.transmission_time for frame in frames)

        idle_time = 0.0
        first_frame_in_interval: Dict[int, float] = {}
        for index, frame in enumerate(frames):
            interval = self.beacon_index(frame.time)
            if interval not in first_frame_in_interval:
                first_frame_in_interval[interval] = frame.time
            if frame.more_data:
                interval_end = (interval + 1) * BEACON_INTERVAL_S
                if index + 1 < len(frames):
                    next_event = min(frames[index + 1].time, interval_end)
                else:
                    next_event = interval_end
                idle_time += max(0.0, next_event - frame.rx_complete)
        # t_f (Eq. 9): from each beacon to its first broadcast frame.
        for interval, first_time in first_frame_in_interval.items():
            idle_time += max(0.0, first_time - interval * BEACON_INTERVAL_S)

        return self.profile.rx_power_w * rx_time + self.profile.idle_power_w * idle_time

    def wakelock_energy(self, dynamics: Sequence[FrameDynamics]) -> float:
        """E_wl (Eq. 12): active-idle power over all wakelock-held time
        (the union of the per-frame locks; equals Σ t_wl of Eq. 4)."""
        return self.profile.active_idle_power_w * sum(
            d.coverage_increment for d in dynamics
        )

    def state_transfer_energy(self, dynamics: Sequence[FrameDynamics]) -> float:
        """E_st (Eq. 13): full resume+suspend per suspended arrival, plus
        partial suspends aborted by awake arrivals."""
        suspended_arrivals = sum(1 for d in dynamics if d.suspended_on_arrival)
        aborted = sum(d.aborted_suspend_fraction for d in dynamics)
        return (
            (self.profile.resume_energy_j + self.profile.suspend_energy_j)
            * suspended_arrivals
            + self.profile.suspend_energy_j * aborted
        )

    def overhead_energy(
        self, overhead: Optional[HideOverheadParams], duration_s: float
    ) -> float:
        """E_o (Eqs. 15-19): zero unless HIDE overhead params are given."""
        if overhead is None:
            return 0.0
        dtim_count = self.beacon_count(duration_s) / self.dtim_period
        btim_energy = (
            self.profile.beacon_rx_j
            * (overhead.btim_bytes / overhead.standard_beacon_bytes)
            * dtim_count
        )
        # One transmission per report: the paper's lossless channel.
        message_count = duration_s / overhead.port_message_interval_s
        message_energy = (
            message_count * self.profile.tx_power_w * overhead.message_airtime_s
        )
        return btim_energy + message_energy

    # -- the full evaluation -------------------------------------------

    def evaluate(
        self,
        frames: Sequence[FrameEvent],
        duration_s: float,
        dynamics: Optional[Sequence[FrameDynamics]] = None,
        overhead: Optional[HideOverheadParams] = None,
    ) -> EnergyBreakdown:
        """Eq. (2): E = E_b + E_f + E_wl + E_st + E_o over the window.

        ``dynamics`` is :meth:`derive_dynamics` of ``frames``, for a
        caller that reuses it; it is derived with the device τ when
        omitted.
        """
        if duration_s <= 0:
            raise ConfigurationError("duration must be positive")
        if dynamics is None:
            dynamics = self.derive_dynamics(frames)
        return EnergyBreakdown(
            beacon_j=self.beacon_energy(duration_s),
            receive_j=self.receive_energy(frames, duration_s),
            state_transfer_j=self.state_transfer_energy(dynamics),
            wakelock_j=self.wakelock_energy(dynamics),
            overhead_j=self.overhead_energy(overhead, duration_s),
            duration_s=duration_s,
        )
