"""The closed form of Section IV: Eqs. (3)-(19) counted from a frame list.

:class:`EnergyModel` counts what one client does handling a stream of
received broadcast frames over an observation window, and prices the
counts with :func:`repro.energy.components.price`. What to feed it is
the *solution's* choice (see :mod:`repro.solutions`): the receive-all
and client-side baselines pass every frame in the trace; HIDE passes
only the useful ones plus an overhead description.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.dot11.sizes import FCS_BYTES, MAC_HEADER_BYTES
from repro.energy.components import EnergyBreakdown, EnergyCounts, price
from repro.energy.dynamics import (
    FrameDynamics,
    FrameEvent,
    derive_frame_dynamics,
)
from repro.energy.profile import DeviceEnergyProfile
from repro.errors import ConfigurationError
from repro.units import BEACON_INTERVAL_S, MANAGEMENT_RATE_BPS, PHY_OVERHEAD_S


@dataclass(frozen=True)
class HideOverheadParams:
    """The UDP Port Message inputs to E_o (Eqs. 16-19).

    Defaults follow the paper's evaluation settings: a UDP Port Message
    every 10 s carrying 100 ports at the lowest rate (1 Mb/s) — "able to
    represent smartphones in heavy usage".
    """

    port_message_interval_s: float = 10.0
    ports_per_message: int = 100

    def __post_init__(self) -> None:
        if self.port_message_interval_s <= 0:
            raise ConfigurationError("port message interval must be positive")
        if self.ports_per_message < 0:
            raise ConfigurationError("ports per message must be non-negative")

    @property
    def message_length_bytes(self) -> int:
        """Eq. (19): MAC overhead + 2 fixed bytes + 2 bytes per port.

        (The PHY preamble is time, not bytes; it enters via airtime.)
        """
        return MAC_HEADER_BYTES + FCS_BYTES + 2 + 2 * self.ports_per_message

    @property
    def message_airtime_s(self) -> float:
        return PHY_OVERHEAD_S + self.message_length_bytes * 8 / MANAGEMENT_RATE_BPS


class EnergyModel:
    """Evaluate Section IV for one device profile and beacon schedule."""

    def __init__(self, profile: DeviceEnergyProfile, dtim_period: int = 1) -> None:
        """The station receives every beacon, the paper's default."""
        if dtim_period < 1:
            raise ConfigurationError("DTIM period must be at least 1")
        self.profile = profile
        self.dtim_period = dtim_period

    def beacon_count(self, duration_s: float) -> int:
        """Beacons received during [0, duration)."""
        return max(1, math.ceil(duration_s / BEACON_INTERVAL_S))

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

    def counts(
        self,
        frames: Sequence[FrameEvent],
        duration_s: float,
        dynamics: Optional[Sequence[FrameDynamics]] = None,
        overhead: Optional[HideOverheadParams] = None,
    ) -> EnergyCounts:
        """Count Eqs. (3)-(19) over the window in one pass.

        ``dynamics`` is :meth:`derive_dynamics` of ``frames``, for a
        caller that reuses it; it is derived with the device τ when
        omitted. Every float is a left-to-right ``+=`` fold, so the
        counts do not depend on the interpreter's ``sum()``.

        Each suspended arrival is one resume and one completed suspend
        (the window's trailing suspend balances the one before t = 0).
        Suspended time walks the awake episodes the dynamics describe:
        a suspended arrival ends a suspended run at its receive instant
        and opens a resume; within an episode, the gap between lock
        coverage and the next frame is an (aborted) suspend; the
        episode closes with a completed suspend, T_sp after it went
        idle. Every instant is clamped to the window.
        """
        if duration_s <= 0:
            raise ConfigurationError("duration must be positive")
        if dynamics is None:
            dynamics = self.derive_dynamics(frames)
        if len(dynamics) != len(frames):
            raise ConfigurationError("dynamics must describe the frames")
        tsp = self.profile.suspend_duration_s

        receive_s = 0.0
        idle_listen_s = 0.0
        # t_f (Eq. 9), from each beacon to its first frame, is folded
        # in after every t_d (Eq. 10), in interval order.
        first_frame_waits: List[float] = []
        last_interval = -1
        resumes = 0
        aborted_suspends = 0.0
        wakelock_s = 0.0
        clock = _SuspendedClock(duration_s)
        previous_awake_until: Optional[float] = None

        for index, (frame, dyn) in enumerate(zip(frames, dynamics)):
            receive_s += frame.transmission_time
            interval = int(frame.time / BEACON_INTERVAL_S)
            if interval != last_interval:
                first_frame_waits.append(
                    max(0.0, frame.time - interval * BEACON_INTERVAL_S)
                )
                last_interval = interval
            if frame.more_data:
                interval_end = (interval + 1) * BEACON_INTERVAL_S
                if index + 1 < len(frames):
                    next_event = min(frames[index + 1].time, interval_end)
                else:
                    next_event = interval_end
                idle_listen_s += max(0.0, next_event - frame.rx_complete)
            wakelock_s += dyn.coverage_increment
            aborted_suspends += dyn.aborted_suspend_fraction

            if dyn.suspended_on_arrival:
                resumes += 1
                if previous_awake_until is not None:
                    clock.advance(False, previous_awake_until + tsp)
                clock.advance(True, dyn.event.rx_complete)
            # Resuming, or suspending until this frame aborted it.
            clock.advance(False, dyn.wakelock_start)
            clock.advance(False, dyn.wakelock_start + dyn.wakelock_timeout)
            previous_awake_until = dyn.awake_until

        if previous_awake_until is not None:
            clock.advance(False, previous_awake_until + tsp)
        for wait in first_frame_waits:
            idle_listen_s += wait

        beacons = self.beacon_count(duration_s)
        if overhead is None:
            btim_beacons = 0.0
            report_airtime_s = 0.0
        else:
            btim_beacons = beacons / self.dtim_period
            # One transmission per report: the paper's lossless channel.
            report_airtime_s = (
                duration_s / overhead.port_message_interval_s
            ) * overhead.message_airtime_s
        return EnergyCounts(
            duration_s=duration_s,
            beacons=beacons,
            btim_beacons=btim_beacons,
            receive_s=receive_s,
            idle_listen_s=idle_listen_s,
            resumes=resumes,
            suspends_completed=resumes,
            aborted_suspends=aborted_suspends,
            wakelock_s=wakelock_s,
            report_airtime_s=report_airtime_s,
            suspended_s=clock.finish(),
        )

    def evaluate(
        self,
        frames: Sequence[FrameEvent],
        duration_s: float,
        dynamics: Optional[Sequence[FrameDynamics]] = None,
        overhead: Optional[HideOverheadParams] = None,
    ) -> EnergyBreakdown:
        """Eq. (2): E = E_b + E_f + E_wl + E_st + E_o over the window,
        priced from :meth:`counts` of the same arguments."""
        return price(
            self.counts(frames, duration_s, dynamics, overhead), self.profile
        )


class _SuspendedClock:
    """Lays the window out from 0 as suspended and awake runs and folds
    each suspended run's length as it closes (Figure 9's numerator).

    An instant past the window is clamped to its end; one at or before
    the cursor lays nothing out, so it neither opens nor closes a run.
    """

    __slots__ = ("_duration", "_cursor", "_run_start", "_suspended", "_total")

    def __init__(self, duration_s: float) -> None:
        self._duration = duration_s
        self._cursor = 0.0
        self._run_start = 0.0
        self._suspended = False
        self._total = 0.0

    def advance(self, suspended: bool, end: float) -> None:
        """Lay the window out up to ``end`` in one state."""
        end = min(end, self._duration)
        if end <= self._cursor:
            return
        if suspended is not self._suspended:
            if self._suspended:
                self._total += self._cursor - self._run_start
            self._suspended = suspended
            self._run_start = self._cursor
        self._cursor = end

    def finish(self) -> float:
        """Suspend for the rest of the window; the suspended seconds."""
        self.advance(True, self._duration)
        if self._suspended:
            self._total += self._cursor - self._run_start
        return self._total
