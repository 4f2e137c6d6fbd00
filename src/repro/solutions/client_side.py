"""The client-side filtering baseline ([6], INFOCOM 2015) — lower bound.

The smartphone still receives every broadcast frame, but the WiFi
driver checks usefulness before taking the one-second wakelock: useless
frames are dropped and the system returns to suspend immediately. The
paper compares against this solution's *lower bound*, modelled here as
a zero-length wakelock for useless frames — the wake-up (resume +
suspend) cost remains, which is exactly why client-side filtering does
poorly on devices with expensive state transfers (Galaxy S4).
"""

from __future__ import annotations

from typing import Sequence

from repro.energy.dynamics import FrameEvent
from repro.energy.profile import DeviceEnergyProfile
from repro.solutions.base import Solution, SolutionPlan


class ClientSideSolution(Solution):
    name = "client-side"

    def plan(
        self, events: Sequence[FrameEvent], profile: DeviceEnergyProfile
    ) -> SolutionPlan:
        tau = profile.wakelock_timeout_s

        def wakelock_for(event: FrameEvent) -> float:
            return tau if event.useful else 0.0

        return list(events), wakelock_for, None
