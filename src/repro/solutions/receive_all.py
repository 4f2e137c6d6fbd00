"""The receive-all baseline: what stock smartphones do today."""

from __future__ import annotations

from typing import Sequence

from repro.energy.dynamics import FrameEvent
from repro.energy.profile import DeviceEnergyProfile
from repro.solutions.base import Solution, SolutionPlan


class ReceiveAllSolution(Solution):
    """Every broadcast frame is received and triggers a full τ wakelock
    (the paper cites a one-second WiFi driver wakelock per frame)."""

    name = "receive-all"

    def plan(
        self, events: Sequence[FrameEvent], profile: DeviceEnergyProfile
    ) -> SolutionPlan:
        return list(events), None, None
