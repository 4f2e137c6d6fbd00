"""The common solution interface and result record."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.energy.components import EnergyBreakdown
from repro.energy.dynamics import FrameEvent
from repro.energy.model import EnergyModel, HideOverheadParams
from repro.energy.profile import DeviceEnergyProfile
from repro.energy.timeline import build_timeline
from repro.traces.trace import BroadcastTrace
from repro.traces.usefulness import UsefulnessAssignment


@dataclass(frozen=True)
class SolutionResult:
    """Everything one (solution, trace, device) evaluation produces."""

    solution: str
    trace_name: str
    device: str
    useful_fraction: float
    breakdown: EnergyBreakdown
    #: Fraction of the window in suspend mode (Figure 9), read off the
    #: evaluation's power timeline; the timeline itself is not kept.
    suspend_fraction: float
    received_frames: int
    total_frames: int

    @property
    def average_power_mw(self) -> float:
        return self.breakdown.average_power_w * 1e3

    def savings_vs(self, baseline: "SolutionResult") -> float:
        return self.breakdown.savings_vs(baseline.breakdown)


#: (received events, per-frame wakelock override, overhead params).
SolutionPlan = Tuple[
    List[FrameEvent],
    Optional[Callable[[FrameEvent], float]],
    Optional[HideOverheadParams],
]


class Solution(abc.ABC):
    """A broadcast-handling strategy evaluated under the Section IV model."""

    name: str = "abstract"

    @abc.abstractmethod
    def plan(
        self, events: Sequence[FrameEvent], profile: DeviceEnergyProfile
    ) -> SolutionPlan:
        """Decide which frames the client receives, the per-frame
        wakelock rule, and any protocol overhead."""

    def evaluate(
        self,
        trace: BroadcastTrace,
        assignment: UsefulnessAssignment,
        profile: DeviceEnergyProfile,
        dtim_period: int = 1,
    ) -> SolutionResult:
        """Run the full pipeline: plan → closed-form model → timeline."""
        events = trace.to_events(assignment.mask)
        received, wakelock_fn, overhead = self.plan(events, profile)
        model = EnergyModel(profile, dtim_period=dtim_period)
        dynamics = model.derive_dynamics(received, wakelock_fn)
        breakdown = model.evaluate(
            received, trace.duration_s, dynamics=dynamics, overhead=overhead
        )
        timeline = build_timeline(dynamics, profile, trace.duration_s)
        return SolutionResult(
            solution=self.name,
            trace_name=trace.name,
            device=profile.name,
            useful_fraction=assignment.achieved_fraction,
            breakdown=breakdown,
            suspend_fraction=timeline.suspend_fraction,
            received_frames=len(received),
            total_frames=len(events),
        )
