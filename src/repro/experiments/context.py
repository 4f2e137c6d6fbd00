"""Shared evaluation context: traces, masks, and solution sweeps.

Generating a scenario trace takes a noticeable fraction of a second, so
the context memoizes traces and usefulness masks across the experiment
modules that share them (Figures 6-9 and the headline check).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.energy import DeviceEnergyProfile
from repro.solutions import (
    ClientSideSolution,
    HideSolution,
    ReceiveAllSolution,
    Solution,
    SolutionResult,
)
from repro.traces import (
    BroadcastTrace,
    PAPER_SCENARIOS,
    ScenarioSpec,
    UsefulnessAssignment,
    clustered_fraction_mask,
    generate_trace,
)
from repro.traces.usefulness import MASK_SEED

#: The useful-fraction sweep of Figures 7-8, in paper order.
USEFUL_FRACTIONS: Tuple[float, ...] = (0.10, 0.08, 0.06, 0.04, 0.02)


class EvaluationContext:
    """Caches traces and masks for one experiment run."""

    def __init__(
        self,
        scenarios: Sequence[ScenarioSpec] = PAPER_SCENARIOS,
        fractions: Sequence[float] = USEFUL_FRACTIONS,
    ) -> None:
        self.scenarios = tuple(scenarios)
        self.fractions = tuple(fractions)
        self._traces: Dict[str, BroadcastTrace] = {}
        self._masks: Dict[Tuple[str, float], UsefulnessAssignment] = {}

    def trace(self, scenario: ScenarioSpec) -> BroadcastTrace:
        if scenario.name not in self._traces:
            self._traces[scenario.name] = generate_trace(scenario)
        return self._traces[scenario.name]

    def mask(self, scenario: ScenarioSpec, fraction: float) -> UsefulnessAssignment:
        key = (scenario.name, fraction)
        if key not in self._masks:
            self._masks[key] = clustered_fraction_mask(
                self.trace(scenario), fraction, seed=MASK_SEED
            )
        return self._masks[key]

    # -- solution sweeps ------------------------------------------------

    def energy_bars(
        self, scenario: ScenarioSpec, profile: DeviceEnergyProfile
    ) -> List[SolutionResult]:
        """The seven bars of one Figure 7/8 subplot, in paper order:
        receive-all, client-side, HIDE at 10/8/6/4/2 % useful."""
        trace = self.trace(scenario)
        reference_mask = self.mask(scenario, self.fractions[0])
        bars: List[SolutionResult] = [
            ReceiveAllSolution().evaluate(trace, reference_mask, profile),
            ClientSideSolution().evaluate(trace, reference_mask, profile),
        ]
        for fraction in self.fractions:
            bars.append(
                HideSolution().evaluate(trace, self.mask(scenario, fraction), profile)
            )
        return bars

    def solution_result(
        self,
        solution: Solution,
        scenario: ScenarioSpec,
        fraction: float,
        profile: DeviceEnergyProfile,
    ) -> SolutionResult:
        return solution.evaluate(
            self.trace(scenario), self.mask(scenario, fraction), profile
        )


def default_context() -> EvaluationContext:
    """A fresh context over the five paper scenarios."""
    return EvaluationContext()
