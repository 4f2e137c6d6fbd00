"""Shared evaluation context: traces, masks, and solution results.

Generating a scenario trace takes a noticeable fraction of a second and
evaluating a solution on it several, so the context memoizes traces,
usefulness masks and solution results across the experiment modules
that share them: Figure 9 and the headline check read the cells of
Figures 7 and 8 instead of evaluating them again.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Sequence, Tuple

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
    """Caches traces, masks and solution results for one experiment run."""

    def __init__(
        self,
        scenarios: Sequence[ScenarioSpec] = PAPER_SCENARIOS,
        fractions: Sequence[float] = USEFUL_FRACTIONS,
    ) -> None:
        self.scenarios = tuple(scenarios)
        self.fractions = tuple(fractions)
        self._traces: Dict[str, BroadcastTrace] = {}
        self._masks: Dict[Tuple[str, float], UsefulnessAssignment] = {}
        self._results: Dict[Hashable, SolutionResult] = {}

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
        reference = self.fractions[0]
        return [
            self.solution_result(ReceiveAllSolution(), scenario, reference, profile),
            self.solution_result(ClientSideSolution(), scenario, reference, profile),
        ] + [
            self.solution_result(HideSolution(), scenario, fraction, profile)
            for fraction in self.fractions
        ]

    def solution_result(
        self,
        solution: Solution,
        scenario: ScenarioSpec,
        fraction: float,
        profile: DeviceEnergyProfile,
    ) -> SolutionResult:
        """``solution`` evaluated on ``scenario`` at ``fraction`` useful,
        once per context. The key holds the solution's class and settings
        and the profile's values: :meth:`DeviceEnergyProfile.with_overrides`
        keeps the name."""
        key = (
            type(solution),
            tuple(sorted(vars(solution).items())),
            scenario.name,
            fraction,
            profile,
        )
        if key not in self._results:
            self._results[key] = solution.evaluate(
                self.trace(scenario), self.mask(scenario, fraction), profile
            )
        return self._results[key]


def default_context() -> EvaluationContext:
    """A fresh context over the five paper scenarios."""
    return EvaluationContext()
