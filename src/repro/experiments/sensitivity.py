"""Sensitivity report: the design-space neighbourhood of the paper's
fixed operating points (not a paper figure; an extension)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.analysis.sensitivity import (
    DtimSweepPoint,
    ReportIntervalPoint,
    TauSweepPoint,
    sweep_dtim_period,
    sweep_report_interval,
)
from repro.energy.profile import NEXUS_ONE, DeviceEnergyProfile
from repro.experiments.context import EvaluationContext, default_context
from repro.reporting import render_table
from repro.solutions import HideSolution, ReceiveAllSolution, SolutionResult
from repro.traces.scenarios import ScenarioSpec, scenario_by_name

TAU_SWEEP_S: Tuple[float, ...] = (0.25, 0.5, 1.0, 2.0, 4.0)
DTIM_SWEEP: Tuple[int, ...] = (1, 2, 3)
INTERVAL_SWEEP_S: Tuple[float, ...] = (5.0, 10.0, 30.0, 60.0, 300.0, 600.0)


@dataclass(frozen=True)
class SensitivityResult:
    tau_points: Tuple[TauSweepPoint, ...]
    dtim_points: Tuple[DtimSweepPoint, ...]
    interval_points: Tuple[ReportIntervalPoint, ...]


def _cells(
    context: EvaluationContext,
    scenario: ScenarioSpec,
    profile: DeviceEnergyProfile,
) -> Tuple[SolutionResult, SolutionResult]:
    """Receive-all and HIDE at 10% useful, read through the context: at
    the paper's τ and DTIM period 1 these are Figure 7's cells."""
    return (
        context.solution_result(ReceiveAllSolution(), scenario, 0.10, profile),
        context.solution_result(HideSolution(), scenario, 0.10, profile),
    )


def compute(context: Optional[EvaluationContext] = None) -> SensitivityResult:
    context = context or default_context()
    cs_dept = scenario_by_name("CS_Dept")
    starbucks = scenario_by_name("Starbucks")
    return SensitivityResult(
        tau_points=tuple(
            TauSweepPoint(
                tau,
                *_cells(
                    context, cs_dept, NEXUS_ONE.with_overrides(wakelock_timeout_s=tau)
                ),
            )
            for tau in TAU_SWEEP_S
        ),
        # The context holds traces released at DTIM period 1 only.
        dtim_points=tuple(
            DtimSweepPoint(1, *_cells(context, starbucks, NEXUS_ONE))
            if period == 1
            else sweep_dtim_period(starbucks, NEXUS_ONE, 0.10, [period])[0]
            for period in DTIM_SWEEP
        ),
        interval_points=tuple(
            sweep_report_interval(NEXUS_ONE, INTERVAL_SWEEP_S)
        ),
    )


def render_tau_table(points: Sequence[TauSweepPoint]) -> str:
    return render_table(
        ["tau (s)", "receive-all mW", "HIDE mW", "saving"],
        [
            [
                f"{p.wakelock_timeout_s:g}",
                f"{p.receive_all.average_power_mw:.1f}",
                f"{p.hide.average_power_mw:.1f}",
                f"{p.saving:.1%}",
            ]
            for p in points
        ],
        title="Wakelock timeout sweep (CS_Dept @ 10% useful, Nexus One)",
    )


def render_dtim_table(points: Sequence[DtimSweepPoint]) -> str:
    return render_table(
        ["DTIM period", "receive-all mW", "HIDE mW", "saving"],
        [
            [
                str(p.dtim_period),
                f"{p.receive_all.average_power_mw:.1f}",
                f"{p.hide.average_power_mw:.1f}",
                f"{p.saving:.1%}",
            ]
            for p in points
        ],
        title="DTIM period sweep (Starbucks @ 10% useful, Nexus One)",
    )


def render_interval_table(points: Sequence[ReportIntervalPoint]) -> str:
    return render_table(
        ["1/f (s)", "client overhead (mW)", "RTT increase"],
        [
            [
                f"{p.interval_s:g}",
                f"{p.overhead_power_w * 1e3:.3f}",
                f"{p.delay_increase:.2%}",
            ]
            for p in points
        ],
        title="UDP Port Message interval trade-off",
    )


def render(result: Optional[SensitivityResult] = None) -> str:
    if result is None:
        result = compute()
    return "\n\n".join(
        [
            "Sensitivity analyses (extension; not a paper figure)",
            render_tau_table(result.tau_points),
            render_dtim_table(result.dtim_points),
            render_interval_table(result.interval_points),
        ]
    )


def main() -> None:
    print(render())


if __name__ == "__main__":
    main()
