"""Sensitivity analyses around the paper's fixed design points.

The paper evaluates at one wakelock timeout (τ = 1 s), one DTIM period
(with typical values "1-3"), one report interval (10 s), and five
useful fractions. These sweeps quantify how the conclusions move when
those knobs do — the ablations DESIGN.md commits to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.analysis.delay import DelayAnalysis
from repro.energy.model import HideOverheadParams
from repro.energy.profile import DeviceEnergyProfile
from repro.errors import ConfigurationError
from repro.solutions.base import SolutionResult
from repro.solutions.hide import HideSolution
from repro.solutions.receive_all import ReceiveAllSolution
from repro.traces.generators import generate_trace
from repro.traces.scenarios import ScenarioSpec
from repro.traces.trace import BroadcastTrace
from repro.traces.usefulness import (
    MASK_SEED,
    UsefulnessAssignment,
    clustered_fraction_mask,
)


@dataclass(frozen=True)
class TauSweepPoint:
    """HIDE vs receive-all at one wakelock timeout."""

    wakelock_timeout_s: float
    receive_all: SolutionResult
    hide: SolutionResult

    @property
    def saving(self) -> float:
        return self.hide.savings_vs(self.receive_all)


def sweep_wakelock_timeout(
    trace: BroadcastTrace,
    assignment: UsefulnessAssignment,
    profile: DeviceEnergyProfile,
    timeouts_s: Sequence[float],
) -> List[TauSweepPoint]:
    """How does the driver's wakelock τ shape the savings?

    Longer wakelocks inflate the receive-all baseline faster than HIDE
    (HIDE holds far fewer of them), so the relative saving grows with τ.
    """
    if not timeouts_s:
        raise ConfigurationError("need at least one timeout to sweep")
    points = []
    for timeout in timeouts_s:
        if timeout < 0:
            raise ConfigurationError(f"negative wakelock timeout: {timeout}")
        modified = profile.with_overrides(wakelock_timeout_s=timeout)
        points.append(
            TauSweepPoint(
                wakelock_timeout_s=timeout,
                receive_all=ReceiveAllSolution().evaluate(trace, assignment, modified),
                hide=HideSolution().evaluate(trace, assignment, modified),
            )
        )
    return points


@dataclass(frozen=True)
class DtimSweepPoint:
    """Energy at one DTIM period (trace regenerated per period, since
    the release schedule changes with it)."""

    dtim_period: int
    receive_all: SolutionResult
    hide: SolutionResult

    @property
    def saving(self) -> float:
        return self.hide.savings_vs(self.receive_all)


def sweep_dtim_period(
    scenario: ScenarioSpec,
    profile: DeviceEnergyProfile,
    fraction: float,
    dtim_periods: Sequence[int],
) -> List[DtimSweepPoint]:
    """Sweep the AP's DTIM period (the paper cites typical values 1-3).

    Larger periods batch broadcast traffic into rarer, bigger bursts:
    fewer wake-ups for everyone, at the cost of delivery latency.
    """
    if not dtim_periods:
        raise ConfigurationError("need at least one DTIM period")
    points = []
    for period in dtim_periods:
        if period < 1:
            raise ConfigurationError(f"DTIM period must be >= 1: {period}")
        trace = generate_trace(scenario, dtim_period=period)
        assignment = clustered_fraction_mask(trace, fraction, seed=MASK_SEED)
        points.append(
            DtimSweepPoint(
                dtim_period=period,
                receive_all=ReceiveAllSolution().evaluate(
                    trace, assignment, profile, dtim_period=period
                ),
                hide=HideSolution().evaluate(
                    trace, assignment, profile, dtim_period=period
                ),
            )
        )
    return points


@dataclass(frozen=True)
class ReportIntervalPoint:
    """The 1/f trade-off: client energy overhead vs network delay."""

    interval_s: float
    overhead_power_w: float
    delay_increase: float


def sweep_report_interval(
    profile: DeviceEnergyProfile,
    intervals_s: Sequence[float],
    ports_per_message: int = 100,
    stations: int = 50,
    hide_fraction: float = 0.5,
    open_ports_per_client: int = 50,
) -> List[ReportIntervalPoint]:
    """Sending UDP Port Messages more often costs both client transmit
    energy (E_o^2) and AP processing delay (t_1); this sweep exposes
    the joint trade-off the operator tunes."""
    if not intervals_s:
        raise ConfigurationError("need at least one interval")
    delay = DelayAnalysis()
    points = []
    for interval in intervals_s:
        overhead = HideOverheadParams(
            port_message_interval_s=interval, ports_per_message=ports_per_message
        )
        message_power = (
            profile.tx_power_w * overhead.message_airtime_s / interval
        )
        result = delay.evaluate(
            stations,
            hide_fraction=hide_fraction,
            port_message_interval_s=interval,
            open_ports_per_client=open_ports_per_client,
        )
        points.append(
            ReportIntervalPoint(
                interval_s=interval,
                overhead_power_w=message_power,
                delay_increase=result.delay_increase,
            )
        )
    return points
