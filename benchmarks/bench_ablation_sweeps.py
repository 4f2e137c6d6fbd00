"""Ablations: wakelock timeout, DTIM period, and report-interval sweeps.

These quantify the design-space neighbourhood around the paper's fixed
operating points (τ = 1 s, DTIM period 1, 10 s reports).
"""

from repro.analysis.sensitivity import (
    sweep_dtim_period,
    sweep_report_interval,
    sweep_wakelock_timeout,
)
from repro.energy.profile import NEXUS_ONE
from repro.experiments import sensitivity
from repro.traces.scenarios import scenario_by_name


def test_wakelock_timeout_sweep(benchmark, context, record_result):
    scenario = scenario_by_name("CS_Dept")
    trace = context.trace(scenario)
    mask = context.mask(scenario, 0.10)

    points = benchmark.pedantic(
        sweep_wakelock_timeout,
        args=(trace, mask, NEXUS_ONE, sensitivity.TAU_SWEEP_S),
        rounds=1,
        iterations=1,
    )
    record_result("ablation_tau", sensitivity.render_tau_table(points))
    # Both solutions cost more as tau grows; HIDE wins everywhere.
    ra = [p.receive_all.breakdown.total_j for p in points]
    hide = [p.hide.breakdown.total_j for p in points]
    assert ra == sorted(ra)
    assert hide == sorted(hide)
    assert all(p.saving > 0 for p in points)


def test_dtim_period_sweep(benchmark, record_result):
    scenario = scenario_by_name("Starbucks")
    points = benchmark.pedantic(
        sweep_dtim_period,
        args=(scenario, NEXUS_ONE, 0.10, sensitivity.DTIM_SWEEP),
        rounds=1,
        iterations=1,
    )
    record_result("ablation_dtim", sensitivity.render_dtim_table(points))
    assert all(p.saving > 0 for p in points)


def test_report_interval_sweep(benchmark, record_result):
    points = benchmark(
        sweep_report_interval, NEXUS_ONE, sensitivity.INTERVAL_SWEEP_S
    )
    record_result(
        "ablation_report_interval", sensitivity.render_interval_table(points)
    )
    # Both costs fall monotonically as reports slow down.
    powers = [p.overhead_power_w for p in points]
    delays = [p.delay_increase for p in points]
    assert powers == sorted(powers, reverse=True)
    assert delays == sorted(delays, reverse=True)
    # Even the fastest setting is an energy non-event (< 1 mW).
    assert powers[0] < 1e-3
