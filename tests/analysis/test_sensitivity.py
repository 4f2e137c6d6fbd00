import pytest

from repro.analysis.sensitivity import (
    sweep_dtim_period,
    sweep_report_interval,
    sweep_wakelock_timeout,
)
from repro.energy.profile import NEXUS_ONE
from repro.errors import ConfigurationError
from repro.traces.generators import generate_trace
from repro.traces.scenarios import ScenarioSpec
from repro.traces.usefulness import clustered_fraction_mask

SPEC = ScenarioSpec(
    name="sens", duration_s=240.0, quiet_rate_fps=0.6, burst_rate_fps=25.0,
    quiet_dwell_s=6.0, burst_dwell_s=1.0, seed=77,
)


@pytest.fixture(scope="module")
def trace():
    return generate_trace(SPEC)


@pytest.fixture(scope="module")
def mask(trace):
    return clustered_fraction_mask(trace, 0.10, seed=1)


class TestTauSweep:
    def test_receive_all_grows_with_tau(self, trace, mask):
        points = sweep_wakelock_timeout(trace, mask, NEXUS_ONE, [0.25, 1.0, 4.0])
        totals = [p.receive_all.breakdown.total_j for p in points]
        assert totals == sorted(totals)

    def test_hide_energy_grows_with_tau(self, trace, mask):
        points = sweep_wakelock_timeout(trace, mask, NEXUS_ONE, [0.25, 1.0, 4.0])
        totals = [p.hide.breakdown.total_j for p in points]
        assert totals == sorted(totals)

    def test_saving_peaks_at_moderate_tau(self, trace, mask):
        # Relative savings are hump-shaped: tiny wakelocks leave little
        # for HIDE to save; huge wakelocks keep even HIDE awake between
        # its (fewer) useful frames. The paper's 1 s sits near the top.
        points = sweep_wakelock_timeout(
            trace, mask, NEXUS_ONE, [0.25, 1.0, 4.0]
        )
        small, moderate, huge = (p.saving for p in points)
        assert all(p.saving > 0 for p in points)
        assert moderate >= small - 0.02
        assert moderate >= huge

    def test_paper_tau_point_included(self, trace, mask):
        (point,) = sweep_wakelock_timeout(trace, mask, NEXUS_ONE, [1.0])
        assert point.wakelock_timeout_s == 1.0
        assert 0.0 < point.saving < 1.0

    def test_validation(self, trace, mask):
        with pytest.raises(ConfigurationError):
            sweep_wakelock_timeout(trace, mask, NEXUS_ONE, [])
        with pytest.raises(ConfigurationError):
            sweep_wakelock_timeout(trace, mask, NEXUS_ONE, [-1.0])


class TestDtimSweep:
    def test_energy_insensitive_to_typical_dtim_periods(self):
        # With a 1 s wakelock, batching broadcast delivery into 102 vs
        # 307 ms DTIM windows barely moves the energy — which is why
        # the paper can treat "typical values 1-3" interchangeably.
        points = sweep_dtim_period(SPEC, NEXUS_ONE, 0.10, [1, 3])
        t1 = points[0].receive_all.breakdown.total_j
        t3 = points[1].receive_all.breakdown.total_j
        assert abs(t3 - t1) / t1 < 0.05

    def test_hide_still_wins_at_every_period(self):
        for point in sweep_dtim_period(SPEC, NEXUS_ONE, 0.10, [1, 2, 3]):
            assert point.saving > 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            sweep_dtim_period(SPEC, NEXUS_ONE, 0.10, [])
        with pytest.raises(ConfigurationError):
            sweep_dtim_period(SPEC, NEXUS_ONE, 0.10, [0])


class TestReportIntervalSweep:
    def test_both_costs_fall_with_interval(self):
        points = sweep_report_interval(NEXUS_ONE, [10.0, 60.0, 600.0])
        powers = [p.overhead_power_w for p in points]
        delays = [p.delay_increase for p in points]
        assert powers == sorted(powers, reverse=True)
        assert delays == sorted(delays, reverse=True)

    def test_paper_point_overhead_small(self):
        (point,) = sweep_report_interval(NEXUS_ONE, [10.0])
        # E_o^2 at the paper's heavy-usage setting: well under 1 mW.
        assert point.overhead_power_w < 1e-3

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            sweep_report_interval(NEXUS_ONE, [])
