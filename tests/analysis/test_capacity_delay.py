import pytest

from repro.analysis.capacity import CapacityAnalysis
from repro.analysis.delay import DEFAULT_RTT_S, DelayAnalysis
from repro.analysis.hash_timing import (
    CALIBRATED_AP_TIMINGS,
    HashTimingModel,
    measure_host_timings,
)
from repro.errors import ConfigurationError


class TestCapacity:
    def test_paper_headline_point(self):
        # 50 nodes, 75% HIDE-enabled: paper reports 0.13%.
        result = CapacityAnalysis().evaluate(50, 0.75, 10.0, 50)
        assert result.capacity_decrease == pytest.approx(0.0013, abs=0.0003)

    def test_decrease_below_half_percent_everywhere(self):
        # Figure 10's y-axis tops out at 0.5%.
        analysis = CapacityAnalysis()
        for result in analysis.sweep((5, 10, 20, 30, 40, 50), (0.05, 0.25, 0.5, 0.75)):
            assert result.capacity_decrease < 0.005

    def test_linear_in_nodes(self):
        analysis = CapacityAnalysis()
        d10 = analysis.evaluate(10, 0.5).capacity_decrease
        d50 = analysis.evaluate(50, 0.5).capacity_decrease
        # S1 is nearly flat in n, so the decrease is ~linear in N.
        assert d50 / d10 == pytest.approx(5.0, rel=0.1)

    def test_linear_in_hide_fraction(self):
        analysis = CapacityAnalysis()
        d25 = analysis.evaluate(50, 0.25).capacity_decrease
        d75 = analysis.evaluate(50, 0.75).capacity_decrease
        assert d75 / d25 == pytest.approx(3.0, rel=0.01)

    def test_more_frequent_messages_cost_more(self):
        analysis = CapacityAnalysis()
        fast = analysis.evaluate(50, 0.5, port_message_interval_s=1.0)
        slow = analysis.evaluate(50, 0.5, port_message_interval_s=100.0)
        assert fast.capacity_decrease > slow.capacity_decrease

    def test_zero_hide_fraction_no_decrease(self):
        result = CapacityAnalysis().evaluate(50, 0.0)
        assert result.capacity_decrease == 0.0

    def test_port_message_bits_eq19(self):
        analysis = CapacityAnalysis()
        # 192 PHY + 224 MAC + (2 + 100) bytes for 50 ports.
        assert analysis.port_message_bits(50) == 192 + 224 + 102 * 8

    def test_validation(self):
        analysis = CapacityAnalysis()
        with pytest.raises(ConfigurationError):
            analysis.evaluate(50, 1.5)
        with pytest.raises(ConfigurationError):
            analysis.evaluate(50, 0.5, port_message_interval_s=0)
        with pytest.raises(ConfigurationError):
            analysis.port_message_bits(-1)


class TestDelay:
    def test_paper_headline_point(self):
        # 1/f = 10 s, N = 50, p = 50%, n_o = 50: paper reports 2.3%.
        result = DelayAnalysis().evaluate(50, 0.5, 10.0, 50, 10)
        assert result.delay_increase == pytest.approx(0.023, abs=0.001)

    def test_ten_minute_interval_tiny(self):
        result = DelayAnalysis().evaluate(50, 0.5, 600.0, 50, 10)
        assert result.delay_increase < 0.002

    def test_hundred_ports_under_1_6_percent(self):
        # Figure 12's caption: < 1.6% with 100 ports at 1/f = 30 s.
        result = DelayAnalysis().evaluate(50, 0.5, 30.0, 100, 10)
        assert result.delay_increase < 0.016

    def test_t1_dominates_t2(self):
        # Paper: t1 >> t2 in the swept configurations.
        result = DelayAnalysis().evaluate(50, 0.5, 10.0, 50, 10)
        assert result.refresh_time_s > 5 * result.lookup_time_s

    def test_monotone_in_nodes(self):
        analysis = DelayAnalysis()
        values = [
            analysis.evaluate(n, 0.5, 30.0, 50, 10).delay_increase
            for n in (5, 10, 20, 30, 40, 50)
        ]
        assert values == sorted(values)

    def test_monotone_in_frequency_and_ports(self):
        analysis = DelayAnalysis()
        assert (
            analysis.evaluate(50, 0.5, 10.0, 50, 10).delay_increase
            > analysis.evaluate(50, 0.5, 60.0, 50, 10).delay_increase
        )
        assert (
            analysis.evaluate(50, 0.5, 30.0, 100, 10).delay_increase
            > analysis.evaluate(50, 0.5, 30.0, 10, 10).delay_increase
        )

    def test_delay_independent_of_rtt_for_t1_share(self):
        # Paper §VI-B: results have little dependence on D because t1
        # is proportional to D. Only the (small) t2 share shifts.
        fast = DelayAnalysis(baseline_rtt_s=0.02).evaluate(50, 0.5, 10.0, 50, 0)
        slow = DelayAnalysis(baseline_rtt_s=0.2).evaluate(50, 0.5, 10.0, 50, 0)
        assert fast.delay_increase == pytest.approx(slow.delay_increase)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DelayAnalysis(baseline_rtt_s=0)
        analysis = DelayAnalysis()
        with pytest.raises(ConfigurationError):
            analysis.evaluate(-1)
        with pytest.raises(ConfigurationError):
            analysis.evaluate(5, 2.0)
        with pytest.raises(ConfigurationError):
            analysis.evaluate(5, 0.5, 0.0)


class TestHashTimings:
    def test_calibrated_values(self):
        t = CALIBRATED_AP_TIMINGS
        assert t.refresh_per_port_s == pytest.approx(180e-6)
        assert t.lookup_s == pytest.approx(4e-6)

    def test_scaled(self):
        scaled = CALIBRATED_AP_TIMINGS.scaled(2.0)
        assert scaled.delete_s == pytest.approx(180e-6)
        assert scaled.lookup_s == pytest.approx(8e-6)

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            HashTimingModel(-1e-6, 1e-6, 1e-6)

    def test_host_measurement_runs(self):
        timings = measure_host_timings(stations=10, samples=20)
        assert timings.insert_s >= 0
        assert timings.lookup_s < 1e-3  # host dict ops are fast

    def test_host_measurement_validates(self):
        with pytest.raises(ConfigurationError):
            measure_host_timings(hide_fraction=2.0)
