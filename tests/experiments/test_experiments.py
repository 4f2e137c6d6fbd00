"""Experiment modules produce the paper's shapes on a reduced context."""

import pytest

from repro.analysis.breakeven import find_breakeven
from repro.energy import model as energy_model
from repro.energy.profile import GALAXY_S4, NEXUS_ONE
from repro.experiments import (
    figure6,
    figure7,
    figure8,
    figure9,
    figure10,
    figure11,
    figure12,
    headline,
    sensitivity,
    table1,
    table2,
)
from repro.experiments.context import EvaluationContext
from repro.solutions import HideSolution, ReceiveAllSolution, Solution
from repro.traces.scenarios import ScenarioSpec, scenario_by_name

#: Short scenarios with the same two traffic characters as the real
#: ones, so experiment tests run in seconds.
FAST_SCENARIOS = (
    ScenarioSpec("Heavy", 180.0, 0.20, 160.0, 1.15, 0.10, 31),
    ScenarioSpec("Light", 180.0, 0.60, 4.0, 40.0, 6.0, 32),
)


@pytest.fixture(scope="module")
def context():
    return EvaluationContext(scenarios=FAST_SCENARIOS)


class TestTables:
    def test_table1_contains_both_devices(self):
        text = table1.render()
        assert "Nexus One" in text
        assert "Galaxy S4" in text
        assert "18.26 mJ" in text
        assert "1500 mW" in text

    def test_table2_contains_dot11b_settings(self):
        text = table2.render()
        assert "32" in text and "1024" in text
        assert "11 Mbits/s" in text
        assert "224 bits" in text


class TestFigure6:
    def test_cdfs_reach_one(self, context):
        result = figure6.compute(context)
        for name, points in result.cdf_points.items():
            assert points[-1][1] == pytest.approx(1.0)

    def test_means_ordering(self, context):
        result = figure6.compute(context)
        assert result.means["Heavy"] > result.means["Light"]

    def test_render_includes_all_scenarios(self, context):
        text = figure6.render(figure6.compute(context))
        assert "Heavy" in text and "Light" in text


class TestFigures7And8:
    def test_bar_structure(self, context):
        grid = figure7.compute(context)
        assert grid.device == "Nexus One"
        assert grid.bar_labels == (
            "receive-all", "client-side",
            "HIDE:10%", "HIDE:8%", "HIDE:6%", "HIDE:4%", "HIDE:2%",
        )
        for scenario in grid.scenarios:
            assert len(grid.bars[scenario]) == 7

    def test_hide_monotone_in_fraction(self, context):
        grid = figure7.compute(context)
        for scenario in grid.scenarios:
            totals = [
                grid.total_mw(scenario, f"HIDE:{f}%") for f in (10, 8, 6, 4, 2)
            ]
            assert totals == sorted(totals, reverse=True)

    def test_hide_always_beats_receive_all(self, context):
        for grid in (figure7.compute(context), figure8.compute(context)):
            for scenario in grid.scenarios:
                assert grid.hide_savings(scenario, "HIDE:10%") > 0

    def test_s4_client_side_worse_than_n1(self, context):
        n1 = figure7.compute(context)
        s4 = figure8.compute(context)
        for scenario in n1.scenarios:
            n1_ratio = n1.total_mw(scenario, "client-side") / n1.total_mw(
                scenario, "receive-all"
            )
            s4_ratio = s4.total_mw(scenario, "client-side") / s4.total_mw(
                scenario, "receive-all"
            )
            assert s4_ratio > n1_ratio

    def test_render(self, context):
        text = figure7.render(figure7.compute(context))
        assert "Figure 7" in text
        assert "HIDE energy savings" in text


class TestFigure9:
    def test_hide_sleeps_most(self, context):
        result = figure9.compute(context)
        for scenario in result.scenarios:
            ra, cs, h10, h2 = result.suspend_fractions[scenario]
            assert h2 >= h10 >= ra
            assert cs >= ra

    def test_fractions_valid(self, context):
        result = figure9.compute(context)
        for values in result.suspend_fractions.values():
            assert all(0.0 <= v <= 1.0 for v in values)

    def test_render(self, context):
        text = figure9.render(figure9.compute(context))
        assert "Figure 9" in text
        assert "receive-all" in text


class TestOverheadFigures:
    def test_figure10_worst_case_below_half_percent(self):
        result = figure10.compute()
        worst = max(d for row in result.decreases.values() for d in row)
        assert worst < 0.005

    def test_figure10_monotone_in_p(self):
        result = figure10.compute()
        for index in range(len(result.station_counts)):
            column = [result.decreases[p][index] for p in result.hide_fractions]
            assert column == sorted(column)

    def test_figure11_max_at_fastest_interval(self):
        result = figure11.compute()
        assert max(result.increases[10.0]) == pytest.approx(0.023, abs=0.001)
        assert max(result.increases[600.0]) < 0.002

    def test_figure12_no100_under_1_6_percent(self):
        result = figure12.compute()
        assert max(result.increases[100]) < 0.016

    def test_renders(self):
        assert "Figure 10" in figure10.render()
        assert "Figure 11" in figure11.render()
        assert "Figure 12" in figure12.render()


def _record_calls(monkeypatch, owner, name):
    """Replace ``owner.name`` with a wrapper that logs each call's
    arguments; returns the log."""
    calls = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


class TestEachCellEvaluatedOnce:
    def test_figures_and_headline_share_one_evaluation_per_cell(self, monkeypatch):
        evaluations = _record_calls(monkeypatch, Solution, "evaluate")
        derivations = _record_calls(
            monkeypatch, energy_model, "derive_frame_dynamics"
        )
        context = EvaluationContext(scenarios=FAST_SCENARIOS)
        for experiment in (figure7, figure8, figure9, headline):
            experiment.compute(context)
        # 2 scenarios x 2 phones x 7 bars; Figure 9 and the headline
        # read the Figure 7/8 cells.
        assert len(evaluations) == 28
        assert len(derivations) == 28

    def test_cached_result_equals_a_fresh_evaluation(self, context):
        scenario = FAST_SCENARIOS[0]
        fresh = HideSolution().evaluate(
            context.trace(scenario), context.mask(scenario, 0.02), GALAXY_S4
        )
        cached = context.solution_result(HideSolution(), scenario, 0.02, GALAXY_S4)
        assert cached == fresh
        assert (
            context.solution_result(HideSolution(), scenario, 0.02, GALAXY_S4)
            is cached
        )

    def test_cache_key_holds_settings_and_profile_values(self, context):
        scenario = FAST_SCENARIOS[0]
        original = context.solution_result(HideSolution(), scenario, 0.10, NEXUS_ONE)
        recomputed = context.solution_result(
            HideSolution(more_data_mode="recomputed"), scenario, 0.10, NEXUS_ONE
        )
        # with_overrides keeps the profile's name.
        longer_tau = context.solution_result(
            HideSolution(),
            scenario,
            0.10,
            NEXUS_ONE.with_overrides(wakelock_timeout_s=2.0),
        )
        assert recomputed.breakdown != original.breakdown
        assert longer_tau.breakdown != original.breakdown

    def test_sensitivity_reads_figure7_cells(self, monkeypatch):
        context = EvaluationContext()
        cs_dept, starbucks = (scenario_by_name(n) for n in ("CS_Dept", "Starbucks"))
        cells = [
            context.solution_result(solution, scenario, 0.10, NEXUS_ONE)
            for scenario in (cs_dept, starbucks)
            for solution in (ReceiveAllSolution(), HideSolution())
        ]
        evaluations = _record_calls(monkeypatch, Solution, "evaluate")
        result = sensitivity.compute(context)
        # Four other taus and two other DTIM periods, two solutions each.
        assert len(evaluations) == 12
        (paper_tau,) = [p for p in result.tau_points if p.wakelock_timeout_s == 1.0]
        (period_one,) = [p for p in result.dtim_points if p.dtim_period == 1]
        read = [paper_tau.receive_all, paper_tau.hide]
        read += [period_one.receive_all, period_one.hide]
        assert all(got is cell for got, cell in zip(read, cells))

    def test_breakeven_evaluates_receive_all_once(self, monkeypatch, context):
        evaluations = _record_calls(monkeypatch, Solution, "evaluate")
        find_breakeven(context.trace(FAST_SCENARIOS[0]), NEXUS_ONE, tolerance=0.05)
        solutions = [type(args[0]) for args in evaluations]
        assert solutions.count(ReceiveAllSolution) == 1
        assert solutions.count(HideSolution) >= 3
