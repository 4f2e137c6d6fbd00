"""End-to-end streaming telemetry on a real HIDE DES run.

Exercises the full ``--serve-metrics``/``--timeseries-out`` stack: a
prepared run with per-DTIM windows and a live scrape endpoint, checked
for (1) determinism — the fingerprint is bit-identical with and without
telemetry attached, the PR's headline invariant; (2) correctness — the
windows tile the run and their final cumulative values agree with what
the components counted; (3) diffability — two same-seed timeseries
dumps compare clean at zero tolerance through ``repro obs diff``'s
loader, because the curated per-window series contain no wall-clock
families.
"""

import io
import json
import re
import urllib.request

import pytest

from repro.experiments.des_run import (
    DesRunConfig,
    TelemetryConfig,
    prepare_trace_des,
    run_trace_des,
)
from repro.obs.collectors import WINDOW_SERIES
from repro.obs.diff import diff_files
from repro.obs.exporters import write_metrics
from repro.obs.profiler import ProfilerConfig
from repro.obs.timeseries import TIMESERIES_SCHEMA
from repro.traces import generate_trace
from repro.units import BEACON_INTERVAL_S

DURATION_S = 10.0


def _config(**kwargs) -> DesRunConfig:
    return DesRunConfig(client_count=3, duration_s=DURATION_S, **kwargs)


@pytest.fixture(scope="module")
def telemetry_run():
    trace = generate_trace("Classroom")
    prepared = prepare_trace_des(
        trace,
        _config(telemetry=TelemetryConfig(window="dtim", serve_port=0)),
    )
    url = prepared.metrics_server.url
    result = prepared.execute()
    # Scrape while the server is still up, before closing.
    with urllib.request.urlopen(url + "/metrics", timeout=5) as response:
        metrics_text = response.read().decode("utf-8")
    with urllib.request.urlopen(url + "/healthz", timeout=5) as response:
        health = json.loads(response.read())
    result.close()
    return trace, result, metrics_text, health


@pytest.fixture(scope="module")
def profiled_scrape():
    """The final ``/metrics`` page of a profiled run, and the run."""
    prepared = prepare_trace_des(
        generate_trace("Classroom"),
        _config(
            telemetry=TelemetryConfig(serve_port=0),
            profiler=ProfilerConfig(mode="exact"),
        ),
    )
    result = prepared.execute()
    with urllib.request.urlopen(
        prepared.metrics_server.url + "/metrics", timeout=5
    ) as response:
        page = response.read().decode("utf-8")
    result.close()
    return result, page


_SAMPLE_RE = re.compile(r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)(?P<labels>\{.*\})? ")


def _family(line: str) -> str:
    """The family a HELP, TYPE or sample line belongs to."""
    if line.startswith("#"):
        return line.split()[2]
    return _SAMPLE_RE.match(line).group("name")


class TestDeterminism:
    def test_fingerprint_unchanged_by_telemetry_and_server(self, telemetry_run):
        trace, result, _, _ = telemetry_run
        plain = run_trace_des(trace, _config())
        assert (
            result.deterministic_fingerprint()
            == plain.deterministic_fingerprint()
        )

    def test_event_count_unchanged_by_telemetry(self, telemetry_run):
        trace, result, _, _ = telemetry_run
        plain = run_trace_des(trace, _config())
        assert (
            result.simulator.events_processed
            == plain.simulator.events_processed
        )


class TestWindows:
    def test_windows_tile_the_run(self, telemetry_run):
        _, result, _, _ = telemetry_run
        windows = result.timeseries.windows
        assert windows[0].t_start == 0.0
        assert windows[-1].t_end == pytest.approx(DURATION_S)
        for earlier, later in zip(windows, windows[1:]):
            assert later.t_start == pytest.approx(earlier.t_end)

    def test_window_width_is_one_dtim_interval(self, telemetry_run):
        _, result, _, _ = telemetry_run
        expected = BEACON_INTERVAL_S * result.access_point.config.dtim_period
        # All but the trailing partial window span exactly one DTIM.
        for window in result.timeseries.windows[:-1]:
            assert window.width_s == pytest.approx(expected)

    def test_final_values_match_component_counters(self, telemetry_run):
        _, result, _, _ = telemetry_run
        final = result.timeseries.latest().values
        assert final["repro_sim_events_processed_total"] == float(
            result.simulator.events_processed
        )
        assert final["repro_ap_dtims_sent_total"] == float(
            result.access_point.counters.dtims_sent
        )
        assert final["repro_client_wakeups_total"] == float(
            sum(c.power.counters.resumes for c in result.clients)
        )

    def test_final_window_is_the_end_of_run_rows_summed(self, telemetry_run):
        # Each window series is read by its FAMILIES entry: the last
        # window equals that family's end-of-run rows, summed over
        # clients (rows come in label order, so floats only approx).
        _, result, _, _ = telemetry_run
        expected = dict.fromkeys(WINDOW_SERIES, 0.0)
        for row in result.metric_rows():
            if row.name in expected:
                expected[row.name] += row.value
        assert result.timeseries.latest().values == pytest.approx(expected)

    def test_deltas_sum_to_final_cumulative(self, telemetry_run):
        _, result, _, _ = telemetry_run
        key = "repro_sim_events_processed_total"
        total = sum(w.deltas[key] for w in result.timeseries.windows)
        assert total == result.timeseries.latest().values[key]


class TestLiveScrape:
    def test_metrics_scrape_reflects_run(self, telemetry_run):
        _, result, metrics_text, _ = telemetry_run
        expected = (
            f"repro_sim_events_processed_total "
            f"{result.simulator.events_processed}"
        )
        assert expected in metrics_text

    def test_end_of_run_series_match_the_export(self, profiled_scrape):
        """The page's end-of-run families are the ``--metrics-out``
        text line for line, HELP and TYPE lines included."""
        result, page = profiled_scrape
        export = io.StringIO()
        write_metrics(result.metric_rows(), export)
        end_of_run = {row.name for row in result.metric_rows()}

        def kept(text, families):
            return [
                line
                for line in text.splitlines()
                if _family(line) in families and "_wall_" not in _family(line)
            ]

        expected = kept(export.getvalue(), end_of_run)
        assert len(expected) > 100
        assert kept(page, end_of_run) == expected

    def test_only_profile_and_delivery_families_are_added(self, profiled_scrape):
        result, page = profiled_scrape
        end_of_run = {row.name for row in result.metric_rows()}
        added = {_family(line) for line in page.splitlines()} - end_of_run
        prefixes = {name.split("_")[1] for name in added}
        assert prefixes == {"profile", "delivery"}

    def test_page_in_series_order_without_repeats(self, profiled_scrape):
        _, page = profiled_scrape
        series = []
        for line in page.splitlines():
            if line.startswith("#"):
                continue
            match = _SAMPLE_RE.match(line)
            labels = tuple(re.findall(r'(\w+)="([^"]*)"', match.group("labels") or ""))
            series.append((match.group("name"), labels))
        assert len(series) > 100
        assert series == sorted(series)
        assert len(set(series)) == len(series)

    def test_healthz_reports_final_sim_time(self, telemetry_run):
        _, _, _, health = telemetry_run
        assert health["status"] == "ok"
        assert health["sim_time"] == pytest.approx(DURATION_S)


class TestRunDiff:
    def test_same_seed_timeseries_diff_clean_at_zero_tolerance(
        self, telemetry_run, tmp_path
    ):
        trace, result, _, _ = telemetry_run
        repeat = run_trace_des(
            trace, _config(telemetry=TelemetryConfig(window="dtim"))
        )
        path_a = tmp_path / "a_ts.json"
        path_b = tmp_path / "b_ts.json"
        result.timeseries.write(str(path_a))
        repeat.timeseries.write(str(path_b))
        diff = diff_files(str(path_a), str(path_b))
        assert diff.ok()
        assert not diff.regressions
        assert json.loads(path_a.read_text())["schema"] == TIMESERIES_SCHEMA
