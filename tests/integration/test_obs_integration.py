"""End-to-end observability: a short HIDE DES run is fully observable.

Runs the Classroom scenario through the event-level simulator with a
live tracer attached, then checks that the trace
log carries the protocol's heartbeat (DTIM cycles, Algorithm-1 spans,
BTIM elements, client wakeups) and that the exported metrics agree with
what the components themselves counted — including the inputs the
:class:`~repro.energy.meter.ClientEnergyMeter` bills from.
"""

import io
import json

import pytest

from repro.energy.profile import NEXUS_ONE
from repro.experiments.des_run import DesRunConfig, run_trace_des
from repro.obs.exporters import render_prometheus
from repro.obs.metrics import series_key
from repro.obs.summarize import summarize_trace
from repro.obs.tracing import read_trace_jsonl, tracer_to_string_buffer
from repro.station.client import ClientPolicy
from repro.traces import generate_trace
from tests.obs.row_checks import row_values


DURATION_S = 20.0


@pytest.fixture(scope="module")
def traced_run():
    tracer, buffer = tracer_to_string_buffer()
    result = run_trace_des(
        generate_trace("Classroom"),
        DesRunConfig(
            policy=ClientPolicy.HIDE,
            client_count=2,
            useful_fraction=0.10,
            duration_s=DURATION_S,
            profile=NEXUS_ONE,
        ),
        tracer=tracer,
    )
    buffer.seek(0)
    return result, read_trace_jsonl(buffer)


class TestTraceLog:
    def test_dtim_cycle_spans_cover_every_dtim(self, traced_run):
        result, records = traced_run
        spans = [r for r in records if r["type"] == "span" and r["name"] == "dtim_cycle"]
        assert len(spans) == result.access_point.counters.dtims_sent
        assert all(r["wall_duration_s"] >= 0.0 for r in spans)
        assert all(0.0 <= r["sim_time"] <= DURATION_S for r in spans)

    def test_algorithm1_spans_match_counter(self, traced_run):
        result, records = traced_run
        spans = [r for r in records if r["name"] == "algorithm1"]
        assert len(spans) == result.access_point.counters.algorithm1_runs
        assert sum(r["wall_duration_s"] for r in spans) == pytest.approx(
            result.access_point.counters.algorithm1_wall_s
        )

    def test_btim_events_report_bits_and_population(self, traced_run):
        result, records = traced_run
        events = [r for r in records if r["name"] == "btim"]
        assert len(events) == result.access_point.counters.algorithm1_runs
        assert sum(r["bits_set"] for r in events) == (
            result.access_point.counters.btim_bits_set_total
        )
        assert all(r["total_clients"] == len(result.clients) for r in events)
        assert all(len(r["aids"]) == r["bits_set"] for r in events)
        # Under HIDE some DTIMs flag clients and some don't.
        assert any(r["bits_set"] > 0 for r in events)
        assert any(r["bits_set"] == 0 for r in events)

    def test_wakeup_events_match_power_counters(self, traced_run):
        result, records = traced_run
        wakeups = [r for r in records if r["name"] == "wakeup"]
        assert len(wakeups) > 0
        # Each wakeup event is a wake request landing on a (fully or
        # partially) suspended radio: a resume or an aborted suspend.
        expected = sum(
            client.power.counters.resumes + client.power.counters.suspends_aborted
            for client in result.clients
        )
        assert len(wakeups) == expected
        per_client = {str(client.mac): 0 for client in result.clients}
        for record in wakeups:
            per_client[record["client"]] += 1
        assert all(count > 0 for count in per_client.values())

    def test_summarize_sees_the_run(self, traced_run):
        _, records = traced_run
        buffer = io.StringIO("".join(json.dumps(r) + "\n" for r in records))
        summary = summarize_trace(buffer)
        span_names = {s.name for s in summary.span_stats}
        assert {"dtim_cycle", "algorithm1"} <= span_names
        assert summary.event_counts["btim"] > 0


class TestMetricsExport:
    def test_collected_metrics_match_components(self, traced_run):
        result, _ = traced_run
        values = row_values(result.metric_rows())
        sim = result.simulator
        assert values["repro_sim_events_processed_total"] == sim.events_processed
        ap_labels = {"ap": str(result.access_point.mac)}
        assert values[series_key("repro_ap_dtims_sent_total", ap_labels)] == (
            result.access_point.counters.dtims_sent
        )
        assert values[series_key("repro_ap_btim_bits_set_total", ap_labels)] == (
            result.access_point.counters.btim_bits_set_total
        )

    def test_wakeup_counters_agree_with_energy_meter_inputs(self, traced_run):
        result, _ = traced_run
        values = row_values(result.metric_rows())
        for client, metered in zip(result.clients, result.meter()):
            labels = {"client": str(client.mac), "aid": str(client.aid)}
            wakeups = values[series_key("repro_client_wakeups_total", labels)]
            assert wakeups == client.power.counters.resumes
            assert wakeups > 0
            held = values[
                series_key("repro_client_wakelock_held_seconds_total", labels)
            ]
            assert held == pytest.approx(client.wakelock.total_held_time())
            # The meter bills wakelock time at the active-idle power, so
            # the exported seconds must reproduce its E_wl term.
            expected_wakelock_j = NEXUS_ONE.active_idle_power_w * held
            assert metered.breakdown.wakelock_j == pytest.approx(expected_wakelock_j)

    def test_prometheus_export_renders_the_run(self, traced_run):
        result, _ = traced_run
        text = render_prometheus(result.metric_rows())
        assert "repro_sim_events_processed_total" in text
        assert "repro_ap_algorithm1_runs_total" in text
        assert 'repro_medium_frames_total{kind="Beacon"}' in text
        assert "repro_client_wakeups_total" in text


class TestDesRunSanity:
    def test_clients_receive_and_filter(self, traced_run):
        result, _ = traced_run
        for client in result.clients:
            counters = client.counters
            assert counters.broadcast_frames_received > 0
            assert counters.useful_frames_received <= counters.broadcast_frames_received
        assert result.access_point.counters.broadcast_frames_sent > 0
