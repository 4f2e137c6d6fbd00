"""Windowed timeseries recording: windows, deltas, EWMA, ring buffer."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import (
    TIMESERIES_SCHEMA,
    TimeseriesRecorder,
    WindowSample,
    dtim_window_s,
)
from repro.sim.engine import Simulator


class TestDtimWindow:
    def test_window_is_beacon_interval_times_period(self):
        assert dtim_window_s(0.1024, 3) == pytest.approx(0.3072)

    def test_period_one(self):
        assert dtim_window_s(0.1024, 1) == pytest.approx(0.1024)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            dtim_window_s(0.0, 1)
        with pytest.raises(ConfigurationError):
            dtim_window_s(0.1024, 0)


class TestWindowSample:
    def test_width_and_rate(self):
        window = WindowSample(0, 1.0, 3.0, {"x": 10.0}, {"x": 4.0})
        assert window.width_s == pytest.approx(2.0)
        assert window.rate("x") == pytest.approx(2.0)
        assert window.rate("missing") == 0.0

    def test_zero_width_rate_is_zero(self):
        window = WindowSample(0, 1.0, 1.0, {}, {"x": 4.0})
        assert window.rate("x") == 0.0

    def test_to_dict_round_trips_through_json(self):
        window = WindowSample(2, 0.0, 1.0, {"a": 1.0}, {"a": 1.0})
        loaded = json.loads(json.dumps(window.to_dict()))
        assert loaded["index"] == 2
        assert loaded["values"] == {"a": 1.0}


class TestRecorderSampling:
    def test_deltas_are_per_window_not_cumulative(self):
        reg = MetricsRegistry()
        counter = reg.counter("repro_x_total")
        rec = TimeseriesRecorder(reg, window_s=1.0)
        counter.set_total(5)
        rec.sample(1.0)
        counter.set_total(12)
        window = rec.sample(2.0)
        assert window.values["repro_x_total"] == 12.0
        assert window.deltas["repro_x_total"] == 7.0

    def test_gauge_delta_can_be_negative(self):
        reg = MetricsRegistry()
        gauge = reg.gauge("repro_depth")
        rec = TimeseriesRecorder(reg, window_s=1.0)
        gauge.set(9)
        rec.sample(1.0)
        gauge.set(4)
        assert rec.sample(2.0).deltas["repro_depth"] == -5.0

    def test_values_fn_bypasses_registry(self):
        reads = []

        def values_fn():
            reads.append(True)
            return {"repro_y_total": float(len(reads))}

        rec = TimeseriesRecorder(None, window_s=1.0, values_fn=values_fn)
        rec.sample(1.0)
        window = rec.sample(2.0)
        assert window.values == {"repro_y_total": 2.0}
        assert window.deltas == {"repro_y_total": 1.0}

    def test_collect_fn_called_before_each_sample(self):
        reg = MetricsRegistry()
        source = {"value": 0.0}

        def collect():
            reg.gauge("repro_g").set(source["value"])

        rec = TimeseriesRecorder(reg, window_s=1.0, collect_fn=collect)
        source["value"] = 3.0
        assert rec.sample(1.0).values["repro_g"] == 3.0

    def test_ewma_converges_toward_steady_rate(self):
        reg = MetricsRegistry()
        counter = reg.counter("repro_x_total")
        rec = TimeseriesRecorder(reg, window_s=1.0, ewma_alpha=0.5)
        for i in range(1, 11):
            counter.set_total(i * 10)
            rec.sample(float(i))
        assert rec.ewma_rates()["repro_x_total"] == pytest.approx(10.0, rel=0.05)

    def test_close_partial_only_when_time_advanced(self):
        reg = MetricsRegistry()
        rec = TimeseriesRecorder(reg, window_s=1.0)
        rec.sample(1.0)
        assert rec.close_partial(1.0) is None
        assert rec.close_partial(1.5) is not None
        assert rec.latest().width_s == pytest.approx(0.5)


class TestRingBuffer:
    def test_capacity_bounds_windows_but_counts_all_samples(self):
        reg = MetricsRegistry()
        rec = TimeseriesRecorder(reg, window_s=1.0, capacity=3)
        for i in range(1, 8):
            rec.sample(float(i))
        assert rec.samples_taken == 7
        assert len(rec.windows) == 3
        assert rec.dropped_windows == 4
        assert [w.index for w in rec.windows] == [4, 5, 6]


class TestAttach:
    def test_probe_driven_sampling_during_run(self):
        sim = Simulator()
        reg = MetricsRegistry()
        events = reg.counter("repro_sim_events_total")
        rec = TimeseriesRecorder(
            reg, window_s=1.0,
            collect_fn=lambda: events.set_total(sim.events_processed),
        )
        rec.attach(sim)
        for i in range(1, 6):
            sim.schedule(i * 0.5, lambda: None)
        sim.run(until=3.0)
        assert rec.samples_taken == 3
        # A probe due at t fires before events at t, so the window
        # closing at 1.0 sees only the strictly-earlier event at 0.5.
        assert rec.windows[0].values["repro_sim_events_total"] == 1.0

    def test_sampling_does_not_perturb_event_count(self):
        def run(attach):
            sim = Simulator()
            if attach:
                TimeseriesRecorder(
                    MetricsRegistry(), window_s=0.25,
                ).attach(sim)
            for i in range(1, 5):
                sim.schedule(i * 0.4, lambda: None)
            sim.run()
            return sim.events_processed

        assert run(False) == run(True)


class TestValidationAndSerialization:
    def test_rejects_bad_parameters(self):
        reg = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            TimeseriesRecorder(reg, window_s=0.0)
        with pytest.raises(ConfigurationError):
            TimeseriesRecorder(reg, window_s=1.0, capacity=0)
        with pytest.raises(ConfigurationError):
            TimeseriesRecorder(reg, window_s=1.0, ewma_alpha=0.0)
        with pytest.raises(ConfigurationError):
            TimeseriesRecorder(None, window_s=1.0)

    def test_to_dict_carries_schema_and_windows(self):
        reg = MetricsRegistry()
        reg.counter("repro_x_total").set_total(1)
        rec = TimeseriesRecorder(reg, window_s=1.0)
        rec.sample(1.0)
        doc = rec.to_dict()
        assert doc["schema"] == TIMESERIES_SCHEMA
        assert doc["window_s"] == 1.0
        assert len(doc["windows"]) == 1

    def test_write_to_path(self, tmp_path):
        reg = MetricsRegistry()
        rec = TimeseriesRecorder(reg, window_s=1.0)
        rec.sample(1.0)
        path = tmp_path / "ts.json"
        rec.write(str(path))
        assert json.loads(path.read_text())["schema"] == TIMESERIES_SCHEMA
