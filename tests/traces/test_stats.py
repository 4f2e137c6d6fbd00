import pytest

from repro.traces import stats
from repro.traces.stats import (
    SLEEPABLE_GAP_S,
    compute_stats,
    detect_bursts,
    index_of_dispersion,
)

from tests.conftest import make_trace


class TestBurstDetection:
    def test_single_burst(self):
        trace = make_trace([1.0, 1.05, 1.1], duration=10.0)
        bursts = detect_bursts(trace)
        assert len(bursts) == 1
        assert bursts[0].frames == 3
        assert bursts[0].duration == pytest.approx(0.1)

    def test_gap_splits_bursts(self):
        trace = make_trace([1.0, 1.05, 5.0, 5.01], duration=10.0)
        bursts = detect_bursts(trace)
        assert [b.frames for b in bursts] == [2, 2]

    def test_singleton_frames_are_bursts_of_one(self):
        trace = make_trace([1.0, 3.0, 5.0], duration=10.0)
        bursts = detect_bursts(trace)
        assert [b.frames for b in bursts] == [1, 1, 1]
        assert all(b.duration == 0.0 for b in bursts)

    def test_empty_trace(self):
        assert detect_bursts(make_trace([], duration=10.0)) == []

    def test_custom_threshold(self, monkeypatch):
        trace = make_trace([1.0, 1.5, 2.0], duration=10.0)
        monkeypatch.setattr(stats, "BURST_GAP_S", 0.6)
        assert len(detect_bursts(trace)) == 1
        monkeypatch.setattr(stats, "BURST_GAP_S", 0.4)
        assert len(detect_bursts(trace)) == 3


class TestDispersion:
    def test_uniform_counts_have_zero_dispersion(self):
        # One frame per second exactly: variance 0.
        trace = make_trace([float(i) + 0.5 for i in range(10)], duration=10.0)
        assert index_of_dispersion(trace) == pytest.approx(0.0)

    def test_bursty_trace_is_overdispersed(self):
        # All frames in one second out of ten.
        trace = make_trace([0.1 * i / 10 for i in range(20)], duration=10.0)
        assert index_of_dispersion(trace) > 1.0

    def test_empty_trace(self):
        assert index_of_dispersion(make_trace([], duration=5.0)) == 0.0


class TestComputeStats:
    def test_fields_consistent(self):
        trace = make_trace([1.0, 1.01, 1.02, 4.0, 8.0], duration=20.0)
        stats = compute_stats(trace)
        assert stats.frame_count == 5
        assert stats.burst_count == 3
        assert stats.mean_burst_frames == pytest.approx(5 / 3)
        assert stats.mean_rate_fps == pytest.approx(0.25)

    def test_sleepable_gap_fraction(self):
        # Gaps: 0.01, 0.01 (not sleepable), 2.98, 4.0 (sleepable).
        trace = make_trace([1.0, 1.01, 1.02, 4.0, 8.0], duration=20.0)
        stats = compute_stats(trace)
        assert stats.sleepable_gap_fraction == pytest.approx(0.5)

    def test_empty_trace(self):
        stats = compute_stats(make_trace([], duration=10.0))
        assert stats.frame_count == 0
        assert stats.burst_count == 0
        assert stats.sleepable_gap_fraction == 0.0

    def test_scenario_characters_distinguishable(self):
        # The calibrated scenario shapes: storm traces (Classroom) have
        # far lower sleepable-gap fractions than spread traces (WRL).
        from repro.traces.generators import generate_trace

        classroom = compute_stats(generate_trace("Classroom"))
        wrl = compute_stats(generate_trace("WRL"))
        assert classroom.index_of_dispersion > wrl.index_of_dispersion
        assert classroom.sleepable_gap_fraction < wrl.sleepable_gap_fraction
        assert classroom.mean_rate_fps > wrl.mean_rate_fps
