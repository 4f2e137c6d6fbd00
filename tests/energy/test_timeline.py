"""Timeline construction and its agreement with the closed form."""

import pytest

from repro.energy.dynamics import FrameEvent, derive_frame_dynamics
from repro.energy.model import EnergyModel
from repro.energy.profile import NEXUS_ONE
from repro.energy.timeline import PowerTimeline, StateSegment, build_timeline
from repro.errors import ConfigurationError
from repro.station.power import PowerState
from repro.units import mbps

TAU = NEXUS_ONE.wakelock_timeout_s
TRM = NEXUS_ONE.resume_duration_s
TSP = NEXUS_ONE.suspend_duration_s


def frame(time, useful=True):
    return FrameEvent(
        time=time, length_bytes=125, rate_bps=mbps(1), useful=useful
    )


def timeline_for(times, duration, wakelock_for_frame=None):
    dynamics = derive_frame_dynamics(
        [frame(t) for t in times], TAU, TRM, TSP, wakelock_for_frame
    )
    return build_timeline(dynamics, NEXUS_ONE, duration)


class TestStructure:
    def test_empty_trace_all_suspended(self):
        timeline = build_timeline([], NEXUS_ONE, 10.0)
        assert timeline.suspend_fraction == 1.0
        assert len(timeline.segments) == 1

    def test_segments_are_contiguous(self):
        timeline = timeline_for([0.5, 1.0, 5.0], 10.0)
        for earlier, later in zip(timeline.segments, timeline.segments[1:]):
            assert earlier.end == pytest.approx(later.start)
        assert timeline.segments[0].start == 0.0
        assert timeline.segments[-1].end == 10.0

    def test_single_frame_cycle(self):
        timeline = timeline_for([1.0], 10.0)
        states = [s.state for s in timeline.segments]
        assert states == [
            PowerState.SUSPENDED,
            PowerState.RESUMING,
            PowerState.ACTIVE,
            PowerState.SUSPENDING,
            PowerState.SUSPENDED,
        ]
        assert timeline.time_in_state(PowerState.RESUMING) == pytest.approx(TRM)
        assert timeline.time_in_state(PowerState.ACTIVE) == pytest.approx(TAU)
        assert timeline.time_in_state(PowerState.SUSPENDING) == pytest.approx(TSP)

    def test_renewed_wakelocks_merge_into_one_active(self):
        timeline = timeline_for([1.0, 1.3, 1.6], 10.0)
        assert timeline.count_segments(PowerState.ACTIVE) == 1
        # First lock starts at rx_complete + T_rm; renewals start at
        # their own rx_complete (the system is already active), so the
        # continuous hold runs from t_r(1) to t_r(3) + tau.
        airtime = 0.001
        tr1 = 1.0 + airtime + TRM
        tr3 = 1.6 + airtime
        assert timeline.time_in_state(PowerState.ACTIVE) == pytest.approx(
            tr3 + TAU - tr1
        )

    def test_duration_clamps_trailing_segments(self):
        timeline = timeline_for([1.0], 1.5)
        assert timeline.segments[-1].end == 1.5

    def test_segment_validation(self):
        with pytest.raises(ValueError):
            StateSegment(PowerState.ACTIVE, 2.0, 1.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            build_timeline([], NEXUS_ONE, 0.0)
        with pytest.raises(ConfigurationError):
            PowerTimeline(
                segments=(
                    StateSegment(PowerState.SUSPENDED, 0.0, 1.0),
                    StateSegment(PowerState.ACTIVE, 2.0, 3.0),
                ),
                duration_s=3.0,
            )


class TestAgreementWithClosedForm:
    """The timeline and the closed form must describe the same physics."""

    def cross_check(self, times, duration, wakelock_for_frame=None):
        model = EnergyModel(NEXUS_ONE)
        events = [frame(t) for t in times]
        dynamics = model.derive_dynamics(events, wakelock_for_frame)
        timeline = build_timeline(dynamics, NEXUS_ONE, duration)

        # Wakelock time == ACTIVE time.
        closed_form_wl = sum(d.coverage_increment for d in dynamics)
        assert timeline.time_in_state(PowerState.ACTIVE) == pytest.approx(
            closed_form_wl, abs=1e-9
        )
        # Resume count == suspended arrivals.
        resumes = sum(1 for d in dynamics if d.suspended_on_arrival)
        assert timeline.count_segments(PowerState.RESUMING) == resumes
        assert timeline.time_in_state(PowerState.RESUMING) == pytest.approx(
            resumes * TRM
        )
        # Suspending time == completed suspends + aborted fractions.
        aborted = sum(d.aborted_suspend_fraction for d in dynamics)
        completed = resumes  # each suspended arrival implies a prior completed
        # (the trailing suspend is completed too but the first resume's
        # predecessor happened before t=0, balancing it out)
        expected_suspending = completed * TSP + aborted * TSP
        assert timeline.time_in_state(PowerState.SUSPENDING) == pytest.approx(
            expected_suspending, abs=1e-9
        )
        return timeline

    def test_sparse_frames(self):
        self.cross_check([1.0, 5.0, 9.0], 20.0)

    def test_dense_burst(self):
        self.cross_check([1.0 + 0.002 * i for i in range(20)], 20.0)

    def test_mixed_gaps(self):
        self.cross_check([0.5, 0.8, 1.95, 2.0, 7.0, 7.05, 15.0], 30.0)

    def test_client_side_tau(self):
        self.cross_check(
            [0.5, 3.0, 6.0],
            20.0,
            wakelock_for_frame=lambda e: 0.0,
        )

    def test_suspend_fraction_decreases_with_traffic(self):
        light = timeline_for([1.0], 20.0)
        heavy = timeline_for([float(t) for t in range(1, 15)], 20.0)
        assert heavy.suspend_fraction < light.suspend_fraction
