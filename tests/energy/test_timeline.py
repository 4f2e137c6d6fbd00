"""The closed form's suspended-time count, held to a segment-walk oracle."""

import pytest

from repro.energy.dynamics import FrameEvent, derive_frame_dynamics
from repro.energy.model import EnergyModel
from repro.energy.profile import NEXUS_ONE
from repro.errors import ConfigurationError
from repro.station.power import PowerState
from repro.units import mbps
from tests.energy.segment_walk import lengths, walk_segments
from tests.station.float_sums import fold_sum

TAU = NEXUS_ONE.wakelock_timeout_s
TRM = NEXUS_ONE.resume_duration_s
TSP = NEXUS_ONE.suspend_duration_s

MODEL = EnergyModel(NEXUS_ONE)


def frame(time, useful=True):
    return FrameEvent(
        time=time, length_bytes=125, rate_bps=mbps(1), useful=useful
    )


def walk_for(times, duration, wakelock_for_frame=None):
    """(counts, oracle segments) for frames at ``times``."""
    events = [frame(t) for t in times]
    dynamics = derive_frame_dynamics(events, TAU, TRM, TSP, wakelock_for_frame)
    counts = MODEL.counts(events, duration, dynamics)
    segments = walk_segments(dynamics, TSP, duration)
    assert counts.suspended_s == fold_sum(lengths(segments, PowerState.SUSPENDED))
    return counts, segments


class TestStructure:
    def test_empty_trace_all_suspended(self):
        counts, segments = walk_for([], 10.0)
        assert counts.suspend_fraction == 1.0
        assert len(segments) == 1

    def test_segments_are_contiguous(self):
        _, segments = walk_for([0.5, 1.0, 5.0], 10.0)
        for earlier, later in zip(segments, segments[1:]):
            assert earlier[2] == later[1]
        assert segments[0][1] == 0.0
        assert segments[-1][2] == 10.0

    def test_single_frame_cycle(self):
        counts, segments = walk_for([1.0], 10.0)
        assert [state for state, _, _ in segments] == [
            PowerState.SUSPENDED,
            PowerState.RESUMING,
            PowerState.ACTIVE,
            PowerState.SUSPENDING,
            PowerState.SUSPENDED,
        ]
        assert fold_sum(lengths(segments, PowerState.RESUMING)) == pytest.approx(TRM)
        assert fold_sum(lengths(segments, PowerState.ACTIVE)) == pytest.approx(TAU)
        assert fold_sum(lengths(segments, PowerState.SUSPENDING)) == pytest.approx(
            TSP
        )
        assert counts.resumes == counts.suspends_completed == 1
        assert counts.suspended_s == pytest.approx(10.0 - TRM - TAU - TSP)

    def test_renewed_wakelocks_merge_into_one_active(self):
        counts, segments = walk_for([1.0, 1.3, 1.6], 10.0)
        assert len(lengths(segments, PowerState.ACTIVE)) == 1
        # First lock starts at rx_complete + T_rm; renewals start at
        # their own rx_complete (the system is already active), so the
        # continuous hold runs from t_r(1) to t_r(3) + tau.
        airtime = 0.001
        tr1 = 1.0 + airtime + TRM
        tr3 = 1.6 + airtime
        assert counts.wakelock_s == pytest.approx(tr3 + TAU - tr1)
        assert counts.resumes == 1

    def test_duration_clamps_trailing_segments(self):
        counts, segments = walk_for([1.0], 1.5)
        assert segments[-1][2] == 1.5
        # Suspended only before the frame: the window ends mid-lock.
        assert counts.suspended_s == 1.0 + 0.001

    def test_segment_validation(self):
        # A client-side run (tau = 0 for useless frames) with T_rm-long
        # gaps lays no segment out backwards.
        _, segments = walk_for(
            [0.5, 0.5 + TRM, 0.6, 3.0, 3.0 + TSP / 2],
            4.0,
            wakelock_for_frame=lambda e: 0.0,
        )
        assert all(start <= end for _, start, end in segments)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MODEL.counts([], 0.0)
        events = [frame(1.0), frame(2.0)]
        with pytest.raises(ConfigurationError):
            MODEL.counts(events, 3.0, MODEL.derive_dynamics(events[:1]))


class TestAgreementWithClosedForm:
    """The counts and the segment walk must describe the same physics."""

    def cross_check(self, times, duration, wakelock_for_frame=None):
        counts, segments = walk_for(times, duration, wakelock_for_frame)

        # Wakelock time == ACTIVE time.
        assert fold_sum(lengths(segments, PowerState.ACTIVE)) == pytest.approx(
            counts.wakelock_s, abs=1e-9
        )
        # Resume count == suspended arrivals.
        resumes = lengths(segments, PowerState.RESUMING)
        assert len(resumes) == counts.resumes
        assert fold_sum(resumes) == pytest.approx(counts.resumes * TRM)
        # Suspending time == completed suspends + aborted fractions (the
        # trailing suspend is completed too, but the first resume's
        # predecessor happened before t=0, balancing it out).
        expected_suspending = (
            counts.suspends_completed * TSP + counts.aborted_suspends * TSP
        )
        assert fold_sum(lengths(segments, PowerState.SUSPENDING)) == pytest.approx(
            expected_suspending, abs=1e-9
        )
        # The four states cover the window.
        assert fold_sum(end - start for _, start, end in segments) == pytest.approx(
            duration
        )
        return counts

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
        light, _ = walk_for([1.0], 20.0)
        heavy, _ = walk_for([float(t) for t in range(1, 15)], 20.0)
        assert heavy.suspend_fraction < light.suspend_fraction
