"""Property-based tests of the energy model's core invariants."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.energy.dynamics import FrameEvent, derive_frame_dynamics
from repro.energy.model import EnergyModel
from repro.energy.profile import GALAXY_S4, NEXUS_ONE
from repro.station.power import PowerState
from repro.units import mbps
from tests.energy.segment_walk import lengths, walk_segments
from tests.station.float_sums import fold_sum

TAU = NEXUS_ONE.wakelock_timeout_s
TRM = NEXUS_ONE.resume_duration_s
TSP = NEXUS_ONE.suspend_duration_s


@st.composite
def frame_sequences(draw, max_frames=30):
    """Sorted frame arrival sequences with mixed gaps and usefulness."""
    gaps = draw(
        st.lists(
            st.floats(min_value=1e-4, max_value=5.0, allow_nan=False),
            min_size=1,
            max_size=max_frames,
        )
    )
    useful = draw(
        st.lists(st.booleans(), min_size=len(gaps), max_size=len(gaps))
    )
    frames = []
    time = 0.0
    for gap, is_useful in zip(gaps, useful):
        time += gap
        frames.append(
            FrameEvent(
                time=time,
                length_bytes=draw(st.integers(min_value=64, max_value=1500)),
                rate_bps=draw(st.sampled_from([mbps(1), mbps(2), mbps(5.5)])),
                useful=is_useful,
                more_data=draw(st.booleans()),
            )
        )
    return frames


def derive(frames, wakelock_for_frame=None):
    return derive_frame_dynamics(frames, TAU, TRM, TSP, wakelock_for_frame)


#: A useless frame that bridges two wakelock windows (Nexus One,
#: tau = 1 s): the 2.0 s frame holds the lock until the useful 2.25 s
#: frame lands. Without it the client suspends at ~2.05 s and pays a
#: second resume + suspend for the 2.25 s frame.
BRIDGING_FRAMES = [
    FrameEvent(time=t, length_bytes=64, rate_bps=mbps(1), useful=useful)
    for t, useful in ((1.0, True), (2.0, False), (2.25, True))
]


def useless_frame_bridges(model, frames):
    """Whether dropping the useless frames splits an awake episode.

    True when some useful frame arrives suspended, or aborts more of a
    suspend, once the useless frames are gone: a useless frame had held
    the wakelock across the gap before it.
    """
    full = [d for d in model.derive_dynamics(frames) if d.event.useful]
    filtered = model.derive_dynamics([f for f in frames if f.useful])
    return any(
        (after.suspended_on_arrival and not before.suspended_on_arrival)
        or after.aborted_suspend_fraction > before.aborted_suspend_fraction
        for before, after in zip(full, filtered)
    )


class TestDynamicsInvariants:
    @given(frame_sequences())
    @settings(max_examples=80)
    def test_wakelock_starts_nondecreasing(self, frames):
        dynamics = derive(frames)
        starts = [d.wakelock_start for d in dynamics]
        assert starts == sorted(starts)

    @given(frame_sequences())
    @settings(max_examples=80)
    def test_coverage_bounded_by_per_frame_tau(self, frames):
        dynamics = derive(frames)
        for dyn in dynamics:
            assert 0.0 <= dyn.coverage_increment <= dyn.wakelock_timeout + 1e-12

    @given(frame_sequences())
    @settings(max_examples=80)
    def test_aborted_fraction_in_unit_interval(self, frames):
        for dyn in derive(frames):
            assert 0.0 <= dyn.aborted_suspend_fraction <= 1.0

    @given(frame_sequences())
    @settings(max_examples=80)
    def test_first_frame_always_suspended(self, frames):
        assert derive(frames)[0].suspended_on_arrival

    @given(frame_sequences())
    @settings(max_examples=80)
    def test_suspended_arrivals_never_abort(self, frames):
        for dyn in derive(frames):
            if dyn.suspended_on_arrival:
                assert dyn.aborted_suspend_fraction == 0.0

    @given(frame_sequences())
    @settings(max_examples=60)
    def test_client_side_coverage_never_exceeds_uniform(self, frames):
        uniform = sum(d.coverage_increment for d in derive(frames))
        filtered = sum(
            d.coverage_increment
            for d in derive(
                frames, wakelock_for_frame=lambda e: TAU if e.useful else 0.0
            )
        )
        assert filtered <= uniform + 1e-9


def counts_and_walk(frames, duration, wakelock_for_frame=None):
    """The closed form's counts and the oracle's segment walk; the
    counts' suspended time must be the walk's, to the bit."""
    dynamics = derive(frames, wakelock_for_frame)
    counts = EnergyModel(NEXUS_ONE).counts(frames, duration, dynamics)
    segments = walk_segments(dynamics, TSP, duration)
    assert counts.suspended_s == fold_sum(lengths(segments, PowerState.SUSPENDED))
    return counts, segments


class TestTimelineInvariants:
    @given(frame_sequences(), st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=60)
    def test_timeline_covers_window_exactly(self, frames, tail):
        # ``tail`` past the last frame may end the window mid-episode.
        duration = frames[-1].time + tail
        _, segments = counts_and_walk(
            frames, duration, lambda e: TAU if e.useful else 0.0
        )
        total = fold_sum(end - start for _, start, end in segments)
        assert total == pytest.approx(duration, abs=1e-6)

    @given(frame_sequences())
    @settings(max_examples=60)
    def test_active_time_equals_closed_form_wakelock(self, frames):
        counts, segments = counts_and_walk(frames, frames[-1].time + 10.0)
        assert fold_sum(lengths(segments, PowerState.ACTIVE)) == pytest.approx(
            counts.wakelock_s, abs=1e-9
        )

    @given(frame_sequences())
    @settings(max_examples=60)
    def test_resume_segments_equal_suspended_arrivals(self, frames):
        counts, segments = counts_and_walk(frames, frames[-1].time + 10.0)
        assert len(lengths(segments, PowerState.RESUMING)) == counts.resumes

    @given(frame_sequences(), st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=60)
    def test_suspend_fraction_in_unit_interval(self, frames, tail):
        counts, _ = counts_and_walk(frames, frames[-1].time + tail)
        assert 0.0 <= counts.suspend_fraction <= 1.0


class TestModelInvariants:
    @given(frame_sequences())
    @settings(max_examples=40)
    def test_all_components_non_negative(self, frames):
        model = EnergyModel(NEXUS_ONE)
        duration = frames[-1].time + 5.0
        breakdown = model.evaluate(frames, duration)
        assert breakdown.beacon_j >= 0
        assert breakdown.receive_j >= 0
        assert breakdown.state_transfer_j >= 0
        assert breakdown.wakelock_j >= 0
        assert breakdown.overhead_j == 0

    @given(frame_sequences())
    @example(BRIDGING_FRAMES)
    @settings(max_examples=40)
    def test_filtering_monotone(self, frames):
        """Receiving only the useful frames (uniform tau) never costs
        more receive energy, and never costs more in total unless a
        useless frame bridged two wakelock windows — HIDE's premise,
        stated where it holds.

        The Eq. 9 idle-listening term is excluded by zeroing P_idle: it
        bills the beacon-to-first-frame wait, and removing an early
        useless frame can lengthen that wait. A bridging useless frame
        makes filtering dearer through one extra suspend/resume; see
        :meth:`test_bridging_useless_frame_makes_filtering_cost_more`.
        """
        model = EnergyModel(NEXUS_ONE.with_overrides(idle_power_w=0.0))
        duration = frames[-1].time + 5.0
        useful_only = [f for f in frames if f.useful]
        full = model.evaluate(frames, duration)
        filtered = model.evaluate(useful_only, duration)
        assert filtered.receive_j <= full.receive_j + 1e-12
        if not useless_frame_bridges(model, frames):
            assert filtered.total_j <= full.total_j + 1e-9

    def test_bridging_useless_frame_makes_filtering_cost_more(self):
        model = EnergyModel(NEXUS_ONE.with_overrides(idle_power_w=0.0))
        duration = BRIDGING_FRAMES[-1].time + 5.0
        full = model.evaluate(BRIDGING_FRAMES, duration)
        filtered = model.evaluate(
            [f for f in BRIDGING_FRAMES if f.useful], duration
        )
        assert useless_frame_bridges(model, BRIDGING_FRAMES)
        assert full.total_j == pytest.approx(0.401, abs=5e-4)
        assert filtered.total_j == pytest.approx(0.411, abs=5e-4)
        # The extra cost is the second resume + suspend.
        assert filtered.state_transfer_j == pytest.approx(
            2 * full.state_transfer_j
        )
        assert filtered.wakelock_j < full.wakelock_j

    @given(frame_sequences())
    @settings(max_examples=40)
    def test_s4_never_cheaper_than_n1_on_transitions(self, frames):
        n1 = EnergyModel(NEXUS_ONE)
        s4 = EnergyModel(GALAXY_S4)
        duration = frames[-1].time + 5.0
        n1_est = n1.evaluate(frames, duration).state_transfer_j
        s4_est = s4.evaluate(frames, duration).state_transfer_j
        assert s4_est >= n1_est
