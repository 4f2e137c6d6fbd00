import pytest

from repro.errors import TraceFormatError
from repro.traces.frame_record import BroadcastFrameRecord
from repro.traces.trace import BroadcastTrace
from repro.units import mbps

from tests.conftest import make_record, make_trace


class TestRecord:
    def test_buffering_delay(self):
        record = BroadcastFrameRecord(
            time=1.0, udp_port=137, length_bytes=100, rate_bps=mbps(1),
            offered_time=0.9,
        )
        assert record.buffering_delay_s == pytest.approx(0.1)
        assert make_record(1.0).buffering_delay_s is None

    def test_airing_before_offered_rejected(self):
        with pytest.raises(ValueError):
            BroadcastFrameRecord(
                time=1.0, udp_port=137, length_bytes=100, rate_bps=mbps(1),
                offered_time=2.0,
            )

    def test_to_event(self):
        record = make_record(1.0, port=5353, more=True)
        trace = BroadcastTrace("t", 2.0, (record,))
        (event,) = trace.to_events([True])
        assert event.time == 1.0
        assert event.useful
        assert event.more_data
        assert event.udp_port == 5353

    def test_shifted(self):
        record = BroadcastFrameRecord(
            time=1.0, udp_port=137, length_bytes=100, rate_bps=mbps(1),
            offered_time=0.5,
        )
        shifted = record.shifted(2.0)
        assert shifted.time == 3.0
        assert shifted.offered_time == 2.5

    def test_validation(self):
        with pytest.raises(ValueError):
            make_record(-1.0)
        with pytest.raises(ValueError):
            make_record(0.0, port=0)
        with pytest.raises(ValueError):
            make_record(0.0, length=0)
        with pytest.raises(ValueError):
            make_record(0.0, rate=0)


class TestTrace:
    def test_sorted_enforced(self):
        with pytest.raises(TraceFormatError):
            make_trace([2.0, 1.0])

    def test_records_within_duration(self):
        with pytest.raises(TraceFormatError):
            BroadcastTrace("t", 1.0, (make_record(2.0),))

    def test_mean_rate(self):
        trace = make_trace([1.0, 2.0, 3.0, 4.0], duration=10.0)
        assert trace.mean_frames_per_second == pytest.approx(0.4)

    def test_frames_per_second_series(self):
        trace = make_trace([0.1, 0.2, 1.5, 5.9], duration=6.0)
        series = trace.frames_per_second_series()
        assert series == [2, 1, 0, 0, 0, 1]

    def test_volume_cdf(self):
        trace = make_trace([0.1, 0.2, 1.5], duration=3.0)
        cdf = trace.volume_cdf()
        assert cdf.evaluate(0) == pytest.approx(1 / 3)
        assert cdf.evaluate(2) == 1.0

    def test_port_histogram(self):
        trace = make_trace([1.0, 2.0], port=137)
        assert trace.port_histogram() == {137: 2}

    def test_to_events_mask_length_checked(self):
        trace = make_trace([1.0, 2.0])
        with pytest.raises(TraceFormatError):
            trace.to_events([True])

    def test_to_events(self):
        trace = make_trace([1.0, 2.0])
        events = trace.to_events([True, False])
        assert [e.useful for e in events] == [True, False]

    def test_slice_rebases(self):
        trace = make_trace([1.0, 2.0, 3.0], duration=5.0)
        sliced = trace.slice(1.5, 3.5)
        assert len(sliced) == 2
        assert sliced.records[0].time == pytest.approx(0.5)
        assert sliced.duration_s == pytest.approx(2.0)

    def test_slice_validation(self):
        trace = make_trace([1.0], duration=5.0)
        with pytest.raises(TraceFormatError):
            trace.slice(3.0, 2.0)
        with pytest.raises(TraceFormatError):
            trace.slice(0.0, 6.0)

    def test_iteration_and_len(self):
        trace = make_trace([1.0, 2.0])
        assert len(trace) == 2
        assert len(list(trace)) == 2
