"""Streamed trace synthesis: the stream is the trace, read lazily, and
the service feed built from its head serves the trace's own frames."""

import pytest

from repro.errors import ConfigurationError
from repro.service.feed import BroadcastFrameFeed
from repro.traces.generators import TraceGenerator, generate_trace
from repro.traces.release import release_bursts
from repro.traces.scenarios import scenario_by_name
from repro.units import mbps

DTIM_S = 0.1024


class TestStream:
    @pytest.mark.parametrize("scenario, seed", [("Starbucks", None), ("WML", 4)])
    def test_stream_is_the_trace(self, scenario, seed):
        spec = scenario_by_name(scenario)
        streamed = list(TraceGenerator(spec).records(seed=seed))
        assert streamed == list(generate_trace(spec, seed=seed))

    def test_release_reads_one_frame_past_each_burst(self):
        # Three frames buffered before the first DTIM, one before the
        # second: the first burst is complete once the fourth arrives.
        offered = [(0.01 * i, 137, 100, mbps(1)) for i in range(3)]
        offered.append((0.15, 138, 100, mbps(1)))
        offered.append((0.25, 139, 100, mbps(1)))
        read = []

        def source():
            for item in offered:
                read.append(item)
                yield item

        records = release_bursts(source(), duration_s=1.0)
        first_burst = [next(records) for _ in range(3)]
        assert [r.more_data for r in first_burst] == [True, True, False]
        assert len(read) == 4
        assert next(records).udp_port == 138
        assert len(read) == 5

    def test_schedule_checked_before_reading(self):
        with pytest.raises(ConfigurationError):
            release_bursts(iter(()), duration_s=1.0, dtim_period=0)


def _served(feed, batches):
    return [[frame.to_bytes() for frame in feed.next_batch()] for _ in range(batches)]


class TestFeedHead:
    @pytest.mark.parametrize("seed", [None, 9])
    def test_feed_serves_the_traces_first_frames(self, seed):
        """The feed stops synthesis at its pool; what it serves must be
        what pooling the whole trace's first 2,048 records gives."""
        streamed = BroadcastFrameFeed.from_scenario("Classroom", DTIM_S, seed=seed)
        records = list(generate_trace("Classroom", seed=seed))[:2048]
        pooled = BroadcastFrameFeed("Classroom", records, DTIM_S)
        assert len(streamed) == len(pooled) == 2048
        batches = _served(streamed, 2500)
        assert batches == _served(pooled, 2500)
        # The batches wrapped at least once, so every pooled frame,
        # in order, was compared.
        assert streamed.frames_served > len(streamed)
