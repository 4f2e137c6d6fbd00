"""The load generator's open-loop send schedule, without sockets."""

import bisect
import math

import pytest

from repro.service.loadgen import SendSchedule


@pytest.mark.parametrize(
    "rate, ramp_s, duration_s",
    [(40_000, 3.0, 10.0), (1000, 2.0, 5.0), (500, 0.0, 2.0), (8000, 1.0, 1.0)],
)
def test_ramp_integrates_to_the_configured_rate(rate, ramp_s, duration_s):
    schedule = SendSchedule(rate, duration_s, ramp_s)
    due = [schedule.due(k) for k in range(schedule.total)]
    assert due == sorted(due)
    assert due[0] == 0.0 and due[-1] < duration_s
    # The ramp averages 55% of the rate, then the rate holds.
    assert bisect.bisect_left(due, ramp_s) == math.floor(0.55 * rate * ramp_s)
    assert schedule.total == math.floor(
        0.55 * rate * ramp_s + rate * (duration_s - ramp_s)
    )
    # The rate never overshoots: no 100 ms window holds more than its share.
    window = max(
        bisect.bisect_left(due, t + 0.1) - k for k, t in enumerate(due)
    )
    assert window <= rate * 0.1 + 1


def test_ramp_longer_than_the_run_stops_partway_up():
    schedule = SendSchedule(1000, 1.0, 2.0)
    # 10% → 55% of 1000/s over the first second averages 325/s.
    assert schedule.total == 325
    assert schedule.due(schedule.total - 1) < 1.0 <= schedule.due(schedule.total)
