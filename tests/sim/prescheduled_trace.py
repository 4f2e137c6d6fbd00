"""The preschedule oracle: every event of a series queued up front.

:class:`PrescheduledSimulator` is a :class:`~repro.sim.engine.Simulator`
whose ``post_series`` posts each event of the series with ``post_at``,
in index order, before the clock starts.  That is how the DES replay
queued trace frames before it streamed them: one heap record per frame,
each taking the next sequence number as it was posted.  The production
engine keeps one record per series and pushes the next as each fires;
the differential suite (``tests/sim/test_trace_stream.py``) runs the
same replay on both and requires identical event tapes, counts and
fingerprints.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Sequence

from repro.sim.engine import Simulator


class PrescheduledSimulator(Simulator):
    """A :class:`Simulator` that posts every series event at once."""

    def post_series(
        self, times: Sequence[float], callback: Callable[[int], None]
    ) -> None:
        for index, time in enumerate(times):
            self.post_at(time, partial(callback, index))
