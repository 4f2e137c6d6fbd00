"""The cancel-and-push renewal oracle.

:class:`EagerSimulator` is a :class:`~repro.sim.engine.Simulator` whose
``rearm`` is the engine's original eager renewal: a live event becomes
a tombstone in the heap and a new record is pushed under a fresh
sequence number.  It never moves a record, so the production engine's
lazy renewal and superseded-deadline accounting take no part, and
``queue_depth`` is plain ``len(queue)``.  The differential suite
(``tests/property/test_rearm_equivalence.py``) replays command tapes on
both engines and requires identical firing logs, handle views and
counters.
"""

from __future__ import annotations

from heapq import heappush

from repro.errors import SimulationError
from repro.sim.engine import EventHandle, Simulator


class EagerSimulator(Simulator):
    """A :class:`Simulator` whose renewals cancel and push."""

    def rearm(self, handle: EventHandle, delay: float) -> None:
        record = handle._record
        if record[4] is not None:
            raise SimulationError("rearm() takes a one-shot event handle")
        time = self._now + delay
        if not (delay >= 0.0 and time < float("inf")):
            if delay < 0.0:
                raise SimulationError(
                    f"cannot schedule into the past: delay={delay}"
                )
            raise SimulationError(f"event time must be finite: {time}")
        if record[3] is False:
            record[3] = True
            self._events_cancelled += 1
        sequence = self._sequence
        self._sequence = sequence + 1
        record = [time, sequence, record[2], False, None]
        heappush(self._queue, record)
        handle._record = record
