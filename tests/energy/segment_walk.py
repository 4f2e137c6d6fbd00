"""Oracle for the closed form's suspended-time count.

Lays the recursion's awake episodes out on the clock as merged,
window-clamped ``(state, start, end)`` segments: a suspended arrival
ends a SUSPENDED run at its receive instant and opens a RESUMING one;
within an episode the gap between lock coverage and the next frame is
SUSPENDING (an aborted suspend); each episode closes with a completed
SUSPENDING of T_sp. :meth:`EnergyModel.counts` folds only the
SUSPENDED lengths in one pass; the tests hold it to this walk.
"""

from typing import List, Optional, Sequence, Tuple

from repro.energy.dynamics import FrameDynamics
from repro.station.power import PowerState

Segment = Tuple[PowerState, float, float]


def walk_segments(
    dynamics: Sequence[FrameDynamics], tsp: float, duration_s: float
) -> List[Segment]:
    segments: List[Segment] = []

    def emit(state: PowerState, end: float) -> None:
        end = min(end, duration_s)
        cursor = segments[-1][2] if segments else 0.0
        if end <= cursor:
            return
        if segments and segments[-1][0] is state:
            segments[-1] = (state, segments[-1][1], end)
        else:
            segments.append((state, cursor, end))

    previous_awake_until: Optional[float] = None
    for dyn in dynamics:
        if dyn.suspended_on_arrival:
            if previous_awake_until is not None:
                emit(PowerState.SUSPENDING, previous_awake_until + tsp)
            emit(PowerState.SUSPENDED, dyn.event.rx_complete)
            emit(PowerState.RESUMING, dyn.wakelock_start)
        else:
            emit(PowerState.SUSPENDING, dyn.wakelock_start)
        emit(PowerState.ACTIVE, dyn.wakelock_start + dyn.wakelock_timeout)
        previous_awake_until = dyn.awake_until
    if previous_awake_until is not None:
        emit(PowerState.SUSPENDING, previous_awake_until + tsp)
    emit(PowerState.SUSPENDED, duration_s)
    return segments


def lengths(segments: Sequence[Segment], state: PowerState) -> List[float]:
    """Each ``state`` segment's length, in time order."""
    return [end - start for seg_state, start, end in segments if seg_state is state]
