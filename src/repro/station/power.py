"""The smartphone power-state machine.

States and timed transitions::

    SUSPENDED --request_wake--> RESUMING --(T_rm)--> ACTIVE
    ACTIVE --request_suspend--> SUSPENDING --(T_sp)--> SUSPENDED
    SUSPENDING --request_wake--> ACTIVE   (suspend aborted, paper Eq. 14)

Every state change is recorded as a timestamped segment so energy can
be integrated over the exact timeline afterwards.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, List, Optional

from repro.errors import SimulationError
from repro.sim.engine import EventHandle, Simulator


class PowerState(enum.Enum):
    SUSPENDED = "suspended"
    RESUMING = "resuming"
    ACTIVE = "active"
    SUSPENDING = "suspending"


@dataclass(frozen=True)
class StateSegment:
    """A closed interval during which the system stayed in one state."""

    state: PowerState
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"segment ends before it starts: {self}")

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class PowerCounters:
    resumes: int = 0
    suspends_completed: int = 0
    suspends_aborted: int = 0
    #: Total seconds spent in suspend operations that were later aborted
    #: (the numerator of the paper's y(i)).
    aborted_suspend_time: float = 0.0
    #: Abrupt drops to SUSPENDED (crash injection), outside the normal
    #: suspend path.
    forced_suspends: int = 0


class PowerStateMachine:
    """Timed power-state transitions with full history recording."""

    def __init__(
        self,
        simulator: Simulator,
        resume_duration_s: float,
        suspend_duration_s: float,
        initial_state: PowerState = PowerState.SUSPENDED,
    ) -> None:
        if resume_duration_s < 0 or suspend_duration_s < 0:
            raise ValueError("transition durations must be non-negative")
        self._simulator = simulator
        self._resume_duration = resume_duration_s
        self._suspend_duration = suspend_duration_s
        self._state = initial_state
        self._state_since = simulator.now
        self._created_at = simulator.now
        self._segments: List[StateSegment] = []
        self._pending_transition: Optional[EventHandle] = None
        self._on_active_callbacks: List[Callable[[], None]] = []
        self.counters = PowerCounters()
        #: The listener lease booking this station's frames while it is
        #: ACTIVE; any transition settles it first.
        self.lease: Optional[Any] = None

    @property
    def state(self) -> PowerState:
        return self._state

    @property
    def created_at(self) -> float:
        """Simulation time this machine started recording its timeline.

        The energy-conservation invariant checks that the recorded
        segments exactly tile [created_at, now].
        """
        return self._created_at

    def _change_state(self, new_state: PowerState) -> None:
        if self.lease is not None:
            self.lease.settle()
        now = self._simulator.now
        self._segments.append(StateSegment(self._state, self._state_since, now))
        self._state = new_state
        self._state_since = now

    def segments(self) -> List[StateSegment]:
        """History including the still-open current segment (closed at now)."""
        return self._segments + [
            StateSegment(self._state, self._state_since, self._simulator.now)
        ]

    def when_active(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` as soon as the system is ACTIVE (maybe now)."""
        if self._state is PowerState.ACTIVE:
            callback()
        else:
            self._on_active_callbacks.append(callback)

    def request_wake(self) -> None:
        """A frame arrived (or equivalent): get the system to ACTIVE.

        From SUSPENDED this starts a resume operation; from SUSPENDING
        it aborts the in-flight suspend (counted, with the partial time
        accumulated); in RESUMING/ACTIVE it is a no-op.
        """
        if self._state is PowerState.SUSPENDED:
            self.counters.resumes += 1
            self._change_state(PowerState.RESUMING)
            self._pending_transition = self._simulator.schedule(
                self._resume_duration, self._finish_resume
            )
        elif self._state is PowerState.SUSPENDING:
            self.counters.suspends_aborted += 1
            self.counters.aborted_suspend_time += (
                self._simulator.now - self._state_since
            )
            if self._pending_transition is not None:
                self._pending_transition.cancel()
                self._pending_transition = None
            self._change_state(PowerState.ACTIVE)
            self._run_active_callbacks()
        # RESUMING: the in-flight resume already leads to ACTIVE.
        # ACTIVE: nothing to do.

    def _finish_resume(self) -> None:
        if self._state is not PowerState.RESUMING:
            raise SimulationError(f"resume completed in state {self._state}")
        self._pending_transition = None
        self._change_state(PowerState.ACTIVE)
        self._run_active_callbacks()

    def _run_active_callbacks(self) -> None:
        callbacks, self._on_active_callbacks = self._on_active_callbacks, []
        for callback in callbacks:
            callback()

    def force_suspend(self) -> None:
        """Crash path: drop to SUSPENDED from any state, immediately.

        Cancels any in-flight timed transition and discards queued
        when-active callbacks — they reference pre-crash intent, and a
        rebooted device must not replay them. The timeline stays
        contiguous: the interrupted state's segment is closed at now.
        """
        if self._pending_transition is not None:
            self._pending_transition.cancel()
            self._pending_transition = None
        self._on_active_callbacks = []
        self.counters.forced_suspends += 1
        if self._state is not PowerState.SUSPENDED:
            self._change_state(PowerState.SUSPENDED)

    def request_suspend(self) -> None:
        """Start the suspend operation. Only legal from ACTIVE."""
        if self._state is not PowerState.ACTIVE:
            raise SimulationError(f"cannot suspend from {self._state}")
        self._change_state(PowerState.SUSPENDING)
        self._pending_transition = self._simulator.schedule(
            self._suspend_duration, self._finish_suspend
        )

    def _finish_suspend(self) -> None:
        if self._state is not PowerState.SUSPENDING:
            raise SimulationError(f"suspend completed in state {self._state}")
        self._pending_transition = None
        self.counters.suspends_completed += 1
        self._change_state(PowerState.SUSPENDED)

    def time_in_state(self, state: PowerState) -> float:
        """Total seconds spent in ``state`` up to now.

        Durations are added left to right with ``+=``: ``sum()`` is
        compensated from Python 3.12 on, which would make meter
        energies depend on the interpreter.
        """
        total = 0.0
        for segment in self.segments():
            if segment.state is state:
                total += segment.duration
        return total
