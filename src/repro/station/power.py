"""The smartphone power-state machine.

States and timed transitions::

    SUSPENDED --request_wake--> RESUMING --(T_rm)--> ACTIVE
    ACTIVE --request_suspend--> SUSPENDING --(T_sp)--> SUSPENDED
    SUSPENDING --request_wake--> ACTIVE   (suspend aborted, paper Eq. 14)

The machine keeps running totals, one float per state plus the
transition count: the energy model (paper Section IV) needs how long
the phone spent in each state, not when.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro._slots import slotted
from repro.errors import SimulationError
from repro.sim.engine import EventHandle, Simulator


class PowerState(enum.Enum):
    SUSPENDED = "suspended"
    RESUMING = "resuming"
    ACTIVE = "active"
    SUSPENDING = "suspending"


@slotted
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
    """Timed power-state transitions with per-state time totals."""

    __slots__ = (
        "_simulator",
        "_resume_duration",
        "_suspend_duration",
        "_state",
        "_state_since",
        "_created_at",
        "_time_in",
        "transitions",
        "_pending_transition",
        "_on_active_callbacks",
        "counters",
        "lease",
    )

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
        #: Seconds spent in each state up to ``_state_since``.
        self._time_in: Dict[PowerState, float] = dict.fromkeys(PowerState, 0.0)
        #: State changes so far; the conservation check scales its
        #: float tolerance by it.
        self.transitions = 0
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
        """Simulation time this machine started accruing state time.

        The energy-conservation invariant checks that the per-state
        totals sum to ``now - created_at``.
        """
        return self._created_at

    def _change_state(self, new_state: PowerState) -> None:
        if self.lease is not None:
            self.lease.settle()
        now = self._simulator.now
        self._time_in[self._state] += now - self._state_since
        self.transitions += 1
        self._state = new_state
        self._state_since = now

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
        rebooted device must not replay them. No time goes unaccounted:
        the interrupted state's interval is closed at now.
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

        Each closed interval was added with ``+=`` as it closed, and the
        open one is added last, so this is a left-to-right fold in
        time order: ``sum()`` is compensated from Python 3.12 on, which
        would make meter energies depend on the interpreter.
        """
        total = self._time_in[state]
        if state is self._state:
            total += self._simulator.now - self._state_since
        return total
