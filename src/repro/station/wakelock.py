"""The WiFi driver wakelock (paper §IV-1).

Each received data frame acquires a wakelock of duration ``τ``; a frame
arriving while the lock is held *renews* it (resets time-to-expire to
τ). When the lock finally expires, the owner is notified so it can start
the suspend path. Because renewals collapse into one logical lock, the
manager models a single lock with a moving expiry — exactly the paper's
"we combine them into one single wakelock".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.sim.engine import EventHandle, Simulator


class WakelockManager:
    """One renewable wakelock with expiry notification."""

    def __init__(
        self,
        simulator: Simulator,
        timeout_s: float,
        on_expire: Optional[Callable[[], None]] = None,
    ) -> None:
        if timeout_s < 0:
            raise ValueError("wakelock timeout must be non-negative")
        self._simulator = simulator
        self._timeout = timeout_s
        self._on_expire = on_expire
        self._expiry_event: Optional[EventHandle] = None
        self._held_since: Optional[float] = None
        self._expires_at: Optional[float] = None
        self.acquisitions = 0
        self.renewals = 0
        self._hold_periods: List[Tuple[float, float]] = []

    @property
    def held(self) -> bool:
        return self._expiry_event is not None

    @property
    def expires_at(self) -> Optional[float]:
        return self._expires_at

    def acquire(self, timeout_s: Optional[float] = None) -> None:
        """Acquire or renew the lock for ``timeout_s`` (default τ).

        Renewal never *shortens* a held lock: acquiring for less time
        than already remains (e.g. a zero-length acquire from a frame
        the driver drops) leaves the expiry where it was. A zero-length
        acquire on an idle lock expires via the event queue, which
        serializes the expiry after every same-instant acquisition —
        so a dropped frame can never suspend out from under a useful
        frame received in the same delivery batch.
        """
        timeout = self._timeout if timeout_s is None else timeout_s
        if timeout < 0:
            raise ValueError("wakelock timeout must be non-negative")
        now = self._simulator.now
        new_expiry = now + timeout
        if self._expiry_event is not None:
            self.renewals += 1
            if self._expires_at is not None and new_expiry <= self._expires_at:
                return  # held longer already; nothing to extend
            self._expires_at = new_expiry
            # Renewal moves the held expiry; the handle is reused.
            self._simulator.rearm(self._expiry_event, timeout)
            return
        self.acquisitions += 1
        self._held_since = now
        self._expires_at = new_expiry
        self._expiry_event = self._simulator.schedule(timeout, self._expire)

    def release_now(self) -> None:
        """Drop the lock immediately (client-side filtering path)."""
        if self._expiry_event is not None:
            self._expiry_event.cancel()
            self._expire()

    def drop(self) -> None:
        """Drop the lock *without* the expiry notification (crash path).

        A crashed device must not run its suspend-entry logic from a
        timer armed before the crash; the hold period is still closed so
        held-time accounting stays exact.
        """
        if self._expiry_event is not None:
            self._expiry_event.cancel()
        self._expiry_event = None
        self._expires_at = None
        if self._held_since is not None:
            self._hold_periods.append((self._held_since, self._simulator.now))
            self._held_since = None

    def _expire(self) -> None:
        self._expiry_event = None
        self._expires_at = None
        if self._held_since is not None:
            self._hold_periods.append((self._held_since, self._simulator.now))
            self._held_since = None
        if self._on_expire is not None:
            self._on_expire()

    def total_held_time(self) -> float:
        """Total seconds the lock has been held (open hold counted to now)."""
        total = sum(end - start for start, end in self._hold_periods)
        if self._held_since is not None:
            total += self._simulator.now - self._held_since
        return total

    def hold_periods(self) -> List[Tuple[float, float]]:
        periods = list(self._hold_periods)
        if self._held_since is not None:
            periods.append((self._held_since, self._simulator.now))
        return periods
