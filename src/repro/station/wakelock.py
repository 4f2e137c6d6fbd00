"""The WiFi driver wakelock (paper §IV-1).

Each received data frame acquires a wakelock of duration ``τ``; a frame
arriving while the lock is held *renews* it (resets time-to-expire to
τ). When the lock finally expires, the owner is notified so it can start
the suspend path. Because renewals collapse into one logical lock, the
manager models a single lock with a moving expiry — exactly the paper's
"we combine them into one single wakelock". The expiry is one engine
event renewed with :meth:`~repro.sim.engine.Simulator.rearm`, which is
lazy: a renewal stores the moved deadline on the event record, and the
run loop re-files the record only when it reaches the old deadline, so
a frame that renews a held lock pushes nothing onto the event heap.
Held time is kept as a running total: each hold adds
its duration once, when it closes.

Leased renewal: while its station listens to a broadcast burst, a held
lock can be lent to the medium's listener lease (:meth:`lease_to`).
The lease then books every renewal a mid-burst frame makes in bulk, and
the expiry record's key is delegated to it.  Every entry point below
settles the lease first (:meth:`end_lease`), so ``renewals``, the
expiry and the record are exactly what one renewal per frame gives.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Tuple

from repro.sim.engine import EventHandle, Simulator


class WakelockManager:
    """One renewable wakelock with expiry notification."""

    __slots__ = (
        "_simulator",
        "_timeout",
        "_on_expire",
        "_expiry_event",
        "_held_since",
        "_expires_at",
        "acquisitions",
        "renewals",
        "_closed_held_s",
        "_lease",
    )

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
        #: Seconds held across closed holds, added left to right with
        #: ``+=`` as each hold closes. ``sum()`` is compensated from
        #: Python 3.12 on and would tie the total to the interpreter.
        self._closed_held_s = 0.0
        #: The listener lease renewing this lock, while it holds it.
        self._lease: Any = None

    @property
    def held(self) -> bool:
        return self._expiry_event is not None

    def lease_to(
        self, lease: Any, deadline: Optional[float] = None
    ) -> Optional[Tuple[float, int]]:
        """Lend the held lock to ``lease``; returns its expiry key.

        Until the lease hands the lock back through :meth:`end_lease`,
        it renews the lock once per frame, and every entry point here
        first calls ``lease.settle()``.  With ``deadline``, lends it
        only if it expires exactly then (else returns None).
        """
        if deadline is not None and self._expires_at != deadline:
            return None
        self._lease = lease
        return self._simulator.delegate(self._expiry_event, lease)

    def end_lease(self, renewals: int, key: Tuple[float, int]) -> None:
        """Take the lock back after ``renewals`` leased renewals.

        ``key`` is the expiry's ``(time, sequence)`` after the last
        renewal that extended it.
        """
        lease, self._lease = self._lease, None
        self.renewals += renewals
        self._expires_at = key[0]
        self._simulator.reclaim(self._expiry_event, lease, key)

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
        if self._lease is not None:
            self._lease.settle()
        if timeout_s is None:
            timeout = self._timeout  # checked at construction
        elif timeout_s < 0:
            raise ValueError("wakelock timeout must be non-negative")
        else:
            timeout = timeout_s
        now = self._simulator.now
        new_expiry = now + timeout
        event = self._expiry_event
        if event is not None:
            self.renewals += 1
            # Held longer already: nothing to extend.  Otherwise the
            # renewal moves the held expiry; the handle is reused.
            if new_expiry > self._expires_at:
                self._expires_at = new_expiry
                self._simulator.rearm(event, timeout)
            return
        self.acquisitions += 1
        self._held_since = now
        self._expires_at = new_expiry
        self._expiry_event = self._simulator.schedule(timeout, self._expire)

    def release_now(self) -> None:
        """Drop the lock immediately (client-side filtering path)."""
        if self._lease is not None:
            self._lease.settle()
        if self._expiry_event is not None:
            self._expiry_event.cancel()
            self._expire()

    def drop(self) -> None:
        """Drop the lock *without* the expiry notification (crash path).

        A crashed device must not run its suspend-entry logic from a
        timer armed before the crash; the hold period is still closed so
        held-time accounting stays exact.
        """
        if self._lease is not None:
            self._lease.settle()
        if self._expiry_event is not None:
            self._expiry_event.cancel()
        self._close_hold()

    def _expire(self) -> None:
        if self._lease is not None:
            self._lease.settle()
        self._close_hold()
        if self._on_expire is not None:
            self._on_expire()

    def _close_hold(self) -> None:
        self._expiry_event = None
        self._expires_at = None
        if self._held_since is not None:
            self._closed_held_s += self._simulator.now - self._held_since
            self._held_since = None

    def total_held_time(self) -> float:
        """Total seconds the lock has been held (open hold counted to now)."""
        if self._held_since is None:
            return self._closed_held_s
        return self._closed_held_s + (self._simulator.now - self._held_since)
