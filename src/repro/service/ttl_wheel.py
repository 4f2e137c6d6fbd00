"""A hierarchical TTL expiry wheel for port-table entries.

The sim's AP calls ``expire_older_than`` on every DTIM — an O(clients)
scan that is fine at 25 stations and ruinous at 10k. The service
instead keeps a two-level timing wheel: scheduling a deadline is O(1),
and an :meth:`advance` sweep touches only the slots the clock actually
crossed, so a mostly-alive fleet costs almost nothing per tick.

Design notes:

* **Lazy cancellation.** Refreshing a client's TTL just records the new
  deadline and appends to the new slot; the stale slot entry is
  discarded when its slot is swept (the same trick the DES event heap
  uses for cancelled events). ``deadlines[key]`` is the single source of truth.
* **Two levels.** Level 0 is ``wheel_slots`` fine slots of
  ``granularity_s`` each; level 1 is ``cascade_slots`` coarse slots
  each spanning the whole level-0 horizon. Deadlines beyond both go to
  an overflow list that re-files on every coarse cascade. With the
  defaults (0.25 s × 256 ≈ 64 s fine horizon, × 64 ≈ 68 min coarse)
  every realistic keep-alive TTL lands in level 0 directly.
* **Exact expiry.** A fine slot is only swept once ``now`` has passed
  the slot's *end*, so nothing ever expires early; an entry expires at
  most one :meth:`advance` call after its deadline.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional

from repro.errors import ConfigurationError


class TtlWheel:
    """Two-level timing wheel mapping keys to expiry deadlines."""

    def __init__(
        self,
        granularity_s: float = 0.25,
        wheel_slots: int = 256,
        cascade_slots: int = 64,
        start: float = 0.0,
    ) -> None:
        if granularity_s <= 0:
            raise ConfigurationError(f"granularity must be positive: {granularity_s}")
        if wheel_slots < 2 or cascade_slots < 2:
            raise ConfigurationError("both wheel levels need at least 2 slots")
        self.granularity_s = granularity_s
        self.wheel_slots = wheel_slots
        self.cascade_slots = cascade_slots
        #: key -> authoritative deadline (lazy-cancellation truth).
        self._deadlines: Dict[Hashable, float] = {}
        self._fine: List[List] = [[] for _ in range(wheel_slots)]
        self._coarse: List[List] = [[] for _ in range(cascade_slots)]
        self._overflow: List = []
        self._fine_span = granularity_s * wheel_slots
        self._coarse_span = self._fine_span * cascade_slots
        #: Absolute index of the last fully swept fine slot.
        self._fine_cursor = self._fine_index(start) - 1
        self._coarse_cursor = self._coarse_index(start)
        self._now = start

    def _fine_index(self, when: float) -> int:
        return int(when / self.granularity_s)

    def _coarse_index(self, when: float) -> int:
        return int(when / self._fine_span)

    def __len__(self) -> int:
        return len(self._deadlines)

    @property
    def now(self) -> float:
        return self._now

    def deadline_of(self, key: Hashable) -> Optional[float]:
        return self._deadlines.get(key)

    def schedule(self, key: Hashable, deadline: float) -> None:
        """(Re)arm ``key`` to expire at ``deadline``; latest call wins."""
        self._deadlines[key] = deadline
        self._file(key, deadline)

    def cancel(self, key: Hashable) -> None:
        """Disarm ``key``; its slot entries die lazily at sweep time."""
        self._deadlines.pop(key, None)

    def _file(self, key: Hashable, deadline: float) -> None:
        entry = (key, deadline)
        if deadline - self._now < self._fine_span:
            # Might still land on an already-swept absolute slot when
            # the deadline is in the past; clamp to the next sweep.
            slot = max(self._fine_index(deadline), self._fine_cursor + 1)
            self._fine[slot % self.wheel_slots].append(entry)
        elif deadline - self._now < self._coarse_span:
            self._coarse[self._coarse_index(deadline) % self.cascade_slots].append(entry)
        else:
            self._overflow.append(entry)

    def advance(self, now: float) -> List[Hashable]:
        """Sweep the clock forward; returns expired keys sorted for
        deterministic downstream events."""
        if now < self._now:
            raise ConfigurationError(
                f"wheel time went backwards: {now} < {self._now}"
            )
        self._now = now
        expired: List[Hashable] = []

        # Cascade coarse slots whose span the clock has fully entered,
        # re-filing their entries into fine slots (or back, if stale).
        target_coarse = self._coarse_index(now)
        while self._coarse_cursor < target_coarse:
            self._coarse_cursor += 1
            slot = self._coarse[self._coarse_cursor % self.cascade_slots]
            if slot:
                pending, slot[:] = slot[:], []
                for key, deadline in pending:
                    if self._deadlines.get(key) == deadline:
                        self._file(key, deadline)
            if self._overflow:
                pending, self._overflow = self._overflow, []
                for key, deadline in pending:
                    if self._deadlines.get(key) == deadline:
                        self._file(key, deadline)

        # Sweep fine slots whose entire range is in the past. Slot s
        # covers [s*g, (s+1)*g), so it is due once now >= (s+1)*g —
        # i.e. once the cursor target (the slot `now` sits in) is past s.
        target_fine = self._fine_index(now)
        while self._fine_cursor < target_fine - 1:
            self._fine_cursor += 1
            slot = self._fine[self._fine_cursor % self.wheel_slots]
            if not slot:
                continue
            pending, slot[:] = slot[:], []
            for key, deadline in pending:
                if self._deadlines.get(key) != deadline:
                    continue  # rescheduled or cancelled: stale entry
                if deadline <= now:
                    del self._deadlines[key]
                    expired.append(key)
                else:  # pragma: no cover - defensive; cannot happen today
                    self._file(key, deadline)
        expired.sort()
        return expired
