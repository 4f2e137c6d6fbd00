"""Always-on simulation invariant checkers.

The fault-injection layer makes it easy to put the protocol into states
the happy path never visits, so these checkers assert the properties
that must hold *regardless* of loss, crashes, or jitter:

* **No silent misses** — a useful broadcast frame that the medium
  delivered is never slept through. Injected loss is automatically
  excluded: a dropped frame never reaches any radio, so it cannot be
  "missed". Any nonzero miss count is a protocol bug.
* **Energy-timeline conservation** — each client's per-state time
  totals are non-negative and sum to the elapsed simulation time
  ``now - created_at``. Energy integration is only meaningful when no
  time is lost or counted twice.
* **Port-table / association consistency** — the AP's Client UDP Port
  Table internal maps are exact inverses, every AID it stores is
  currently associated, and every BTIM bit the AP last advertised
  belongs to an associated station.

Violations raise :class:`InvariantViolation` carrying the run seed so a
failing property-sweep case can be replayed exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.dot11.data import DataFrame
from repro.errors import SimulationError
from repro.station.power import PowerState

if TYPE_CHECKING:
    from repro.ap.access_point import AccessPoint
    from repro.sim.engine import RecurringHandle, Simulator
    from repro.sim.medium import Medium, Transmission
    from repro.station.client import Client

#: Tolerance for floating-point timeline arithmetic, per transition.
#: State-change times are produced by summing scheduled delays, and each
#: closed interval adds its rounding to a per-state total, so the totals
#: can miss the elapsed time by a few ULPs without any time being lost.
TIME_TOLERANCE_S = 1e-9


@dataclass(frozen=True)
class Violation:
    """One failed invariant check."""

    invariant: str
    sim_time: float
    detail: str

    def __str__(self) -> str:
        return f"[{self.invariant}] t={self.sim_time:.6f}s: {self.detail}"


class InvariantViolation(SimulationError):
    """One or more invariants failed; carries the seed for replay."""

    def __init__(
        self, violations: Sequence[Violation], seed: Optional[int] = None
    ) -> None:
        self.violations = list(violations)
        self.seed = seed
        seed_note = f" (seed={seed})" if seed is not None else ""
        lines = "\n".join(f"  - {v}" for v in self.violations)
        super().__init__(
            f"{len(self.violations)} invariant violation(s){seed_note}:\n{lines}"
        )


#: Simulated seconds between periodic invariant sweeps.
CHECK_INTERVAL_S = 1.0


class InvariantSuite:
    """Periodic + final invariant checks over one simulation run.

    Attach before ``simulator.run()``; the suite subscribes to the
    medium's delivery feed (for broadcast-delivery accounting) and
    re-checks every :data:`CHECK_INTERVAL_S` of simulated time, so a
    violation surfaces near the event that caused it rather than at the
    end of a long run. Call :meth:`check_final` after the run completes.
    """

    def __init__(
        self,
        simulator: "Simulator",
        medium: "Medium",
        access_point: "AccessPoint",
        clients: Sequence["Client"],
        seed: Optional[int] = None,
    ) -> None:
        self._simulator = simulator
        self._medium = medium
        self._ap = access_point
        self._clients = list(clients)
        self._seed = seed
        self.checks_run = 0
        #: Broadcast DataFrames the medium finished airing / dropped by
        #: injected loss — the denominators for delivery-ratio bounds.
        self.broadcast_frames_aired = 0
        self.broadcast_frames_dropped = 0
        medium.add_delivery_observer(self._on_delivery)
        self._tick: Optional["RecurringHandle"] = simulator.every(
            CHECK_INTERVAL_S, self.check_now
        )

    # -- delivery accounting --------------------------------------------

    def _on_delivery(self, transmission: "Transmission", dropped: bool) -> None:
        frame = transmission.frame
        if isinstance(frame, DataFrame) and frame.is_broadcast:
            self.broadcast_frames_aired += 1
            if dropped:
                self.broadcast_frames_dropped += 1

    @property
    def broadcast_frames_delivered(self) -> int:
        return self.broadcast_frames_aired - self.broadcast_frames_dropped

    # -- the checks ------------------------------------------------------

    def violations(self) -> List[Violation]:
        """Run every check now; returns violations instead of raising."""
        # Mid-run checks fire as events, between the engine's counter
        # sync points: settle any deferred delivery accrual first so
        # per-client counters are exact at read time.
        self._medium.sync_accounting()
        now = self._simulator.now
        found: List[Violation] = []
        found.extend(self._check_useful_frame_misses(now))
        found.extend(self._check_energy_timelines(now))
        found.extend(self._check_port_table(now))
        return found

    def check_now(self) -> None:
        """Run every check; raise :class:`InvariantViolation` on failure."""
        self.checks_run += 1
        found = self.violations()
        if found:
            raise InvariantViolation(found, seed=self._seed)

    def check_final(self) -> None:
        """End-of-run check; also stops the periodic re-check."""
        if self._tick is not None:
            self._tick.cancel()
            self._tick = None
        self.check_now()

    def _check_useful_frame_misses(self, now: float) -> List[Violation]:
        found: List[Violation] = []
        for client in self._clients:
            missed = client.counters.useful_frames_missed
            if missed:
                found.append(
                    Violation(
                        "useful-frame-miss",
                        now,
                        f"{client.name} slept through {missed} useful "
                        f"broadcast frame(s) the medium delivered",
                    )
                )
        return found

    def _check_energy_timelines(self, now: float) -> List[Violation]:
        found: List[Violation] = []
        for client in self._clients:
            power = client.power
            if power is None:
                continue  # never attached: no timeline to conserve yet
            total = 0.0
            for state in PowerState:
                spent = power.time_in_state(state)
                if spent < 0:
                    found.append(
                        Violation(
                            "energy-conservation",
                            now,
                            f"{client.name}: {spent:.9f}s in {state.value}",
                        )
                    )
                total += spent
            elapsed = now - power.created_at
            if abs(total - elapsed) > TIME_TOLERANCE_S * (power.transitions + 1):
                found.append(
                    Violation(
                        "energy-conservation",
                        now,
                        f"{client.name}: state durations sum to "
                        f"{total:.9f}s over {elapsed:.9f}s elapsed",
                    )
                )
        return found

    def _check_port_table(self, now: float) -> List[Violation]:
        found: List[Violation] = []
        for problem in self._ap.port_table.check_consistency():
            found.append(Violation("port-table-consistency", now, problem))
        associated = frozenset(record.aid for record in self._ap.associations)
        orphans = self._ap.port_table.aids() - associated
        if orphans:
            found.append(
                Violation(
                    "port-table-consistency",
                    now,
                    f"port table holds unassociated AID(s) {sorted(orphans)}",
                )
            )
        ghost_bits = frozenset(self._ap.last_btim_aids) - associated
        if ghost_bits:
            found.append(
                Violation(
                    "port-table-consistency",
                    now,
                    f"BTIM advertised unassociated AID(s) {sorted(ghost_bits)}",
                )
            )
        return found
