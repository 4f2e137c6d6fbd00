"""Deterministic realization of a :class:`~repro.faults.plan.FaultPlan`.

The injector owns the randomness: two independent RNG streams (loss and
jitter), each seeded from the plan seed with a distinct string salt, so
adding a jitter knob to a plan never perturbs its loss sequence. String
seeds hash through SHA-512 inside :class:`random.Random`, which is
stable across processes and Python versions — the same plan drops the
same frames everywhere.
"""

from __future__ import annotations

import random
from typing import Any, Dict

from repro.faults.plan import FaultPlan


class FaultInjector:
    """Answers "does this frame die?" deterministically, and counts."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._loss_rng = random.Random(f"{plan.seed}:loss")
        self._jitter_rng = random.Random(f"{plan.seed}:jitter")
        self._drops_by_kind: Dict[str, int] = {}

    @property
    def drops_by_kind(self) -> Dict[str, int]:
        """Injected drops per frame class name (a copy)."""
        return dict(self._drops_by_kind)

    @property
    def injected_drops(self) -> int:
        return sum(self._drops_by_kind.values())

    def should_drop(self, frame: Any) -> bool:
        """Decide the fate of one delivered frame.

        The RNG is only consulted for kinds with a nonzero loss rate, so
        turning loss on for one kind leaves every other kind's draw
        sequence untouched.
        """
        kind = type(frame).__name__
        probability = self.plan.loss_for_kind(kind)
        if probability <= 0.0:
            return False
        if probability < 1.0 and self._loss_rng.random() >= probability:
            return False
        self._drops_by_kind[kind] = self._drops_by_kind.get(kind, 0) + 1
        return True

    def delivery_jitter_s(self) -> float:
        """Per-delivery clock jitter: uniform [0, plan.clock_jitter_s]."""
        if self.plan.clock_jitter_s <= 0.0:
            return 0.0
        return self._jitter_rng.random() * self.plan.clock_jitter_s
