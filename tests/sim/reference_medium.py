"""The everyone-receives delivery oracle.

:class:`ReferenceMedium` hands each frame to every other attached
entity's ``on_receive``, in attach order, and lets each client book its
own energy per frame inside that handler. It binds no radio slots, so
none of the production lane's routing, fan-out plans, batched run hooks
or deferred accrual takes part. The drop decision goes through the same
fault injector, so both media consume the same loss draws.

The equivalence suites run one seeded DES on each medium and require
identical fingerprints, counters, exports and traces. Full-DES tests
swap the oracle in with::

    monkeypatch.setattr(repro.experiments.des_run, "Medium", ReferenceMedium)

or, where no ``monkeypatch`` fixture is at hand (hypothesis tests), run
inside :func:`oracle_des`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

import pytest

import repro.experiments.des_run
from repro.errors import SimulationError
from repro.sim.medium import Medium


class ReferenceMedium(Medium):
    """A :class:`Medium` whose delivery is one loop over every target."""

    def attach(self, entity):
        if entity in self._entities:
            raise SimulationError(f"{entity!r} already attached to medium")
        self._entities.append(entity)
        self._targets = tuple(self._entities)
        if not entity.is_attached:
            entity.attach(self._simulator)

    def _deliver(self, transmission, on_complete):
        sender = transmission.sender
        self._transmissions_completed += 1
        dropped = False
        if self._fault_injector is not None:
            dropped = self._fault_injector.should_drop(transmission.frame)
        if dropped:
            self._frames_dropped += 1
        else:
            for entity in self._targets:
                if entity is not sender:
                    entity.on_receive(transmission)
        for observer in self._delivery_observers:
            observer(transmission, dropped)
        if dropped:
            return
        if on_complete is not None:
            on_complete(transmission)


@contextmanager
def oracle_des() -> Iterator[None]:
    """Build every full DES started inside the block on the oracle."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(repro.experiments.des_run, "Medium", ReferenceMedium)
        yield
