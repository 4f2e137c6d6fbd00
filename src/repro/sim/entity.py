"""Base class for simulated network entities."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.errors import SimulationError

if TYPE_CHECKING:
    from repro.sim.engine import Simulator
    from repro.sim.medium import Medium, Transmission


class Entity:
    """Something attached to a simulator and (optionally) a medium.

    Subclasses override :meth:`on_receive` to handle frames delivered by
    the medium and :meth:`on_attach` to schedule their initial events.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._simulator: Optional["Simulator"] = None

    @property
    def simulator(self) -> "Simulator":
        if self._simulator is None:
            raise SimulationError(f"entity {self.name!r} is not attached")
        return self._simulator

    @property
    def is_attached(self) -> bool:
        """Whether this entity has ever been attached to a simulator."""
        return self._simulator is not None

    @property
    def now(self) -> float:
        return self.simulator.now

    def attach(self, simulator: "Simulator") -> None:
        if self._simulator is not None:
            raise SimulationError(f"entity {self.name!r} already attached")
        self._simulator = simulator
        self.on_attach()

    def on_attach(self) -> None:
        """Hook: schedule initial activity. Default does nothing."""

    def on_receive(self, transmission: "Transmission") -> None:
        """Hook: a frame finished arriving at this entity."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"
