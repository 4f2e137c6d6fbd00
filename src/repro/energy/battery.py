"""Battery arithmetic: turning average power into hours of drain.

The paper reports mW; what a user feels is hours. :class:`Battery`
converts a constant draw into time-to-empty.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class Battery:
    """A battery described the way spec sheets do."""

    capacity_mah: float
    voltage_v: float = 3.7

    def __post_init__(self) -> None:
        if self.capacity_mah <= 0:
            raise ConfigurationError("capacity must be positive")
        if self.voltage_v <= 0:
            raise ConfigurationError("voltage must be positive")

    @property
    def capacity_j(self) -> float:
        return self.capacity_mah * 1e-3 * self.voltage_v * 3600

    def drain_hours(self, power_w: float) -> float:
        """Hours to empty at a constant draw."""
        if power_w <= 0:
            raise ConfigurationError("power must be positive")
        return self.capacity_j / power_w / 3600


#: The Nexus One ships a 1400 mAh battery; the Galaxy S4 a 2600 mAh one.
NEXUS_ONE_BATTERY = Battery(capacity_mah=1400)
GALAXY_S4_BATTERY = Battery(capacity_mah=2600)
