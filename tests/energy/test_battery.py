import pytest

from repro.energy.battery import Battery, GALAXY_S4_BATTERY, NEXUS_ONE_BATTERY
from repro.errors import ConfigurationError


class TestBattery:
    def test_capacity_joules(self):
        # 1400 mAh * 3.7 V * 3600 s/h = 18648 J.
        assert NEXUS_ONE_BATTERY.capacity_j == pytest.approx(18648.0)

    def test_drain_hours(self):
        battery = Battery(capacity_mah=1000, voltage_v=3.6)
        # 13 kJ at 1 W -> 3.6 hours.
        assert battery.drain_hours(1.0) == pytest.approx(3.6)

    def test_s4_bigger_than_n1(self):
        assert GALAXY_S4_BATTERY.capacity_j > NEXUS_ONE_BATTERY.capacity_j

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Battery(capacity_mah=0)
        with pytest.raises(ConfigurationError):
            Battery(capacity_mah=100, voltage_v=0)
        with pytest.raises(ConfigurationError):
            NEXUS_ONE_BATTERY.drain_hours(0.0)
