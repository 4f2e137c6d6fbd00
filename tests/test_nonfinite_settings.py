"""Non-finite settings are refused where they enter.

NaN passes every ``<= 0`` check, and a NaN or infinite time or interval
either never ends a run (a NaN probe is always next, ``run(until=nan)``
never reaches its limit), never expires a port entry, or writes a
timeseries dump that is not valid JSON. These tests only build configs
and register probes; none of them runs a simulation.
"""

import math

import pytest

from repro.ap.access_point import ApConfig
from repro.errors import ConfigurationError, SimulationError
from repro.experiments.des_run import DesRunConfig, TelemetryConfig
from repro.sim.engine import Simulator
from repro.station.client import ClientConfig

NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("value", NON_FINITE)
def test_telemetry_window(value):
    with pytest.raises(ConfigurationError):
        TelemetryConfig(window=value)


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize(
    "field", ["duration_s", "port_entry_ttl_s", "port_refresh_interval_s"]
)
def test_des_run_config(field, value):
    with pytest.raises(ConfigurationError):
        DesRunConfig(**{field: value})


@pytest.mark.parametrize("value", NON_FINITE)
def test_ap_port_entry_ttl(value):
    with pytest.raises(ConfigurationError):
        ApConfig(port_entry_ttl_s=value)


@pytest.mark.parametrize("value", NON_FINITE)
def test_client_port_refresh_interval(value):
    with pytest.raises(ConfigurationError):
        ClientConfig(port_refresh_interval_s=value)


@pytest.mark.parametrize("value", NON_FINITE)
def test_probe_interval(value):
    with pytest.raises(SimulationError):
        Simulator().add_probe(value, lambda: None)


def test_run_until_nan():
    # An empty simulator: refused before the loop, and nothing to run
    # were it not.
    with pytest.raises(SimulationError):
        Simulator().run(until=math.nan)


def test_finite_settings_still_accepted():
    assert TelemetryConfig(window=0.5).window_seconds(1) == 0.5
    DesRunConfig(duration_s=2.0, port_entry_ttl_s=10.0, port_refresh_interval_s=4.0)
    ApConfig(port_entry_ttl_s=10.0)
    ClientConfig(port_refresh_interval_s=4.0)
