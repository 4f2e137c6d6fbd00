"""Option budget: the settable values of the DES and sweep configs and
of the constructors behind ``repro serve`` and every ``/metrics`` page.

A new option needs a caller outside tests and examples that sets it to
a value other than its default; a value only one caller uses is a
module constant.
"""

import dataclasses
import inspect

import pytest

from repro.ap.access_point import ApConfig
from repro.ap.buffer import BroadcastBuffer
from repro.energy.model import EnergyModel, HideOverheadParams
from repro.experiments.des_run import DesRunConfig
from repro.experiments.sweep import SweepSpec
from repro.obs.server import MetricsServer
from repro.service.server import PortService
from repro.sim.engine import Simulator
from repro.sim.medium import Medium
from repro.sim.sniffer import ProtocolSniffer
from repro.solutions.base import Solution
from repro.solutions.hide import (
    CombinedSolution,
    HideRealisticSolution,
    HideSolution,
)
from repro.station.client import ClientConfig
from repro.traces.generators import TraceGenerator, generate_trace
from repro.traces.release import release_bursts
from repro.traces.stats import detect_bursts

_FIELDS = {
    ClientConfig: [
        "wakelock_timeout_s",
        "resume_duration_s",
        "suspend_duration_s",
        "policy",
        "loss_recovery",
        "port_refresh_interval_s",
    ],
    ApConfig: ["ssid", "dtim_period", "hide_enabled", "port_entry_ttl_s"],
    DesRunConfig: [
        "policy",
        "client_count",
        "useful_fraction",
        "duration_s",
        "profile",
        "dtim_period",
        "hide_ap",
        "fault_plan",
        "check_invariants",
        "recovery",
        "port_entry_ttl_s",
        "port_refresh_interval_s",
        "telemetry",
        "profiler",
        "ledger",
    ],
    SweepSpec: ["scenarios", "seeds", "config", "fault_spec", "timeseries_dir"],
    HideOverheadParams: ["port_message_interval_s", "ports_per_message"],
}

_PARAMETERS = {
    Simulator.post_at: ["self", "time", "callback"],
    Simulator.post_series: ["self", "times", "callback"],
    Simulator.schedule: ["self", "delay", "callback"],
    Simulator.schedule_at: ["self", "time", "callback"],
    Simulator.every: ["self", "interval_s", "callback"],
    Simulator.add_probe: ["self", "interval_s", "callback"],
    Medium.__init__: ["self", "simulator", "fault_injector"],
    detect_bursts: ["trace"],
    Solution.evaluate: ["self", "trace", "assignment", "profile", "dtim_period"],
    EnergyModel.__init__: ["self", "profile", "dtim_period"],
    EnergyModel.evaluate: ["self", "frames", "duration_s", "dynamics", "overhead"],
    TraceGenerator.__init__: ["self", "spec", "dtim_period"],
    generate_trace: ["scenario", "seed", "dtim_period"],
    release_bursts: ["offered", "duration_s", "dtim_period"],
    MetricsServer.__init__: [
        "self", "rows_fn", "recorder", "health_fn", "profile_fn", "host", "port",
    ],
    PortService.__init__: ["self", "config"],
}

_CONSTRUCTORS = {
    BroadcastBuffer: [],
    ProtocolSniffer: ["frame_filter"],
    HideSolution: ["more_data_mode"],
    HideRealisticSolution: [],
    CombinedSolution: [],
}


@pytest.mark.parametrize("config", list(_FIELDS), ids=lambda c: c.__name__)
def test_config_fields(config):
    assert [field.name for field in dataclasses.fields(config)] == _FIELDS[config]


@pytest.mark.parametrize(
    "function", list(_PARAMETERS), ids=lambda f: f.__qualname__
)
def test_parameters(function):
    assert list(inspect.signature(function).parameters) == _PARAMETERS[function]


@pytest.mark.parametrize(
    "cls", list(_CONSTRUCTORS), ids=lambda c: c.__name__
)
def test_constructor_parameters(cls):
    assert list(inspect.signature(cls).parameters) == _CONSTRUCTORS[cls]
