"""The DES makes no reference cycles while it runs.

Every object a run allocates and drops is freed by reference counting,
so the cyclic collector finds nothing to reclaim during ``execute()``.
Each case wires a run, collects what start-up left behind, then runs
with the collector off and ``DEBUG_SAVEALL`` on, so any object that
only the cycle detector could free ends up in ``gc.garbage``.

The wired DES graph (Client <-> Medium) is itself cyclic, so a result
kept alive into the next case would show up there as garbage: each case
drops its run before returning.
"""

import gc

import pytest

from repro.experiments.des_run import DesRunConfig, prepare_trace_des
from repro.faults import FaultPlan
from repro.traces.generators import generate_trace


def cyclic_garbage(prepared, during_run=None) -> int:
    """Objects only the cycle detector frees, left by ``prepared.execute()``.

    ``during_run``, if given, is scheduled one simulated second in.
    """
    if during_run is not None:
        prepared.simulator.schedule(1.0, during_run)
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        prepared.execute()
        gc.collect()
        return len(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


RUNS = {
    "classroom25": ("Classroom", DesRunConfig(client_count=25, duration_s=60.0)),
    "densefleet200": ("DenseFleet", DesRunConfig(client_count=200, duration_s=6.0)),
    "churn-classroom100": (
        "Classroom",
        DesRunConfig(
            client_count=100,
            duration_s=60.0,
            fault_plan=FaultPlan.parse(
                "seed=11,loss=0.05,beacon=0.02,jitter=1e-4,"
                "crash=0@5:25,crash=5@12:32,crash=10@19"
            ),
            port_entry_ttl_s=10.0,
            port_refresh_interval_s=4.0,
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_leaves_no_cyclic_garbage(name):
    scenario, config = RUNS[name]
    prepared = prepare_trace_des(generate_trace(scenario), config)
    assert cyclic_garbage(prepared) == 0


def test_a_cycle_made_during_the_run_is_found():
    def make_cycle():
        node = {}
        node["self"] = node

    prepared = prepare_trace_des(
        generate_trace("Classroom"), DesRunConfig(client_count=3, duration_s=5.0)
    )
    assert cyclic_garbage(prepared, during_run=make_cycle) >= 1
