"""repro — a reproduction of HIDE (ICDCS 2016).

HIDE is an AP-assisted broadcast traffic management system that saves
smartphone energy by hiding useless UDP broadcast frames from suspended
clients: clients report their open UDP ports to the AP before
suspending, and the AP's per-client Broadcast Traffic Indication Map
(BTIM) beacon element wakes a client only when buffered broadcast
traffic is actually useful to it.

Quickstart::

    from repro import (
        generate_trace, clustered_fraction_mask,
        ReceiveAllSolution, HideSolution, NEXUS_ONE,
    )

    trace = generate_trace("Starbucks")
    mask = clustered_fraction_mask(trace, fraction=0.10)
    baseline = ReceiveAllSolution().evaluate(trace, mask, NEXUS_ONE)
    hide = HideSolution().evaluate(trace, mask, NEXUS_ONE)
    print(f"HIDE saves {hide.savings_vs(baseline):.0%}")

Package map: :mod:`repro.dot11` (frames), :mod:`repro.net` (IPv4/UDP),
:mod:`repro.sim` (event engine), :mod:`repro.ap` / :mod:`repro.station`
(protocol entities), :mod:`repro.energy` (Section IV model),
:mod:`repro.traces` (workloads), :mod:`repro.solutions` (baselines +
HIDE), :mod:`repro.analysis` (Section V overheads),
:mod:`repro.experiments` (per-figure reproductions). The names below
are re-exported lazily: ``import repro`` loads none of those packages
until one of their names is read.
"""

from repro._exports import lazy_exports

__version__ = "1.0.0"

#: Public name → the package it comes from, imported on first use.
_EXPORTS = {
    # energy
    "DeviceEnergyProfile": "repro.energy",
    "EnergyBreakdown": "repro.energy",
    "EnergyModel": "repro.energy",
    "FrameEvent": "repro.energy",
    "GALAXY_S4": "repro.energy",
    "HideOverheadParams": "repro.energy",
    "NEXUS_ONE": "repro.energy",
    # solutions
    "ClientSideSolution": "repro.solutions",
    "CombinedSolution": "repro.solutions",
    "HideRealisticSolution": "repro.solutions",
    "HideSolution": "repro.solutions",
    "ReceiveAllSolution": "repro.solutions",
    "Solution": "repro.solutions",
    "SolutionResult": "repro.solutions",
    # traces
    "BroadcastFrameRecord": "repro.traces",
    "BroadcastTrace": "repro.traces",
    "PAPER_SCENARIOS": "repro.traces",
    "ScenarioSpec": "repro.traces",
    "UsefulnessAssignment": "repro.traces",
    "clustered_fraction_mask": "repro.traces",
    "generate_trace": "repro.traces",
    "load_trace_jsonl": "repro.traces",
    "port_subset_mask": "repro.traces",
    "random_fraction_mask": "repro.traces",
    "save_trace_jsonl": "repro.traces",
    "scenario_by_name": "repro.traces",
    "spread_fraction_mask": "repro.traces",
    # analysis
    "BianchiModel": "repro.analysis",
    "CapacityAnalysis": "repro.analysis",
    "DelayAnalysis": "repro.analysis",
    "HashTimingModel": "repro.analysis",
}

__all__ = ["__version__", *_EXPORTS]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
