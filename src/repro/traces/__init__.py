"""Broadcast traffic traces: records, synthetic generators, stats, I/O.

The paper evaluates on five real-world traces (classroom, CS department,
college library "WML", Starbucks, city public library "WRL") that are
not public. This package synthesizes stand-ins: Markov-modulated Poisson
offered traffic with scenario-calibrated rates and burstiness, a
realistic UDP service-port mix, and a DTIM-release pass that reshapes
offered arrivals into the post-beacon bursts an over-the-air capture
would show (see DESIGN.md, substitutions table).

The names below are re-exported lazily, so importing one submodule
(say :mod:`repro.traces.generators`) does not import trace I/O or stats.
"""

from repro._exports import lazy_exports

#: Public name → defining module, imported on first use.
_EXPORTS = {
    "BroadcastFrameRecord": "repro.traces.frame_record",
    "BroadcastTrace": "repro.traces.trace",
    "EmpiricalCdf": "repro.traces.cdf",
    "ScenarioSpec": "repro.traces.scenarios",
    "PAPER_SCENARIOS": "repro.traces.scenarios",
    "scenario_by_name": "repro.traces.scenarios",
    "generate_trace": "repro.traces.generators",
    "TraceGenerator": "repro.traces.generators",
    "UsefulnessAssignment": "repro.traces.usefulness",
    "spread_fraction_mask": "repro.traces.usefulness",
    "random_fraction_mask": "repro.traces.usefulness",
    "clustered_fraction_mask": "repro.traces.usefulness",
    "port_subset_mask": "repro.traces.usefulness",
    "ports_for_target_fraction": "repro.traces.usefulness",
    "save_trace_jsonl": "repro.traces.io",
    "load_trace_jsonl": "repro.traces.io",
    "trace_to_csv": "repro.traces.io",
    "Burst": "repro.traces.stats",
    "TraceStats": "repro.traces.stats",
    "compute_stats": "repro.traces.stats",
    "detect_bursts": "repro.traces.stats",
    "index_of_dispersion": "repro.traces.stats",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
