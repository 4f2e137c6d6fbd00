"""Broadcast traffic traces: records, synthetic generators, stats, I/O.

The paper evaluates on five real-world traces (classroom, CS department,
college library "WML", Starbucks, city public library "WRL") that are
not public. This package synthesizes stand-ins: Markov-modulated Poisson
offered traffic with scenario-calibrated rates and burstiness, a
realistic UDP service-port mix, and a DTIM-release pass that reshapes
offered arrivals into the post-beacon bursts an over-the-air capture
would show (see DESIGN.md, substitutions table).
"""

from repro.traces.frame_record import BroadcastFrameRecord
from repro.traces.trace import BroadcastTrace
from repro.traces.cdf import EmpiricalCdf
from repro.traces.scenarios import ScenarioSpec, PAPER_SCENARIOS, scenario_by_name
from repro.traces.generators import generate_trace, TraceGenerator
from repro.traces.release import apply_dtim_release
from repro.traces.usefulness import (
    UsefulnessAssignment,
    spread_fraction_mask,
    random_fraction_mask,
    clustered_fraction_mask,
    port_subset_mask,
    ports_for_target_fraction,
)
from repro.traces.io import save_trace_jsonl, load_trace_jsonl, trace_to_csv
from repro.traces.stats import Burst, TraceStats, compute_stats, detect_bursts, index_of_dispersion

__all__ = [
    "BroadcastFrameRecord",
    "BroadcastTrace",
    "EmpiricalCdf",
    "ScenarioSpec",
    "PAPER_SCENARIOS",
    "scenario_by_name",
    "generate_trace",
    "TraceGenerator",
    "apply_dtim_release",
    "UsefulnessAssignment",
    "spread_fraction_mask",
    "random_fraction_mask",
    "clustered_fraction_mask",
    "port_subset_mask",
    "ports_for_target_fraction",
    "save_trace_jsonl",
    "load_trace_jsonl",
    "trace_to_csv",
    "Burst",
    "TraceStats",
    "compute_stats",
    "detect_bursts",
    "index_of_dispersion",
]
