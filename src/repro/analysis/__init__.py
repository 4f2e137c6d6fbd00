"""Section V: network capacity and delay overhead analysis.

* :mod:`repro.analysis.netconfig` — Table II's 802.11b parameters.
* :mod:`repro.analysis.bianchi` — Bianchi's (2000) DCF saturation
  throughput model, used to get the baseline network capacity.
* :mod:`repro.analysis.capacity` — Eqs. (20)-(24): capacity decrease
  from UDP Port Message traffic (Figure 10).
* :mod:`repro.analysis.delay` — Eqs. (25)-(27): RTT increase from
  Client UDP Port Table maintenance (Figures 11-12).
* :mod:`repro.analysis.hash_timing` — (τ_del, τ_ins, τ_lp): calibrated
  AP-class constants plus live measurement on the real table.
"""

from repro.analysis.netconfig import NetworkConfig, DOT11B_CONFIG
from repro.analysis.bianchi import BianchiModel, BianchiResult
from repro.analysis.capacity import CapacityAnalysis, CapacityResult
from repro.analysis.delay import DelayAnalysis, DelayResult
from repro.analysis.sensitivity import (
    sweep_wakelock_timeout,
    sweep_dtim_period,
    sweep_report_interval,
    TauSweepPoint,
    DtimSweepPoint,
    ReportIntervalPoint,
)
from repro.analysis.breakeven import BreakevenResult, find_breakeven
from repro.analysis.hash_timing import (
    HashTimingModel,
    CALIBRATED_AP_TIMINGS,
    measure_host_timings,
)

__all__ = [
    "NetworkConfig",
    "DOT11B_CONFIG",
    "BianchiModel",
    "BianchiResult",
    "CapacityAnalysis",
    "CapacityResult",
    "DelayAnalysis",
    "DelayResult",
    "HashTimingModel",
    "CALIBRATED_AP_TIMINGS",
    "measure_host_timings",
    "sweep_wakelock_timeout",
    "sweep_dtim_period",
    "sweep_report_interval",
    "TauSweepPoint",
    "DtimSweepPoint",
    "ReportIntervalPoint",
    "BreakevenResult",
    "find_breakeven",
]
