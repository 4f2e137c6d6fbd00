"""The five evaluation scenarios, calibrated to the paper's evaluation.

The paper reports 30-60 minute peak-hour captures with very different
broadcast volumes: the classroom building and the college library (WML)
are heavy, the CS department is moderate, Starbucks and the city public
library (WRL) are light. Each scenario is a two-state Markov-modulated
Poisson process (quiet state + burst state, exponential dwells), run
through a DTIM-release pass.

Two traffic characters emerge from calibrating against the paper's
Figures 7-9 jointly (see DESIGN.md and EXPERIMENTS.md):

* **Storm-dominated** (Classroom, WML): short (~0.1 s) very dense
  bursts every ~1.2 s — machines re-announcing services back-to-back.
  This is the only shape consistent with the paper's Figure 9
  (receive-all stays awake ≥80 % of the time on these traces) *and*
  Figure 8 (client-side filtering barely saves on the Galaxy S4,
  because each storm still costs a full resume+suspend cycle).
* **Spread-plus-burst** (CS_Dept, Starbucks, WRL): sparse background
  frames with occasional multi-second bursts. Isolated frames make
  per-frame wake-ups expensive, which is what separates HIDE from the
  client-side baseline on these traces.

Calibration result (Nexus One, clustered 10 %/2 % usefulness): HIDE
saves 29-76 % / 66-84 % across the five traces versus the paper's
34-75 % / 71-82 % — same ordering, same crossovers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ScenarioSpec:
    """Generator parameters for one scenario."""

    name: str
    duration_s: float
    #: Poisson rate (frames/s) in the quiet MMPP state.
    quiet_rate_fps: float
    #: Poisson rate (frames/s) in the burst MMPP state.
    burst_rate_fps: float
    #: Mean dwell time in the quiet state (s).
    quiet_dwell_s: float
    #: Mean dwell time in the burst state (s).
    burst_dwell_s: float
    #: Default RNG seed, so every run regenerates identical traces.
    seed: int
    #: Optional per-port weight multipliers to skew the service mix
    #: (e.g. a cafe sees more phone/consumer chatter, a department more
    #: NetBIOS from desktops).
    port_weight_overrides: Tuple[Tuple[int, float], ...] = ()

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ConfigurationError("duration must be positive")
        if self.quiet_rate_fps < 0 or self.burst_rate_fps <= 0:
            raise ConfigurationError("rates must be non-negative/positive")
        if self.quiet_dwell_s <= 0 or self.burst_dwell_s <= 0:
            raise ConfigurationError("dwell times must be positive")

    @property
    def mean_rate_fps(self) -> float:
        """Long-run mean offered rate of the MMPP."""
        total = self.quiet_dwell_s + self.burst_dwell_s
        return (
            self.quiet_rate_fps * self.quiet_dwell_s
            + self.burst_rate_fps * self.burst_dwell_s
        ) / total


#: Paper order: Classroom, CS_Dept, WML, Starbucks, WRL.
PAPER_SCENARIOS: Tuple[ScenarioSpec, ...] = (
    ScenarioSpec(
        name="Classroom",
        duration_s=45 * 60,
        quiet_rate_fps=0.20,
        burst_rate_fps=160.0,
        quiet_dwell_s=1.15,
        burst_dwell_s=0.10,
        seed=1001,
        # Lecture halls: lots of student laptops -> NetBIOS + mDNS heavy.
        port_weight_overrides=((137, 1.4), (5353, 1.5)),
    ),
    ScenarioSpec(
        name="CS_Dept",
        duration_s=60 * 60,
        quiet_rate_fps=1.0,
        burst_rate_fps=25.0,
        quiet_dwell_s=35.0,
        burst_dwell_s=5.0,
        seed=1002,
        # Office desktops: NetBIOS datagram + Dropbox LanSync skew.
        port_weight_overrides=((138, 1.6), (17500, 2.0)),
    ),
    ScenarioSpec(
        name="WML",
        duration_s=40 * 60,
        quiet_rate_fps=0.25,
        burst_rate_fps=200.0,
        quiet_dwell_s=0.95,
        burst_dwell_s=0.11,
        seed=1003,
        # College library: dense mixed devices; SSDP from media gear.
        port_weight_overrides=((1900, 1.5),),
    ),
    ScenarioSpec(
        name="Starbucks",
        duration_s=35 * 60,
        quiet_rate_fps=0.4,
        burst_rate_fps=10.0,
        quiet_dwell_s=30.0,
        burst_dwell_s=5.0,
        seed=1004,
        # Cafe: phones and consumer apps, little NetBIOS.
        port_weight_overrides=((137, 0.4), (138, 0.4), (5353, 1.8), (57621, 2.5)),
    ),
    ScenarioSpec(
        name="WRL",
        duration_s=50 * 60,
        quiet_rate_fps=0.85,
        burst_rate_fps=3.0,
        quiet_dwell_s=50.0,
        burst_dwell_s=8.0,
        seed=1005,
        # Quiet public library: a few always-on machines announcing at a
        # steady trickle.
        port_weight_overrides=((1900, 1.3),),
    ),
)


#: Beyond-paper densities (kept out of ``PAPER_SCENARIOS`` so figure
#: reproductions keep iterating exactly the paper's five). DenseFleet
#: is the stadium/airport shape the ROADMAP aims at: Classroom-style
#: service-announcement storms, tuned slightly denser, meant to be run
#: with hundreds to thousands of stations (``--clients 1000``) — the
#: workload the medium's radio-array delivery lane exists for.
EXTRA_SCENARIOS: Tuple[ScenarioSpec, ...] = (
    ScenarioSpec(
        name="DenseFleet",
        duration_s=10 * 60,
        quiet_rate_fps=0.5,
        burst_rate_fps=180.0,
        quiet_dwell_s=0.9,
        burst_dwell_s=0.12,
        seed=1006,
        # Dense venue: phones everywhere -> mDNS/SSDP announcement storms.
        port_weight_overrides=((5353, 1.8), (1900, 1.4)),
    ),
)

#: Every registered scenario, paper five first.
ALL_SCENARIOS: Tuple[ScenarioSpec, ...] = PAPER_SCENARIOS + EXTRA_SCENARIOS


def scenario_by_name(name: str) -> ScenarioSpec:
    """Case-insensitive scenario lookup (paper + extra scenarios)."""
    for spec in ALL_SCENARIOS:
        if spec.name.lower() == name.lower():
            return spec
    known = ", ".join(s.name for s in ALL_SCENARIOS)
    raise ConfigurationError(f"unknown scenario {name!r}; known: {known}")
