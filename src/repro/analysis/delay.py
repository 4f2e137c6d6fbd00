"""Network-delay overhead of HIDE — Eqs. (25)-(27), Figures 11-12.

Two AP-side costs stretch the packet round-trip time:

* t₁ — refreshing the Client UDP Port Table when UDP Port Messages
  arrive: t₁ = f · D · N · p · n_o · (τ_del + τ_ins). The f·D factor is
  the expected number of refreshes landing within one RTT.
* t₂ — the per-DTIM Algorithm 1 pass over buffered broadcast frames:
  t₂ = n_f · τ_lp.

The paper notes this is an upper bound (AP processing overlaps parts of
the RTT) and that t₁ ≫ t₂ at the swept settings.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.hash_timing import CALIBRATED_AP_TIMINGS, HashTimingModel
from repro.errors import ConfigurationError

#: The paper's measured ping RTT to a YouTube server: 79.5 ms.
DEFAULT_RTT_S = 79.5e-3


@dataclass(frozen=True)
class DelayResult:
    """One point of Figure 11/12."""

    stations: int
    hide_fraction: float
    port_message_interval_s: float
    open_ports_per_client: int
    buffered_frames_per_dtim: float
    baseline_rtt_s: float
    #: t₁ — table refresh time charged to one RTT.
    refresh_time_s: float
    #: t₂ — Algorithm 1 lookups at the DTIM.
    lookup_time_s: float

    @property
    def added_delay_s(self) -> float:
        return self.refresh_time_s + self.lookup_time_s

    @property
    def delay_increase(self) -> float:
        """d = (t₁ + t₂)/D (Eq. 27)."""
        return self.added_delay_s / self.baseline_rtt_s


class DelayAnalysis:
    """Evaluate Eqs. (25)-(27) for swept configurations."""

    def __init__(
        self,
        timings: HashTimingModel = CALIBRATED_AP_TIMINGS,
        baseline_rtt_s: float = DEFAULT_RTT_S,
    ) -> None:
        if baseline_rtt_s <= 0:
            raise ConfigurationError("baseline RTT must be positive")
        self.timings = timings
        self.baseline_rtt_s = baseline_rtt_s

    def evaluate(
        self,
        stations: int,
        hide_fraction: float = 0.5,
        port_message_interval_s: float = 10.0,
        open_ports_per_client: int = 50,
        buffered_frames_per_dtim: float = 10.0,
    ) -> DelayResult:
        if stations < 0:
            raise ConfigurationError("station count must be non-negative")
        if not 0 <= hide_fraction <= 1:
            raise ConfigurationError("hide fraction must be in [0,1]")
        if port_message_interval_s <= 0:
            raise ConfigurationError("port message interval must be positive")
        if open_ports_per_client < 0 or buffered_frames_per_dtim < 0:
            raise ConfigurationError("counts must be non-negative")
        frequency = 1.0 / port_message_interval_s
        refresh_time = (
            frequency
            * self.baseline_rtt_s
            * stations
            * hide_fraction
            * open_ports_per_client
            * self.timings.refresh_per_port_s
        )  # Eq. (25)
        lookup_time = buffered_frames_per_dtim * self.timings.lookup_s  # Eq. (26)
        return DelayResult(
            stations=stations,
            hide_fraction=hide_fraction,
            port_message_interval_s=port_message_interval_s,
            open_ports_per_client=open_ports_per_client,
            buffered_frames_per_dtim=buffered_frames_per_dtim,
            baseline_rtt_s=self.baseline_rtt_s,
            refresh_time_s=refresh_time,
            lookup_time_s=lookup_time,
        )
