"""Bianchi's DCF saturation-throughput model (IEEE JSAC 2000, [13]).

The paper borrows this model for the baseline network capacity S₁ = Φ·r
(Eq. 20): Φ is the long-run fraction of channel time spent successfully
transmitting payload bits when n saturated stations contend under the
basic-access DCF.

Model summary: each station transmits in a randomly chosen slot with
probability τ; a transmission collides with probability
p = 1 − (1−τ)^(n−1). With binary exponential backoff over m stages from
window W, the fixed point is

    τ = 2(1−2p) / [ (1−2p)(W+1) + p·W·(1−(2p)^m) ]

solved here by bisection on p (the composed map is monotone). Then

    Φ = (P_tr · P_s · T_payload) / ((1−P_tr)·σ + P_tr·P_s·T_s + P_tr·(1−P_s)·T_c)

with T_s, T_c the success/collision slot durations for basic access.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.netconfig import DOT11B_CONFIG, NetworkConfig
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class BianchiResult:
    """Solved operating point for n saturated stations."""

    stations: int
    #: Per-slot transmission probability τ.
    transmission_probability: float
    #: Conditional collision probability p.
    collision_probability: float
    #: Normalized saturation throughput Φ (payload-time fraction).
    throughput_fraction: float
    #: Saturation throughput in bits/s: Φ · channel rate (Eq. 20).
    throughput_bps: float


class BianchiModel:
    """Solver for the Bianchi fixed point and throughput."""

    def __init__(self, config: NetworkConfig = DOT11B_CONFIG) -> None:
        self.config = config

    def _tau_of_p(self, p: float) -> float:
        """τ as a function of collision probability p."""
        w = self.config.cw_min
        m = self.config.max_backoff_stage
        if p == 0.5:
            # (1-2p) → 0; take the well-defined limit.
            return 2.0 / (1 + w + p * w * m)
        numerator = 2.0 * (1 - 2 * p)
        denominator = (1 - 2 * p) * (w + 1) + p * w * (1 - (2 * p) ** m)
        return numerator / denominator

    def solve_fixed_point(self, stations: int, tolerance: float = 1e-12):
        """Find (τ, p) with p = 1 − (1 − τ(p))^(n−1) by bisection."""
        if stations < 1:
            raise ConfigurationError(f"need at least one station: {stations}")
        if stations == 1:
            tau = self._tau_of_p(0.0)
            return tau, 0.0

        def residual(p: float) -> float:
            tau = self._tau_of_p(p)
            return (1 - (1 - tau) ** (stations - 1)) - p

        lo, hi = 0.0, 1.0 - 1e-15
        if residual(lo) < 0:
            raise ConfigurationError("no fixed point: residual negative at p=0")
        for _ in range(200):
            mid = (lo + hi) / 2
            if residual(mid) > 0:
                lo = mid
            else:
                hi = mid
            if hi - lo < tolerance:
                break
        p = (lo + hi) / 2
        return self._tau_of_p(p), p

    def success_slot_time(self, payload_bits: int) -> float:
        """T_s for basic access: DATA + SIFS + ACK + DIFS (+ prop delays)."""
        c = self.config
        return (
            c.phy_overhead_s
            + c.payload_time_s(payload_bits)
            + c.sifs_s
            + c.propagation_delay_s
            + c.ack_time_s
            + c.difs_s
            + c.propagation_delay_s
        )

    def collision_slot_time(self, payload_bits: int) -> float:
        """T_c for basic access: DATA + DIFS + prop delay."""
        c = self.config
        return (
            c.phy_overhead_s
            + c.payload_time_s(payload_bits)
            + c.difs_s
            + c.propagation_delay_s
        )

    def evaluate(self, stations: int, payload_bits: int = None) -> BianchiResult:
        """Solve and compute saturation throughput for ``stations``."""
        payload = self.config.payload_bits if payload_bits is None else payload_bits
        if payload <= 0:
            raise ConfigurationError("payload must be positive")
        tau, p = self.solve_fixed_point(stations)
        p_tr = 1 - (1 - tau) ** stations
        if p_tr <= 0:
            raise ConfigurationError("degenerate network: nobody ever transmits")
        p_s = stations * tau * (1 - tau) ** (stations - 1) / p_tr
        payload_time = payload / self.config.channel_rate_bps
        t_s = self.success_slot_time(payload)
        t_c = self.collision_slot_time(payload)
        sigma = self.config.slot_time_s
        denominator = (
            (1 - p_tr) * sigma + p_tr * p_s * t_s + p_tr * (1 - p_s) * t_c
        )
        phi = (p_tr * p_s * payload_time) / denominator
        return BianchiResult(
            stations=stations,
            transmission_probability=tau,
            collision_probability=p,
            throughput_fraction=phi,
            throughput_bps=phi * self.config.channel_rate_bps,
        )
