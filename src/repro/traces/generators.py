"""Synthetic broadcast-trace generation (the Figure 6 stand-ins)."""

from __future__ import annotations

import random
from itertools import accumulate
from typing import Dict, List, Optional, Tuple, Union

from repro.dot11.llc import LLC_SNAP_BYTES
from repro.dot11.sizes import FCS_BYTES, MAC_HEADER_BYTES
from repro.net.ports import WELL_KNOWN_BROADCAST_SERVICES
from repro.traces.release import apply_dtim_release
from repro.traces.scenarios import ScenarioSpec, scenario_by_name
from repro.traces.trace import BroadcastTrace
from repro.units import BEACON_INTERVAL_S, mbps

#: Fixed per-frame header bytes around the UDP payload on the air:
#: 802.11 MAC header + LLC/SNAP + IPv4 + UDP + FCS.
FRAME_OVERHEAD_BYTES = MAC_HEADER_BYTES + LLC_SNAP_BYTES + 20 + 8 + FCS_BYTES

#: Broadcast frames ride the basic rates; most APs send them at 1-2 Mb/s.
_RATE_CHOICES = (mbps(1), mbps(2), mbps(5.5))
_RATE_WEIGHTS = (0.70, 0.22, 0.08)
#: ``rng.choices`` accumulates ``weights`` on every call; passing the
#: running sums once as ``cum_weights`` draws the same values.
_RATE_CUM_WEIGHTS = tuple(accumulate(_RATE_WEIGHTS))


class TraceGenerator:
    """Two-state MMPP offered traffic + service-port mix + DTIM release."""

    def __init__(
        self,
        spec: ScenarioSpec,
        beacon_interval_s: float = BEACON_INTERVAL_S,
        dtim_period: int = 1,
    ) -> None:
        self.spec = spec
        self.beacon_interval_s = beacon_interval_s
        self.dtim_period = dtim_period
        self._ports, weights = self._build_port_mix(spec)
        self._cum_weights = tuple(accumulate(weights))

    @staticmethod
    def _build_port_mix(spec: ScenarioSpec) -> Tuple[List[int], List[float]]:
        overrides: Dict[int, float] = dict(spec.port_weight_overrides)
        ports: List[int] = []
        weights: List[float] = []
        for port, service in sorted(WELL_KNOWN_BROADCAST_SERVICES.items()):
            ports.append(port)
            weights.append(service.traffic_weight * overrides.get(port, 1.0))
        return ports, weights

    def _offered_arrivals(self, rng: random.Random) -> List[float]:
        """MMPP arrival times over the scenario duration."""
        spec = self.spec
        times: List[float] = []
        now = 0.0
        in_burst = False
        state_end = rng.expovariate(1.0 / spec.quiet_dwell_s)
        while now < spec.duration_s:
            rate = spec.burst_rate_fps if in_burst else spec.quiet_rate_fps
            if rate <= 0:
                now = state_end
            else:
                gap = rng.expovariate(rate)
                if now + gap < state_end:
                    now += gap
                    if now < spec.duration_s:
                        times.append(now)
                    continue
                now = state_end
            in_burst = not in_burst
            dwell = spec.burst_dwell_s if in_burst else spec.quiet_dwell_s
            state_end = now + rng.expovariate(1.0 / dwell)
        return times

    def _frame_for(self, rng: random.Random) -> Tuple[int, int, float]:
        """Draw (port, on-air length bytes, rate) for one frame."""
        port = rng.choices(self._ports, cum_weights=self._cum_weights, k=1)[0]
        service = WELL_KNOWN_BROADCAST_SERVICES[port]
        # Payload jitter: real discovery payloads vary with host names,
        # record counts, etc. ±25 % triangular around the typical size.
        payload = max(
            8,
            int(
                rng.triangular(
                    service.typical_payload_bytes * 0.75,
                    service.typical_payload_bytes * 1.25,
                    service.typical_payload_bytes,
                )
            ),
        )
        rate = rng.choices(_RATE_CHOICES, cum_weights=_RATE_CUM_WEIGHTS, k=1)[0]
        return port, FRAME_OVERHEAD_BYTES + payload, rate

    def generate(self, seed: Optional[int] = None) -> BroadcastTrace:
        rng = random.Random(self.spec.seed if seed is None else seed)
        offered = [
            (time,) + self._frame_for(rng) for time in self._offered_arrivals(rng)
        ]
        records = apply_dtim_release(
            offered,
            duration_s=self.spec.duration_s,
            beacon_interval_s=self.beacon_interval_s,
            dtim_period=self.dtim_period,
        )
        return BroadcastTrace(
            name=self.spec.name,
            duration_s=self.spec.duration_s,
            records=tuple(records),
        )


def generate_trace(
    scenario: Union[str, ScenarioSpec],
    seed: Optional[int] = None,
    beacon_interval_s: float = BEACON_INTERVAL_S,
    dtim_period: int = 1,
) -> BroadcastTrace:
    """Generate one scenario trace (by name or spec)."""
    spec = scenario_by_name(scenario) if isinstance(scenario, str) else scenario
    return TraceGenerator(
        spec, beacon_interval_s=beacon_interval_s, dtim_period=dtim_period
    ).generate(seed=seed)
