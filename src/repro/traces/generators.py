"""Synthetic broadcast-trace generation (the Figure 6 stand-ins)."""

from __future__ import annotations

import random
from array import array
from bisect import bisect
from itertools import accumulate
from math import log, sqrt
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.dot11.llc import LLC_SNAP_BYTES
from repro.dot11.sizes import FCS_BYTES, MAC_HEADER_BYTES
from repro.net.ports import WELL_KNOWN_BROADCAST_SERVICES
from repro.traces.frame_record import BroadcastFrameRecord
from repro.traces.release import OfferedFrame, release_bursts
from repro.traces.scenarios import ScenarioSpec, scenario_by_name
from repro.traces.trace import BroadcastTrace
from repro.units import mbps

#: Fixed per-frame header bytes around the UDP payload on the air:
#: 802.11 MAC header + LLC/SNAP + IPv4 + UDP + FCS.
FRAME_OVERHEAD_BYTES = MAC_HEADER_BYTES + LLC_SNAP_BYTES + 20 + 8 + FCS_BYTES

#: Broadcast frames ride the basic rates; most APs send them at 1-2 Mb/s.
_RATE_CHOICES = (mbps(1), mbps(2), mbps(5.5))
_RATE_WEIGHTS = (0.70, 0.22, 0.08)
#: ``rng.choices(weights=…)`` accumulates the weights on every call;
#: drawing against the running sums, computed once, picks the same values.
_RATE_CUM_WEIGHTS = tuple(accumulate(_RATE_WEIGHTS))


class TraceGenerator:
    """Two-state MMPP offered traffic + service-port mix + DTIM release.

    :meth:`records` streams the trace: the MMPP arrival times are drawn
    up front (8 bytes each), then each frame's port, payload and rate
    are drawn as the DTIM release asks for it, so a consumer that stops
    early (the service feed keeps 2,048 frames) builds no more records
    than it takes. The draws are the float operations
    ``rng.expovariate``, ``rng.choices(cum_weights=…, k=1)`` and
    ``rng.triangular`` perform, written out with their per-port
    constants computed once, so every seed yields the same trace as
    calling those methods would.
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        dtim_period: int = 1,
    ) -> None:
        self.spec = spec
        self.dtim_period = dtim_period
        self._ports, weights = self._build_port_mix(spec)
        self._cum_weights = tuple(accumulate(weights))
        self._payload_shapes = tuple(
            _triangular_shape(WELL_KNOWN_BROADCAST_SERVICES[port].typical_payload_bytes)
            for port in self._ports
        )

    @staticmethod
    def _build_port_mix(spec: ScenarioSpec) -> Tuple[List[int], List[float]]:
        overrides: Dict[int, float] = dict(spec.port_weight_overrides)
        ports: List[int] = []
        weights: List[float] = []
        for port, service in sorted(WELL_KNOWN_BROADCAST_SERVICES.items()):
            ports.append(port)
            weights.append(service.traffic_weight * overrides.get(port, 1.0))
        return ports, weights

    def _offered_arrivals(self, rng: random.Random) -> "array[float]":
        """MMPP arrival times over the scenario duration.

        Each gap is ``rng.expovariate(rate)`` written out.
        """
        spec = self.spec
        draw = rng.random
        times = array("d")
        now = 0.0
        in_burst = False
        state_end = -log(1.0 - draw()) / (1.0 / spec.quiet_dwell_s)
        while now < spec.duration_s:
            rate = spec.burst_rate_fps if in_burst else spec.quiet_rate_fps
            if rate <= 0:
                now = state_end
            else:
                gap = -log(1.0 - draw()) / rate
                if now + gap < state_end:
                    now += gap
                    if now < spec.duration_s:
                        times.append(now)
                    continue
                now = state_end
            in_burst = not in_burst
            dwell = spec.burst_dwell_s if in_burst else spec.quiet_dwell_s
            state_end = now + -log(1.0 - draw()) / (1.0 / dwell)
        return times

    def _offered(self, rng: random.Random) -> Iterator[OfferedFrame]:
        """Offered ``(time, port, on-air length bytes, rate)`` frames in
        arrival order. All arrival times are drawn on the first read
        (they come first in the RNG stream); a frame's port, payload and
        rate are drawn when that frame is read."""
        times = self._offered_arrivals(rng)
        draw = rng.random
        ports = self._ports
        cum_weights = self._cum_weights
        total = cum_weights[-1] + 0.0
        last_port = len(ports) - 1
        shapes = self._payload_shapes
        rate_total = _RATE_CUM_WEIGHTS[-1] + 0.0
        last_rate = len(_RATE_CHOICES) - 1
        for time in times:
            index = bisect(cum_weights, draw() * total, 0, last_port)
            # Payload jitter: real discovery payloads vary with host
            # names, record counts, etc. ±25 % triangular around the
            # typical size.
            low, span, c, high, back_span, back_c = shapes[index]
            u = draw()
            if u > c:
                payload = high + back_span * sqrt((1.0 - u) * back_c)
            else:
                payload = low + span * sqrt(u * c)
            rate = _RATE_CHOICES[
                bisect(_RATE_CUM_WEIGHTS, draw() * rate_total, 0, last_rate)
            ]
            yield (
                time,
                ports[index],
                FRAME_OVERHEAD_BYTES + max(8, int(payload)),
                rate,
            )

    def records(self, seed: Optional[int] = None) -> Iterator[BroadcastFrameRecord]:
        """The trace's records in time order, synthesized as they are read."""
        rng = random.Random(self.spec.seed if seed is None else seed)
        return release_bursts(
            self._offered(rng),
            duration_s=self.spec.duration_s,
            dtim_period=self.dtim_period,
        )

    def generate(self, seed: Optional[int] = None) -> BroadcastTrace:
        return BroadcastTrace(
            name=self.spec.name,
            duration_s=self.spec.duration_s,
            records=tuple(self.records(seed)),
        )


def _triangular_shape(
    typical_bytes: int,
) -> Tuple[float, float, float, float, float, float]:
    """``rng.triangular(0.75 t, 1.25 t, t)``'s constants for both arms:
    ``(low, high - low, c)`` below the mode and, above it (where
    ``triangular`` swaps its ends), ``(high, low - high, 1 - c)``."""
    low = typical_bytes * 0.75
    high = typical_bytes * 1.25
    c = (typical_bytes - low) / (high - low)
    return low, high - low, c, high, low - high, 1.0 - c


def generate_trace(
    scenario: Union[str, ScenarioSpec],
    seed: Optional[int] = None,
    dtim_period: int = 1,
) -> BroadcastTrace:
    """Generate one scenario trace (by name or spec)."""
    spec = scenario_by_name(scenario) if isinstance(scenario, str) else scenario
    return TraceGenerator(spec, dtim_period=dtim_period).generate(seed=seed)
