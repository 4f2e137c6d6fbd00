"""Ring-buffered, windowed time series over a live values function.

A metrics snapshot answers "what are the totals *now*"; this module
answers "how did they move *over time*". A :class:`TimeseriesRecorder`
calls one ``values_fn`` at fixed simulation-time boundaries — either a
wall of fixed width in sim seconds or one window per DTIM interval (see
:func:`dtim_window_s`) — and keeps the most recent windows in a ring
buffer, each with the cumulative value *and* the within-window delta of
every series, plus an exponentially weighted moving average of each
series' per-second rate.

Sampling is driven by the simulator's observer-probe hook
(:meth:`repro.sim.engine.Simulator.add_probe` via :meth:`attach`), so a
recorder sees the run *while it happens* without scheduling heap events
— same-seed runs produce identical fingerprints with or without a
recorder attached. Series are keyed by their canonical ``name{labels}``
identity, as in a ``.prom`` scrape and a snapshot JSONL, so
:mod:`repro.obs.diff` can compare any of them.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, IO, Optional, Tuple, Union

from repro.errors import ConfigurationError

#: Schema tag written into timeseries dumps (and recognized by obs diff).
TIMESERIES_SCHEMA = "repro-timeseries/v1"

#: Windows the ring keeps; older ones are dropped but still counted.
CAPACITY = 512

#: Weight of the newest window in each series' EWMA rate.
EWMA_ALPHA = 0.3


def dtim_window_s(beacon_interval_s: float, dtim_period: int) -> float:
    """The sim-time width of one DTIM interval (one window per DTIM)."""
    if beacon_interval_s <= 0:
        raise ConfigurationError(
            f"beacon interval must be positive: {beacon_interval_s}"
        )
    if dtim_period < 1:
        raise ConfigurationError(f"DTIM period must be >= 1: {dtim_period}")
    return beacon_interval_s * dtim_period


@dataclass(frozen=True)
class WindowSample:
    """One closed aggregation window.

    ``values`` holds each series' cumulative value at the window's end;
    ``deltas`` holds the change across the window (for gauges this is
    the signed movement, for counters the amount accrued).
    """

    index: int
    t_start: float
    t_end: float
    values: Dict[str, float]
    deltas: Dict[str, float]

    @property
    def width_s(self) -> float:
        return self.t_end - self.t_start

    def rate(self, key: str) -> float:
        """The series' per-second rate across this window."""
        width = self.width_s
        if width <= 0:
            return 0.0
        return self.deltas.get(key, 0.0) / width

    def to_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "t_start": self.t_start,
            "t_end": self.t_end,
            "values": dict(self.values),
            "deltas": dict(self.deltas),
        }


class TimeseriesRecorder:
    """Windowed sampling of one values function, in a bounded ring.

    ``values_fn`` returns a flat ``series-key -> value`` mapping read
    straight off the live components. It fires once per window (per
    DTIM at the paper's granularity), so it should read a fixed-size
    curated set rather than read every series, whose cost grows with
    their number. The ring keeps the newest
    :data:`CAPACITY` windows; older ones are dropped but stay counted
    in :attr:`samples_taken`, and the EWMA rates integrate the whole
    run regardless of capacity.
    """

    def __init__(
        self,
        window_s: float,
        values_fn: Callable[[], Dict[str, float]],
    ) -> None:
        if window_s <= 0:
            raise ConfigurationError(f"window must be positive: {window_s}")
        self.window_s = float(window_s)
        self._values_fn = values_fn
        self._windows: Deque[WindowSample] = deque(maxlen=CAPACITY)
        self._last_values: Dict[str, float] = {}
        self._last_t = 0.0
        self._ewma: Dict[str, float] = {}
        self.samples_taken = 0

    # -- sampling -----------------------------------------------------

    def sample(self, now: float) -> WindowSample:
        """Close the window ending at sim time ``now``."""
        values = dict(self._values_fn())
        deltas = {
            key: value - self._last_values.get(key, 0.0)
            for key, value in values.items()
        }
        span = now - self._last_t
        if span > 0:
            for key, delta in deltas.items():
                rate = delta / span
                previous = self._ewma.get(key)
                self._ewma[key] = (
                    rate if previous is None
                    else EWMA_ALPHA * rate + (1.0 - EWMA_ALPHA) * previous
                )
        window = WindowSample(self.samples_taken, self._last_t, now, values, deltas)
        self._windows.append(window)
        self.samples_taken += 1
        self._last_values = values
        self._last_t = now
        return window

    def attach(self, simulator):
        """Sample at every window boundary of ``simulator`` (a probe)."""
        return simulator.add_probe(
            self.window_s, lambda: self.sample(simulator.now)
        )

    def close_partial(self, now: float) -> Optional[WindowSample]:
        """Close the trailing partial window, if any time has passed."""
        if now > self._last_t:
            return self.sample(now)
        return None

    # -- views --------------------------------------------------------

    @property
    def windows(self) -> Tuple[WindowSample, ...]:
        return tuple(self._windows)

    @property
    def dropped_windows(self) -> int:
        """Windows evicted from the ring to respect :data:`CAPACITY`."""
        return self.samples_taken - len(self._windows)

    def latest(self) -> Optional[WindowSample]:
        return self._windows[-1] if self._windows else None

    def ewma_rates(self) -> Dict[str, float]:
        """EWMA of each series' per-second rate, keyed like the windows."""
        return dict(sorted(self._ewma.items()))

    # -- serialization ------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": TIMESERIES_SCHEMA,
            "window_s": self.window_s,
            "capacity": CAPACITY,
            "samples_taken": self.samples_taken,
            "dropped_windows": self.dropped_windows,
            "ewma_alpha": EWMA_ALPHA,
            "ewma_per_second": self.ewma_rates(),
            "windows": [w.to_dict() for w in self._windows],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def write(self, destination: Union[str, IO[str]]) -> None:
        text = self.to_json() + "\n"
        if isinstance(destination, (str, bytes)):
            with open(destination, "w", encoding="utf-8") as stream:
                stream.write(text)
        else:
            destination.write(text)
