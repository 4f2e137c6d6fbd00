"""Timing wrappers that split a run's wall time by layer.

The wrappers are installed from outside the program: each replaces one
entry method on its class (or one module-level function) *before* the
run is wired, so every bound method, partial and queued callback built
during wiring already points at the wrapper. Nothing under ``src/``
knows they exist.

Each call is a span. Spans nest on one stack (all wrapped entry points
run on one thread), so a span's *self* time is its duration minus the
time its child spans cover, and the self times of all layers add up to
the root span's total. Per layer the tracer keeps call count, total and
self time in memory; it also keeps the first ``sample_cycles`` cycles of
individual spans, with parent links, for :meth:`SpanTracer.write_jsonl`.
"""

from __future__ import annotations

import functools
import json
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

#: Hard cap on sampled span records, whatever the cycle count.
MAX_SAMPLED_SPANS = 100_000


class SpanTracer:
    """Per-layer call count, total and self time, plus a span sample."""

    def __init__(
        self, sample_cycles: int = 50, cycle_layer: Optional[str] = None
    ) -> None:
        #: layer -> [calls, total_s, self_s]
        self.stats: Dict[str, List[float]] = {}
        #: open spans: [child_s, span_id, parent_id]
        self._stack: List[list] = []
        self._patches: List[tuple] = []
        self.sample: List[dict] = []
        self._cycles_left = sample_cycles
        self._cycle_layer = cycle_layer
        self._sampling = sample_cycles > 0
        self._next_id = 0
        self._origin = perf_counter()

    def reset(self) -> None:
        """Forget everything recorded so far (e.g. spans from wiring)."""
        if self._stack:
            raise RuntimeError("cannot reset with spans open")
        self.stats.clear()
        self.sample.clear()
        self._origin = perf_counter()

    def layer(self, name: str) -> List[float]:
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats[name] = [0, 0.0, 0.0]
        return stats

    # -- installing ------------------------------------------------------

    def wrap(self, owner: Any, attr: str, layer: str) -> None:
        """Time every call of ``owner.attr`` as a span of ``layer``."""
        self.wrap_classified(owner, attr, lambda args: layer)

    def wrap_classified(
        self, owner: Any, attr: str, classify: Callable[[tuple], str]
    ) -> None:
        """Like :meth:`wrap`, choosing the layer per call from the args."""
        original = getattr(owner, attr)
        own = attr in vars(owner)
        self._patches.append((owner, attr, original if own else None))
        setattr(owner, attr, self._wrapper(original, classify))

    def uninstall(self) -> None:
        """Put every wrapped attribute back."""
        for owner, attr, original in reversed(self._patches):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def _wrapper(self, fn: Callable, classify: Callable[[tuple], str]):
        stack = self._stack
        stats_of = self.layer
        tracer = self
        perf = perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [0.0, None, None]
            if tracer._sampling:
                frame[1] = tracer._next_id
                tracer._next_id += 1
                frame[2] = stack[-1][1] if stack else None
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                layer = classify(args)
                stats = stats_of(layer)
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if frame[1] is not None:
                    tracer._record(frame, layer, start, elapsed)

        return span

    def _record(self, frame: list, layer: str, start: float, elapsed: float) -> None:
        self.sample.append(
            {
                "span": frame[1],
                "parent": frame[2],
                "layer": layer,
                "start_us": round((start - self._origin) * 1e6, 3),
                "dur_us": round(elapsed * 1e6, 3),
                "self_us": round((elapsed - frame[0]) * 1e6, 3),
            }
        )
        if layer == self._cycle_layer:
            self._cycles_left -= 1
        # Stops opening sampled spans; the ones still open are recorded
        # as they close, so every parent link in the sample resolves.
        if self._cycles_left <= 0 or len(self.sample) >= MAX_SAMPLED_SPANS:
            self._sampling = False

    # -- reading ---------------------------------------------------------

    def table(self) -> Dict[str, Dict[str, float]]:
        """``{layer: {"calls", "total_ms", "self_ms"}}``."""
        return {
            layer: {
                "calls": int(calls),
                "total_ms": total * 1e3,
                "self_ms": self_s * 1e3,
            }
            for layer, (calls, total, self_s) in sorted(self.stats.items())
        }

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as stream:
            for record in self.sample:
                stream.write(json.dumps(record, separators=(",", ":")))
                stream.write("\n")


def install_sim(tracer: SpanTracer) -> None:
    """Wrap the DES layers' entry points (call before wiring a run)."""
    import repro.ap.access_point as ap_module
    from repro.ap.access_point import AccessPoint
    from repro.ap.port_table import ClientUdpPortTable
    from repro.dot11.data import DataFrame
    from repro.dot11.management import Beacon
    from repro.sim.engine import Simulator
    from repro.sim.medium import Medium
    from repro.sim.radio_array import RadioArray
    from repro.station.client import Client
    from repro.station.power import PowerStateMachine
    from repro.station.wakelock import WakelockManager

    wrap = tracer.wrap
    wrap(Simulator, "run", "sim.engine")
    for name in ("transmit", "_drain_deliveries", "_drain_deliveries_vector"):
        wrap(Medium, name, "sim.medium")
    rx_layer = {
        Beacon: "station.client.rx_beacon",
        DataFrame: "station.client.rx_data",
    }
    tracer.wrap_classified(
        Client,
        "on_receive",
        lambda args: rx_layer.get(
            type(args[1].frame), "station.client.rx_other"
        ),
    )
    for name in (
        "_try_enter_suspend",
        "_on_ack_timeout",
        "_on_beacon_watchdog",
        "_port_refresh_tick",
        "crash",
        "rejoin",
    ):
        wrap(Client, name, "station.client.timers")
    for name in (
        "request_wake",
        "_finish_resume",
        "request_suspend",
        "_finish_suspend",
        "force_suspend",
    ):
        wrap(PowerStateMachine, name, "station.power")
    for name in ("acquire", "_expire", "drop", "release_now"):
        wrap(WakelockManager, name, "station.wakelock")
    wrap(AccessPoint, "_beacon_tick", "ap.access_point.beacon")
    wrap(AccessPoint, "deliver_from_ds", "ap.access_point.ingress")
    wrap(AccessPoint, "on_receive", "ap.access_point.rx")
    wrap(ap_module, "compute_broadcast_flags", "ap.flags")
    for name in ("update_client", "touch", "remove_client", "expire_older_than"):
        wrap(ClientUdpPortTable, name, "ap.port_table")
    for name in ("account_broadcast", "flush", "refresh"):
        wrap(RadioArray, name, "sim.radio_array")


def install_service(tracer: SpanTracer) -> None:
    """Wrap the port service's entry points (call before it starts)."""
    import repro.service.server as server_module
    from repro.service import wire
    from repro.service.server import PortService
    from repro.service.shard import PortShard

    wrap = tracer.wrap
    wrap(wire, "decode_message", "service.wire.decode")
    wrap(PortShard, "_apply", "service.shard.apply")
    wrap(PortShard, "drain", "service.shard.drain")
    wrap(PortShard, "expire", "service.shard.expire")
    wrap(PortService, "_on_readable", "service.server.recv")
    wrap(PortService, "_send_ack", "service.server.ack_send")
    wrap(server_module, "compute_broadcast_flags", "service.server.a1")
