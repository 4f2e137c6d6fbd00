"""The HIDE solution and its variants."""

from __future__ import annotations

from typing import Dict, List, Sequence, Set

from repro.energy.dynamics import FrameEvent
from repro.energy.model import HideOverheadParams
from repro.energy.profile import DeviceEnergyProfile
from repro.solutions.base import Solution, SolutionPlan
from repro.units import BEACON_INTERVAL_S

#: E_o inputs (Eqs. 15-19) at the paper's evaluation settings: a UDP
#: Port Message every 10 s carrying 100 ports at 1 Mb/s, and a BTIM of
#: :data:`~repro.dot11.sizes.BTIM_BYTES` in every DTIM beacon.
HIDE_OVERHEAD = HideOverheadParams()


class HideSolution(Solution):
    """HIDE under the paper's Eq. (1) idealization.

    The AP hides useless frames, so the client's received trace is the
    useful subsequence (u_i = 1) at the original times, each taking a
    full τ wakelock; E_o accounts for UDP Port Messages and the BTIM
    bytes in every DTIM beacon.

    ``more_data_mode`` selects how the filtered trace's more-data bits
    (which drive Eq. 10's idle listening) are treated:

    * ``"original"`` (default, paper-faithful) — each useful frame keeps
      the bit it carried on the air. After the last useful frame of an
      interval whose bit is set, the model charges idle listening to the
      interval's end — the radio keeps listening through the remaining
      (hidden-from-it-but-still-airing) burst. This is the literal
      reading of Eq. (10) and is what reproduces the paper's lower S4
      savings on heavy traces.
    * ``"recomputed"`` — bits are made self-consistent over the filtered
      sequence (set iff another useful frame follows in the same beacon
      interval), so the idle tail disappears and "HIDE never costs more
      than receive-all" holds for every useful fraction. Used by the
      property suite; compared against "original" in
      benchmarks/bench_ablation_more_data.py.
    """

    name = "hide"

    def __init__(self, more_data_mode: str = "original") -> None:
        if more_data_mode not in ("original", "recomputed"):
            raise ValueError(f"unknown more_data_mode: {more_data_mode!r}")
        self.more_data_mode = more_data_mode

    def plan(
        self, events: Sequence[FrameEvent], profile: DeviceEnergyProfile
    ) -> SolutionPlan:
        received = [event for event in events if event.useful]
        if self.more_data_mode == "recomputed":
            received = _recompute_more_data(received)
        return received, None, HIDE_OVERHEAD


def _recompute_more_data(events: Sequence[FrameEvent]) -> List[FrameEvent]:
    """Set each frame's more-data bit from its *own* sequence: True iff
    the next frame of this sequence lands in the same beacon interval."""
    result: List[FrameEvent] = []
    for index, event in enumerate(events):
        interval = int(event.time / BEACON_INTERVAL_S)
        has_successor = (
            index + 1 < len(events)
            and int(events[index + 1].time / BEACON_INTERVAL_S) == interval
        )
        if event.more_data == has_successor:
            result.append(event)
        else:
            result.append(
                FrameEvent(
                    time=event.time,
                    length_bytes=event.length_bytes,
                    rate_bps=event.rate_bps,
                    useful=event.useful,
                    more_data=has_successor,
                    udp_port=event.udp_port,
                )
            )
    return result


def _events_in_listened_bursts(events: Sequence[FrameEvent]) -> List[FrameEvent]:
    """All frames in DTIM intervals that contain at least one useful frame.

    When a client's BTIM bit is set it keeps the radio up for the whole
    post-DTIM burst, so it receives the useless frames sharing the burst
    with its useful ones.
    """
    by_interval: Dict[int, List[FrameEvent]] = {}
    useful_intervals: Set[int] = set()
    for event in events:
        interval = int(event.time / BEACON_INTERVAL_S)
        by_interval.setdefault(interval, []).append(event)
        if event.useful:
            useful_intervals.add(interval)
    received: List[FrameEvent] = []
    for interval in sorted(useful_intervals):
        received.extend(by_interval[interval])
    return received


class HideRealisticSolution(Solution):
    """HIDE at burst granularity (ablation of the Eq. 1 idealization).

    The client receives every frame of every burst its BTIM bit points
    it at, and processes them all (full τ wakelock each) — the
    pessimistic end of real HIDE behaviour.
    """

    name = "hide-realistic"

    def plan(
        self, events: Sequence[FrameEvent], profile: DeviceEnergyProfile
    ) -> SolutionPlan:
        return _events_in_listened_bursts(events), None, HIDE_OVERHEAD


class CombinedSolution(Solution):
    """HIDE + client-side filtering (the paper's future-work direction).

    Burst-granularity reception like :class:`HideRealisticSolution`,
    but the driver filter drops the useless frames inside received
    bursts without holding the τ wakelock — combining both mechanisms.
    """

    name = "hide+client-side"

    def plan(
        self, events: Sequence[FrameEvent], profile: DeviceEnergyProfile
    ) -> SolutionPlan:
        received = _events_in_listened_bursts(events)
        tau = profile.wakelock_timeout_s

        def wakelock_for(event: FrameEvent) -> float:
            return tau if event.useful else 0.0

        return received, wakelock_for, HIDE_OVERHEAD
