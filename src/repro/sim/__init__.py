"""Deterministic discrete-event simulation engine.

A small, dependency-free DES kernel: a :class:`Simulator` owns a clock
and an event heap; entities schedule callbacks; a :class:`Medium`
serializes transmissions onto a shared half-duplex channel and delivers
frames to every attached receiver after the frame's airtime.

Determinism matters here — two runs with the same seed must produce the
same event order — so events at equal times fire in insertion order
(by sequence number), never by object identity.
"""

from repro.sim.engine import Simulator, EventHandle
from repro.sim.medium import Medium, Transmission
from repro.sim.entity import Entity
from repro.sim.sniffer import ProtocolSniffer, CapturedFrame

__all__ = [
    "Simulator",
    "EventHandle",
    "Medium",
    "Transmission",
    "Entity",
    "ProtocolSniffer",
    "CapturedFrame",
]
