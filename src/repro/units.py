"""Unit helpers used across the HIDE reproduction.

Internally the library uses SI base units everywhere: seconds for time,
bits per second for data rates, bytes for frame sizes, watts for power,
and joules for energy. These helpers exist so call sites can say
``ms(46)`` instead of ``0.046`` and stay self-documenting.
"""

from __future__ import annotations

#: Bits per second in one megabit per second.
MBPS = 1_000_000.0

#: The canonical 802.11 beacon interval: 102.4 ms (100 TUs).
BEACON_INTERVAL_S = 0.1024


def ms(value: float) -> float:
    """Convert milliseconds to seconds."""
    return value * 1e-3


def us(value: float) -> float:
    """Convert microseconds to seconds."""
    return value * 1e-6


#: 802.11b long-preamble PHY overhead: 192 bits at 1 Mb/s = 192 µs.
PHY_OVERHEAD_S = us(192)

#: One-microsecond propagation delay (paper Table II).
PROPAGATION_DELAY_S = us(1)

#: Short interframe space, used between a frame and its ACK.
SIFS_S = us(10)


def mj(value: float) -> float:
    """Convert millijoules to joules."""
    return value * 1e-3


def mw(value: float) -> float:
    """Convert milliwatts to watts."""
    return value * 1e-3


def mbps(value: float) -> float:
    """Convert megabits per second to bits per second."""
    return value * MBPS


def airtime(length_bytes: int, rate_bps: float) -> float:
    """Return the transmission time in seconds of ``length_bytes`` at ``rate_bps``.

    This is the paper's ``l_i / r_i`` term: payload bits divided by the
    frame's data rate.
    """
    if rate_bps <= 0:
        raise ValueError(f"data rate must be positive, got {rate_bps}")
    if length_bytes < 0:
        raise ValueError(f"length must be non-negative, got {length_bytes}")
    return (length_bytes * 8) / rate_bps
