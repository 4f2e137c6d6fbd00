"""The smartphone station: power states, wakelocks, radio, and clients.

The station model mirrors the paper's description of suspend-mode
smartphones: the SoC sleeps while the WiFi chip keeps waking for
beacons; any received data frame forces a system resume (duration
``T_rm``), holds a driver wakelock of duration ``τ`` (renewed by each
further frame), and when the last wakelock expires the system runs a
suspend operation (duration ``T_sp``) that a new frame can abort
mid-way.

Three client behaviours are provided, matching the paper's compared
solutions: :class:`~repro.station.client.ClientPolicy.RECEIVE_ALL`,
``CLIENT_SIDE`` (driver-level filtering, [6]'s lower bound), and
``HIDE``.
"""

from repro.station.power import PowerState, PowerStateMachine
from repro.station.wakelock import WakelockManager
from repro.station.udp_sockets import UdpSocketTable
from repro.station.client import Client, ClientPolicy, ClientConfig, ClientCounters

__all__ = [
    "PowerState",
    "PowerStateMachine",
    "WakelockManager",
    "UdpSocketTable",
    "Client",
    "ClientPolicy",
    "ClientConfig",
    "ClientCounters",
]
