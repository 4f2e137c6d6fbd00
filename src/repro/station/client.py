"""The smartphone client entity for the DES.

One class implements all three compared behaviours via
:class:`ClientPolicy`:

* ``RECEIVE_ALL`` — the stock smartphone: wakes and holds a τ wakelock
  for every broadcast frame it receives.
* ``CLIENT_SIDE`` — driver-level filtering ([6]): receives every frame,
  but for useless ones drops the frame in the driver and returns to
  suspend immediately (no τ hold) — the lower bound the paper compares
  against.
* ``HIDE`` — the paper's system: reports open UDP ports to the AP
  before suspending, then wakes only when its BTIM bit is set.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Tuple

from repro._slots import slotted
from repro.dot11.control import Ack, PsPoll
from repro.dot11.data import DataFrame
from repro.dot11.management import Beacon, UdpPortMessage
from repro.dot11.mac_address import MacAddress
from repro.energy.profile import NEXUS_ONE, DeviceEnergyProfile
from repro.errors import ConfigurationError
from repro.obs.tracing import NULL_TRACER
from repro.sim.engine import EventHandle, RecurringHandle
from repro.sim.entity import Entity
from repro.sim.medium import Medium, Transmission
from repro.station.power import PowerState, PowerStateMachine
from repro.station.udp_sockets import UdpSocketTable
from repro.station.wakelock import WakelockManager
from repro.units import BEACON_INTERVAL_S, MANAGEMENT_RATE_BPS, ms, us


class ClientPolicy(enum.Enum):
    RECEIVE_ALL = "receive-all"
    CLIENT_SIDE = "client-side"
    HIDE = "hide"


#: How long to wait for the AP's ACK before retransmitting.
ACK_TIMEOUT_S = ms(20)

#: Retransmissions of an unacknowledged report before the client gives
#: up and suspends anyway (without loss recovery).
MAX_PORT_MESSAGE_RETRIES = 7

#: Backoff ceiling for report retransmissions under loss recovery.
MAX_ACK_BACKOFF_S = 0.64

#: How long an active scan collects probe responses.
SCAN_DWELL_S = 0.05

#: Consecutive expected beacons to miss before the watchdog declares
#: the schedule unknown and listens to everything.
BEACON_MISS_LIMIT = 1

#: Watchdog slack past the expected beacon arrival. Must stay below the
#: gap between a (lost) beacon and the first burst frame behind it
#: (DIFS + PHY preamble + minimum payload airtime, ~870 µs).
BEACON_WATCHDOG_MARGIN_S = us(400)


@dataclass(frozen=True)
class ClientConfig:
    """One station's device and protocol settings.

    ``profile`` is the Table I row the station runs at: its τ, T_rm and
    T_sp drive the wakelock and the suspend machine, and the meter
    prices the station at the same row.
    """

    profile: DeviceEnergyProfile = NEXUS_ONE
    policy: ClientPolicy = ClientPolicy.HIDE
    #: Master switch for the protocol recovery paths designed for lossy
    #: channels. When True: UDP Port Messages retransmit with
    #: exponential backoff *until* the AP's acknowledgment arrives
    #: (never giving up into unknown state), the client listens
    #: conservatively at any DTIM while its report is unconfirmed, and a
    #: beacon watchdog falls back to receive-all after missed beacons.
    #: Default False: a lossless channel needs none of it, and the
    #: legacy give-up behaviour is what the headline numbers were
    #: measured under.
    loss_recovery: bool = False
    #: When set, a suspended HIDE client wakes this often to re-send its
    #: port report — the keep-alive that holds the AP's refresh-timer
    #: TTL at bay. Pair with an AP ``port_entry_ttl_s`` above this.
    port_refresh_interval_s: Optional[float] = None

    def __post_init__(self) -> None:
        refresh = self.port_refresh_interval_s
        if refresh is not None and not 0 < refresh < math.inf:
            raise ConfigurationError(
                f"port refresh interval must be positive and finite: {refresh}"
            )


@slotted
@dataclass
class ClientCounters:
    beacons_received: int = 0
    dtims_received: int = 0
    broadcast_frames_received: int = 0
    broadcast_frames_ignored: int = 0
    useful_frames_received: int = 0
    useless_frames_received: int = 0
    frames_delivered_to_apps: int = 0
    port_messages_sent: int = 0
    port_message_retransmissions: int = 0
    port_message_bytes_sent: int = 0
    acks_received: int = 0
    ps_polls_sent: int = 0
    unicast_frames_received: int = 0
    association_requests_sent: int = 0
    associations_completed: int = 0
    probe_requests_sent: int = 0
    probe_responses_received: int = 0
    #: Useful frames that aired, were delivered by the medium, but were
    #: slept through — the failure HIDE must never cause on its own.
    #: Injected frame loss is *not* counted here (a dropped frame never
    #: reaches the radio), so any nonzero value is a protocol miss.
    useful_frames_missed: int = 0
    #: Watchdog firings: an expected beacon did not arrive in time.
    beacon_misses_detected: int = 0
    #: Transitions into conservative receive-all (unknown-state) mode.
    conservative_fallbacks: int = 0
    #: Keep-alive port reports sent on the refresh timer.
    port_refreshes: int = 0
    crashes: int = 0
    rejoins: int = 0


class Client(Entity):
    """A smartphone station attached to the simulated medium.

    Slotted: a DES fleet holds one per station.
    """

    __slots__ = (
        "mac",
        "bssid",
        "_medium",
        "config",
        "sockets",
        "counters",
        "aid",
        "last_aid",
        "power",
        "wakelock",
        "_radio_listening",
        "_ack_pending",
        "_retransmit_event",
        "_association_retry_event",
        "_scan_results",
        "_retries_left",
        "_backoff_attempt",
        "_report_sequence",
        "_frame_sequence",
        "_crashed",
        "_rejoining",
        "_conservative_listen",
        "_radio",
        "_radio_slot",
        "_beacon_watchdog",
        "_learned_beacon_interval",
        "_port_refresh",
        "tracer",
    )

    def __init__(
        self,
        mac: MacAddress,
        medium: Medium,
        bssid: MacAddress,
        config: Optional[ClientConfig] = None,
    ) -> None:
        super().__init__(name=f"sta-{mac}")
        self.mac = mac
        self.bssid = bssid
        self._medium = medium
        self.config = config or ClientConfig()
        self.sockets = UdpSocketTable()
        self.counters = ClientCounters()
        self.aid: Optional[int] = None
        #: Last AID ever granted; survives a crash (which clears ``aid``)
        #: so observability keeps one stable series per station.
        self.last_aid: Optional[int] = None
        self.power: Optional[PowerStateMachine] = None
        self.wakelock: Optional[WakelockManager] = None
        self._radio_listening = False
        self._ack_pending = False
        self._retransmit_event: Optional[EventHandle] = None
        self._association_retry_event: Optional[EventHandle] = None
        self._scan_results = None
        self._retries_left = 0
        self._backoff_attempt = 0
        self._report_sequence = 0
        self._frame_sequence = 0
        self._crashed = False
        self._rejoining = False
        #: Unknown-state fallback: when True the radio behaves like
        #: receive-all until the next DTIM resynchronizes it.
        self._conservative_listen = False
        #: Slot-state mirror in the medium's radio array; None while
        #: unbound (detached, or on a medium that binds no slots), so
        #: every hook is one None check.
        self._radio = None
        self._radio_slot = -1
        self._beacon_watchdog: Optional[EventHandle] = None
        self._learned_beacon_interval: Optional[float] = None
        self._port_refresh: Optional[RecurringHandle] = None
        #: Structured-event tracer; the null default keeps the receive
        #: path at one attribute check. Swap in a JsonlTracer to record
        #: wakeup events with the power state they interrupted.
        self.tracer = NULL_TRACER

    # -- lifecycle -----------------------------------------------------

    def on_attach(self) -> None:
        # The phone boots awake; the suspend path (including the first
        # UDP Port Message for HIDE clients) runs once attached.
        profile = self.config.profile
        self.power = PowerStateMachine(
            self.simulator,
            resume_duration_s=profile.resume_duration_s,
            suspend_duration_s=profile.suspend_duration_s,
            initial_state=PowerState.ACTIVE,
        )
        self.wakelock = WakelockManager(
            self.simulator,
            timeout_s=profile.wakelock_timeout_s,
            on_expire=self._on_wakelock_expired,
        )
        self.simulator.schedule(0.0, self._try_enter_suspend)
        if self.config.loss_recovery:
            self._arm_beacon_watchdog()
        if (
            self.config.port_refresh_interval_s is not None
            and self.config.policy is ClientPolicy.HIDE
        ):
            self._port_refresh = self.simulator.every(
                self.config.port_refresh_interval_s, self._port_refresh_tick
            )

    def set_aid(self, aid: int) -> None:
        """Record the AID granted at association time."""
        self.aid = aid
        self.last_aid = aid
        self._notify_radio()

    # -- radio-array binding ---------------------------------------------

    def bind_radio(self, radios, slot: int) -> None:
        """Mirror this radio into the medium's slot columns.

        Called by the medium on attach; every subsequent
        mutation of doze/receive-all state, AID, or the socket table
        refreshes the mirror via :meth:`_notify_radio`.
        """
        self._radio = radios
        self._radio_slot = slot

    def unbind_radio(self) -> None:
        self._radio = None
        self._radio_slot = -1

    def beacon_epoch_bssid(self) -> Optional[MacAddress]:
        """The BSS whose beacons may be counted for this station in bulk.

        A HIDE station without loss recovery handles a beacon that
        neither buffers unicast for it nor changes its DTIM listen bit
        by counting it, so the radio array may book such beacons from
        its beacon epochs.  ``None`` for every other station: loss
        recovery re-arms a watchdog on every beacon (and is the only
        reader of a pending ACK there), and the other policies listen
        on the TIM group bit, so each beacon walks them.
        """
        config = self.config
        if config.policy is ClientPolicy.HIDE and not config.loss_recovery:
            return self.bssid
        return None

    def radio_broadcast_state(self):
        """(receiving-broadcasts, aid, subscribed broadcast ports).

        Exactly the state the doze path of :meth:`_handle_broadcast`
        reads — what the deferred accrual needs to stand in for it.
        """
        return (
            self._radio_listening or self._conservative_listen,
            self.aid,
            self.sockets.reportable_ports(),
        )

    def _notify_radio(self) -> None:
        if self._radio is not None:
            self._radio.refresh(self._radio_slot)

    def scan(self, on_complete, ssid: str = "") -> None:
        """Active scan: probe, collect responses for ``SCAN_DWELL_S``,
        then call ``on_complete(results)`` with the discovered BSSs.

        Each result is a :class:`~repro.dot11.probe_frames.ProbeResponse`
        — check ``hide_supported`` to pick a HIDE-capable AP.
        """
        from repro.dot11.probe_frames import ProbeRequest

        request = ProbeRequest(
            source=self.mac, ssid=ssid, sequence=self._next_sequence()
        )
        self.counters.probe_requests_sent += 1
        self._scan_results = []
        self._medium.transmit(
            self, request, request.to_bytes(), MANAGEMENT_RATE_BPS
        )

        def finish() -> None:
            results, self._scan_results = self._scan_results, None
            on_complete(results or [])

        self.simulator.schedule(SCAN_DWELL_S, finish)

    def request_association(self, ssid: str = "hide-net") -> None:
        """Run the association handshake over the air.

        Sends an Association Request (declaring HIDE support — and
        pre-loading the current port set — when the policy is HIDE) and
        retries on timeout; the AID arrives in the response. The
        programmatic alternative (``ap.associate`` + ``set_aid``)
        remains available for tests and analytic setups.
        """
        from repro.dot11.association_frames import AssociationRequest

        if self.aid is not None:
            return
        hide = self.config.policy is ClientPolicy.HIDE
        request = AssociationRequest(
            source=self.mac,
            bssid=self.bssid,
            ssid=ssid,
            hide_capable=hide,
            initial_ports=self.sockets.reportable_ports() if hide else frozenset(),
            sequence=self._next_sequence(),
        )
        self.counters.association_requests_sent += 1
        self._medium.transmit(
            self, request, request.to_bytes(), MANAGEMENT_RATE_BPS
        )
        self._association_retry_event = self.simulator.schedule(
            ACK_TIMEOUT_S * 4, lambda: self._retry_association(ssid)
        )

    def _retry_association(self, ssid: str) -> None:
        self._association_retry_event = None
        if self.aid is None:
            self.request_association(ssid)

    def _handle_association_response(self, response) -> None:
        if response.destination != self.mac or response.bssid != self.bssid:
            return
        if self._association_retry_event is not None:
            self._association_retry_event.cancel()
            self._association_retry_event = None
        if response.success:
            self.aid = response.aid
            self.last_aid = response.aid
            self._notify_radio()
            self.counters.associations_completed += 1
            if self._rejoining:
                # A rebooted device re-runs the suspend path (sending a
                # fresh port report for HIDE) once readmitted to the BSS.
                self._rejoining = False
                self.simulator.schedule(0.0, self._try_enter_suspend)

    def open_port(self, port: int, inaddr_any: bool = True, owner: str = "app") -> None:
        self.sockets.open_port(port, inaddr_any=inaddr_any, owner=owner)
        self._notify_radio()

    def close_port(self, port: int) -> None:
        self.sockets.close_port(port)
        self._notify_radio()

    # -- suspend entry (paper Figure 2, steps 1-3) -----------------------

    def _try_enter_suspend(self) -> None:
        assert self.power is not None and self.wakelock is not None
        if self.power.state is not PowerState.ACTIVE or self.wakelock.held:
            return
        if self.config.policy is ClientPolicy.HIDE:
            self._send_port_message(first_attempt=True)
        else:
            self.power.request_suspend()

    def _send_port_message(self, first_attempt: bool) -> None:
        if first_attempt:
            self._report_sequence = (self._report_sequence + 1) & 0xFFFF
            self._retries_left = MAX_PORT_MESSAGE_RETRIES
            self._backoff_attempt = 0
        message = UdpPortMessage(
            source=self.mac,
            bssid=self.bssid,
            ports=self.sockets.reportable_ports(),
            report_sequence=self._report_sequence,
            sequence=self._next_sequence(),
        )
        frame_bytes = message.to_bytes()
        self.counters.port_messages_sent += 1
        if not first_attempt:
            self.counters.port_message_retransmissions += 1
        self.counters.port_message_bytes_sent += len(frame_bytes)
        self._ack_pending = True
        self._medium.transmit(
            self, message, frame_bytes, MANAGEMENT_RATE_BPS
        )
        self._retransmit_event = self.simulator.schedule(
            self._ack_timeout(), self._on_ack_timeout
        )

    def _ack_timeout(self) -> float:
        """Current report ACK timeout: fixed, or exponential under
        loss_recovery (doubling per retry up to the ceiling)."""
        if not self.config.loss_recovery:
            return ACK_TIMEOUT_S
        return min(
            ACK_TIMEOUT_S * (2 ** self._backoff_attempt), MAX_ACK_BACKOFF_S
        )

    def _on_ack_timeout(self) -> None:
        self._retransmit_event = None
        if not self._ack_pending:
            return
        if self.config.loss_recovery:
            # Never give up into unknown state: keep retransmitting with
            # exponential backoff until the AP's acknowledgment arrives.
            # The client stays awake (and listens conservatively at any
            # DTIM) for as long as its report is unconfirmed, so loss
            # costs energy, never correctness.
            self._backoff_attempt += 1
            self._send_port_message(first_attempt=False)
            return
        if self._retries_left <= 0:
            # Give up; suspend anyway with possibly stale AP state. The
            # AP keeps the previous report, which is the safe direction
            # (at worst extra wake-ups, never missed useful frames).
            self._ack_pending = False
            self._complete_suspend_entry()
            return
        self._retries_left -= 1
        self._send_port_message(first_attempt=False)

    def _on_ack(self) -> None:
        if not self._ack_pending:
            return
        self.counters.acks_received += 1
        self._ack_pending = False
        if self._retransmit_event is not None:
            self._retransmit_event.cancel()
            self._retransmit_event = None
        self._complete_suspend_entry()

    def _complete_suspend_entry(self) -> None:
        assert self.power is not None and self.wakelock is not None
        if self.power.state is PowerState.ACTIVE and not self.wakelock.held:
            self.power.request_suspend()

    def _on_wakelock_expired(self) -> None:
        self._try_enter_suspend()

    def _next_sequence(self) -> int:
        self._frame_sequence = (self._frame_sequence + 1) & 0xFFF
        return self._frame_sequence

    # -- loss recovery (beacon watchdog + port keep-alive) ---------------

    def _expected_beacon_interval(self) -> float:
        """Beacon period: decoded from the AP once heard, prior before."""
        if self._learned_beacon_interval is not None:
            return self._learned_beacon_interval
        return BEACON_INTERVAL_S

    def _arm_beacon_watchdog(self) -> None:
        deadline = (
            self._expected_beacon_interval() * BEACON_MISS_LIMIT
            + BEACON_WATCHDOG_MARGIN_S
        )
        if self._beacon_watchdog is not None:
            # Every decoded beacon pushes the watchdog back: reuse the handle.
            self.simulator.rearm(self._beacon_watchdog, deadline)
        else:
            self._beacon_watchdog = self.simulator.schedule(
                deadline, self._on_beacon_watchdog
            )

    def _on_beacon_watchdog(self) -> None:
        """``beacon_miss_limit`` expected beacons failed to arrive.

        The client no longer knows whether its BTIM bit is set, so it
        must not sleep through the unknown state: fall back to
        conservative receive-all until a decoded DTIM resynchronizes.
        """
        self._beacon_watchdog = None
        if self._crashed:
            return
        self.counters.beacon_misses_detected += 1
        if not self._conservative_listen:
            self._conservative_listen = True
            self._notify_radio()
            self.counters.conservative_fallbacks += 1
            if self.tracer.enabled:
                self.tracer.event(
                    "conservative_fallback",
                    sim_time=self.now,
                    client=str(self.mac),
                    aid=self.aid,
                )
        self._arm_beacon_watchdog()

    def _port_refresh_tick(self) -> None:
        """Keep-alive: periodically re-send the port report so the AP's
        refresh-timer TTL never ages this (live) client out."""
        if (
            self._crashed
            or self.aid is None
            or self._ack_pending
            or self.config.policy is not ClientPolicy.HIDE
        ):
            return
        self.counters.port_refreshes += 1
        self._wake_for_frame()
        assert self.power is not None
        self.power.when_active(lambda: self._send_port_message(first_attempt=True))

    # -- crash / rejoin (fault injection) --------------------------------

    def crash(self) -> None:
        """Abrupt device failure: radio off, timers dead, state lost.

        The power timeline stays contiguous (the device drops straight
        to SUSPENDED), but every pending timer and queued callback is
        discarded — a rebooted device must not replay pre-crash intent.
        """
        if self._crashed:
            return
        self._crashed = True
        self.counters.crashes += 1
        if self._medium.is_attached(self):
            self._medium.detach(self)
        for event in (
            self._retransmit_event,
            self._association_retry_event,
            self._beacon_watchdog,
        ):
            if event is not None:
                event.cancel()
        self._retransmit_event = None
        self._association_retry_event = None
        self._beacon_watchdog = None
        if self._port_refresh is not None:
            self._port_refresh.cancel()
            self._port_refresh = None
        self._ack_pending = False
        self._radio_listening = False
        self._conservative_listen = False
        self._rejoining = False
        self._scan_results = None
        self.aid = None
        self._notify_radio()  # no-op: detach above released the slot
        if self.wakelock is not None:
            self.wakelock.drop()
        if self.power is not None:
            self.power.force_suspend()
        if self.tracer.enabled:
            self.tracer.event(
                "client_crash", sim_time=self.now, client=str(self.mac)
            )

    def rejoin(self) -> None:
        """Reboot after :meth:`crash`: reattach and re-associate on air.

        The association handshake carries the client's current port set,
        so the AP relearns everything it aged out; the post-association
        suspend path then sends a fresh UDP Port Message as usual.
        """
        if not self._crashed:
            return
        self._crashed = False
        self.counters.rejoins += 1
        self._medium.attach(self)
        assert self.power is not None
        self._rejoining = True
        self.power.request_wake()
        self.power.when_active(self.request_association)
        if self.config.loss_recovery:
            self._arm_beacon_watchdog()
        if (
            self.config.port_refresh_interval_s is not None
            and self.config.policy is ClientPolicy.HIDE
        ):
            self._port_refresh = self.simulator.every(
                self.config.port_refresh_interval_s, self._port_refresh_tick
            )
        if self.tracer.enabled:
            self.tracer.event(
                "client_rejoin", sim_time=self.now, client=str(self.mac)
            )

    # -- receive path ----------------------------------------------------

    def on_receive(self, transmission: Transmission) -> None:
        if self._crashed:
            return  # radio is off; a crashed device hears nothing
        frame = transmission.frame
        if isinstance(frame, Beacon):
            self._handle_beacon(frame)
        elif isinstance(frame, Ack):
            if frame.receiver == self.mac:
                self._on_ack()
        elif isinstance(frame, DataFrame):
            if frame.is_broadcast:
                self._handle_broadcast(frame)
            elif frame.destination == self.mac:
                self._handle_unicast(frame)
        else:
            from repro.dot11.association_frames import AssociationResponse
            from repro.dot11.probe_frames import ProbeResponse

            if isinstance(frame, AssociationResponse):
                self._handle_association_response(frame)
            elif isinstance(frame, ProbeResponse):
                if frame.destination == self.mac:
                    self.counters.probe_responses_received += 1
                    if self._scan_results is not None:
                        self._scan_results.append(frame)

    # -- batched receive (the medium's run hooks) ------------------------
    #
    # The medium hands one frame to a whole run of attached stations in
    # one call.  Each hook reads the frame once, then walks the run in
    # order and applies the common case inline; any station outside it
    # gets its own ``on_receive`` at its turn in the walk, before any
    # inline state change of its own, so counters, events and sequence
    # numbers come out exactly as with one ``on_receive`` per station.

    @staticmethod
    def receive_beacon_run(clients, transmission: Transmission) -> None:
        """Batched :meth:`on_receive` of one beacon.

        Walks only the stations the radio array's
        :meth:`~repro.sim.radio_array.RadioArray.beacon_walk` names, in
        attach order; for every other station the beacon only counts,
        and the array's beacon epochs book that count.  Inline: a live
        station with no unicast buffered for it — the counters,
        watchdog re-arm and DTIM listen decision of
        :meth:`_handle_beacon` / :meth:`_should_listen`.  The listen
        bits that decision flips reach the array in one call after the
        walk (nothing in the walk reads another station's bit), with
        the stations it turned on that could join the listener lease:
        ACTIVE, holding their lock, and taking the broadcast hook's
        inline path.
        """
        beacon = transmission.frame
        bssid = beacon.bssid
        interval_s = beacon.beacon_interval_tu * 1024e-6
        tim = beacon.tim
        is_dtim = tim.is_dtim
        unicast_aids = tim.aids_with_traffic
        group_buffered = tim.group_traffic_buffered
        btim = beacon.btim
        useful_aids = None if btim is None else btim.aids_with_useful_broadcast
        hide = ClientPolicy.HIDE
        radios = clients[0]._radio
        walk = radios.beacon_walk(
            beacon, clients[0]._radio_slot, clients[-1]._radio_slot
        )
        active = PowerState.ACTIVE
        client_side = ClientPolicy.CLIENT_SIDE
        flips = []
        joiners = []
        for client in walk:
            aid = client.aid
            if client._crashed or (aid is not None and aid in unicast_aids):
                client.on_receive(transmission)
                continue
            if client.bssid is not bssid and client.bssid != bssid:
                continue
            config = client.config
            counters = client.counters
            counters.beacons_received += 1
            if config.loss_recovery:
                client._learned_beacon_interval = interval_s
                client._arm_beacon_watchdog()
            if is_dtim:
                counters.dtims_received += 1
                listening = client._radio_listening or client._conservative_listen
                if aid is None:
                    listen = False
                elif config.loss_recovery and client._ack_pending:
                    listen = True
                elif useful_aids is not None and config.policy is hide:
                    listen = aid in useful_aids
                else:
                    listen = group_buffered
                client._radio_listening = listen
                client._conservative_listen = False
                if listen != listening:
                    flips.append(client._radio_slot)
                    if (
                        listen
                        and client.power.state is active
                        and client.wakelock.held
                        and config.policy is not client_side
                    ):
                        joiners.append(client._radio_slot)
        if flips:
            radios.flip_listening(flips, joiners)

    @staticmethod
    def receive_broadcast_run(clients, transmission: Transmission) -> None:
        """Batched :meth:`on_receive` of one broadcast data frame.

        Inline: a live, listening station under the HIDE or receive-all
        policy that is ACTIVE or RESUMING — :meth:`_handle_broadcast`
        and :meth:`_process_broadcast` with the wake-up a no-op (such a
        station neither starts a resume nor traces a wakeup) and the
        wakelock acquired at once, or once the resume completes.

        Walks only the stations outside the radio array's listener
        lease (:meth:`~repro.sim.radio_array.RadioArray.broadcast_walk`),
        in attach order.  A station handled inline while ACTIVE that
        still listens joins the lease after the walk; from the next
        frame on, the lease books the frame's counters and wakelock
        renewal for it in bulk, and the burst's last frame (or any
        change to the station) settles them exactly.  On the last
        frame, the listen bits of the walked stations it ends clear
        with the lease's, in one call after the walk.
        """
        frame = transmission.frame
        more_data = frame.more_data
        port = frame.udp_dst_port()
        active = PowerState.ACTIVE
        resuming = PowerState.RESUMING
        client_side = ClientPolicy.CLIENT_SIDE
        radios = clients[0]._radio
        walk = radios.broadcast_walk(clients)
        booking = radios.booking
        joiners = []
        ended = []
        for client in walk:
            if booking:
                radios.book_below(client._radio_slot)
            state = client.power.state
            if (
                client._crashed
                or (state is not active and state is not resuming)
                or client.config.policy is client_side
                or not (client._radio_listening or client._conservative_listen)
            ):
                client.on_receive(transmission)
                continue
            counters = client.counters
            counters.broadcast_frames_received += 1
            if not more_data:
                client._radio_listening = False
                if not client._conservative_listen:
                    ended.append(client._radio_slot)
            if port is not None and client.sockets.delivers_broadcast_on(port):
                counters.useful_frames_received += 1
                counters.frames_delivered_to_apps += 1
            else:
                counters.useless_frames_received += 1
            if state is active:
                client.wakelock.acquire()
                if more_data and not client._conservative_listen:
                    joiners.append(client._radio_slot)
            else:
                client.power.when_active(client.wakelock.acquire)
        radios.finish_broadcast(more_data, joiners if more_data else ended)

    def join_lease(
        self, lease, deadline: Optional[float] = None
    ) -> Optional[Tuple[float, int]]:
        """Enter the radio array's listener lease; returns the expiry key.

        The station is ACTIVE, holds its wakelock and listens to a
        burst: until ``lease`` settles, it books this station's
        broadcast frames and lends the wakelock's renewals.  With
        ``deadline``, it joins only if its lock expires exactly then
        (else returns None).
        """
        key = self.wakelock.lease_to(lease, deadline)
        if key is not None:
            self.power.lease = lease
        return key

    def leave_lease(
        self, frames: int, useful: int, key: Tuple[float, int], burst_end: bool
    ) -> None:
        """Book what the lease stood in for since :meth:`join_lease`.

        ``frames`` broadcast frames received inline, ``useful`` of them
        on a subscribed port, one wakelock renewal each; ``key`` is the
        expiry after them, and ``burst_end`` says the last one ended
        the burst.
        """
        counters = self.counters
        counters.broadcast_frames_received += frames
        counters.useful_frames_received += useful
        counters.frames_delivered_to_apps += useful
        counters.useless_frames_received += frames - useful
        if burst_end:
            self._radio_listening = False
        self.power.lease = None
        self.wakelock.end_lease(frames, key)

    def _handle_beacon(self, beacon: Beacon) -> None:
        if beacon.bssid != self.bssid:
            return
        self.counters.beacons_received += 1
        if self.config.loss_recovery:
            self._learned_beacon_interval = beacon.beacon_interval_tu * 1024e-6
            self._arm_beacon_watchdog()
        if beacon.tim.is_dtim:
            self.counters.dtims_received += 1
            listening = self._radio_listening or self._conservative_listen
            self._radio_listening = self._should_listen(beacon)
            # A decoded DTIM says exactly what the coming burst holds,
            # so any unknown-state fallback ends here.
            self._conservative_listen = False
            if self._radio_listening != listening:
                self._notify_radio()
        if self.aid is not None and beacon.tim.indicates_unicast_for(self.aid):
            self._wake_for_frame()
            assert self.power is not None
            self.power.when_active(self._send_ps_poll)

    def _should_listen(self, beacon: Beacon) -> bool:
        """Decide whether the radio stays up for the post-DTIM burst."""
        if self.aid is None:
            return False  # not associated yet: nothing buffered is ours
        if self.config.loss_recovery and self._ack_pending:
            # The AP has not confirmed our current port report, so its
            # BTIM may be computed from stale state: listen to the burst
            # rather than trust a bit we cannot rely on.
            return True
        if self.config.policy is ClientPolicy.HIDE and beacon.btim is not None:
            return beacon.btim.indicates_useful_broadcast_for(self.aid)
        # Legacy rule (receive-all, client-side, or a HIDE client under
        # a non-HIDE AP): the single TIM group-traffic bit decides.
        return beacon.tim.group_traffic_buffered

    def _handle_broadcast(self, frame: DataFrame) -> None:
        if not (self._radio_listening or self._conservative_listen):
            self.counters.broadcast_frames_ignored += 1
            if self.aid is not None:
                port = frame.udp_dst_port()
                if port is not None and self.sockets.delivers_broadcast_on(port):
                    # A useful frame aired, the medium delivered it, and
                    # we slept through it — the failure mode HIDE must
                    # never cause. The invariant suite flags any nonzero
                    # count (injected drops never reach this path).
                    self.counters.useful_frames_missed += 1
            return
        self.counters.broadcast_frames_received += 1
        if not frame.more_data:
            self._radio_listening = False
            self._notify_radio()
        port = frame.udp_dst_port()
        useful = port is not None and self.sockets.delivers_broadcast_on(port)
        if useful:
            self.counters.useful_frames_received += 1
        else:
            self.counters.useless_frames_received += 1
        self._process_broadcast(useful)

    def _process_broadcast(self, useful: bool) -> None:
        assert self.power is not None and self.wakelock is not None
        self._wake_for_frame()
        if self.config.policy is ClientPolicy.CLIENT_SIDE and not useful:
            # Driver-level drop: the frame still forced a wake-up, but
            # no τ wakelock is held — the [6] lower bound. The
            # zero-length acquire routes the "suspend now?" decision
            # through the wakelock expiry, so it cannot race ahead of a
            # useful frame delivered in the same batch.
            self.power.when_active(lambda: self.wakelock.acquire(timeout_s=0.0))
            return
        if useful:
            self.counters.frames_delivered_to_apps += 1
        self.power.when_active(self.wakelock.acquire)

    def _wake_for_frame(self) -> None:
        assert self.power is not None
        if self.tracer.enabled:
            state = self.power.state
            if state is PowerState.SUSPENDED or state is PowerState.SUSPENDING:
                self.tracer.event(
                    "wakeup",
                    sim_time=self.now,
                    client=str(self.mac),
                    aid=self.aid,
                    from_state=state.value,
                )
        self.power.request_wake()

    # -- unicast (secondary path) ----------------------------------------

    def _send_ps_poll(self) -> None:
        if self.aid is None:
            return
        poll = PsPoll(aid=self.aid, bssid=self.bssid, transmitter=self.mac)
        self.counters.ps_polls_sent += 1
        self._medium.transmit(
            self, poll, poll.to_bytes(), MANAGEMENT_RATE_BPS
        )

    def _handle_unicast(self, frame: DataFrame) -> None:
        self.counters.unicast_frames_received += 1
        self._wake_for_frame()
        assert self.power is not None and self.wakelock is not None
        self.power.when_active(self.wakelock.acquire)
        if frame.more_data:
            self.power.when_active(self._send_ps_poll)

    # -- derived metrics ---------------------------------------------------

    def suspend_fraction(self, elapsed: Optional[float] = None) -> float:
        """Fraction of time spent in SUSPENDED so far."""
        assert self.power is not None
        total = elapsed if elapsed is not None else self.simulator.now
        if total <= 0:
            return 0.0
        return self.power.time_in_state(PowerState.SUSPENDED) / total
