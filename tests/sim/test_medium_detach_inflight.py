"""Detach from inside a delivery callback, with frames still in flight.

A crash handler runs *as* a delivery callback: the client detaches from
the medium while the drain loop is mid-batch and later frames are still
sitting in the in-flight heap.  The contract (documented on
:meth:`Medium.detach`) holds for the medium and for the everyone-receives
oracle (``tests/sim/reference_medium.py``) alike:

* the frame whose fan-out is currently being iterated still reaches
  every recipient in its snapshot — including the departing one;
* every *later* frame recomputes recipients and skips it;
* on the medium the slot is settled and freed immediately, and the
  in-flight ``(deliver_at, sequence, transmission)`` tuples are
  never perturbed.
"""

from repro.dot11.data import DataFrame
from repro.dot11.mac_address import MacAddress
from repro.net.packet import build_broadcast_udp_packet
from repro.sim.engine import Simulator
from repro.sim.entity import Entity
from repro.sim.medium import Medium
from repro.station.client import ClientCounters
from repro.units import mbps
from tests.sim.reference_medium import ReferenceMedium

_BSSID = MacAddress(b"\x02\x00\x00\x00\x00\xaa")
_SRC = MacAddress(b"\x02\x00\x00\x00\x00\xbb")


def _mac(last):
    return MacAddress(b"\x02\x00\x00\x00\x00" + bytes([last]))


class FakeClient(Entity):
    """Vector-bindable entity mirroring Client's broadcast semantics.

    Dozing behaviour matches ``Client._handle_broadcast`` exactly
    (ignored + missed-if-useful), so the oracle's per-frame loop and
    the medium's deferred accrual must land on identical counters.
    """

    def __init__(self, name, mac, listening, aid=1, ports=frozenset()):
        super().__init__(name)
        self.mac = mac
        self.listening = listening
        self.aid = aid
        self.ports = ports
        self.counters = ClientCounters()
        self.received = []
        self.on_broadcast = None

    def radio_broadcast_state(self):
        return (self.listening, self.aid, self.ports)

    def bind_radio(self, radios, slot):
        self._radio, self._slot = radios, slot

    def unbind_radio(self):
        self._radio, self._slot = None, -1

    def on_receive(self, transmission):
        frame = transmission.frame
        if not (isinstance(frame, DataFrame) and frame.is_broadcast):
            return
        if not self.listening:
            self.counters.broadcast_frames_ignored += 1
            port = frame.udp_dst_port()
            if self.aid is not None and port is not None and port in self.ports:
                self.counters.useful_frames_missed += 1
            return
        self.counters.broadcast_frames_received += 1
        self.received.append(frame.sequence)
        if self.on_broadcast is not None:
            self.on_broadcast()


def _broadcast(sequence):
    return DataFrame.broadcast_udp(
        _BSSID,
        _SRC,
        build_broadcast_udp_packet(5353, b"announce"),
        sequence=sequence,
    )


def _run(medium_cls):
    sim = Simulator()
    medium = medium_cls(sim)
    sender = Entity("upstream")
    medium.attach(sender)
    v1 = FakeClient("v1", _mac(1), listening=True)
    v2 = FakeClient("v2", _mac(2), listening=True)
    dozer = FakeClient("dozer", _mac(3), listening=False, ports=frozenset({5353}))
    for entity in (v1, v2, dozer):
        medium.attach(entity)

    def crash_v2():
        if medium.is_attached(v2):
            medium.detach(v2)

    # v1 sits *before* v2 in attach order, so the detach fires while
    # the current frame's fan-out snapshot still holds v2.
    v1.on_broadcast = crash_v2
    for sequence in (1, 2):
        frame = _broadcast(sequence)
        medium.transmit(sender, frame, frame.to_bytes(), mbps(1))
    sim.run()
    medium.sync_accounting()
    return medium, v1, v2, dozer


class TestDetachDuringInflightDrain:
    def test_semantics_identical_on_both_backends(self):
        for medium_cls in (ReferenceMedium, Medium):
            medium, v1, v2, dozer = _run(medium_cls)
            # The frame mid-delivery still reached v2; the next one
            # recomputed recipients and skipped it.
            assert v1.received == [1, 2], medium_cls
            assert v2.received == [1], medium_cls
            assert not medium.is_attached(v2)
            # The dozing client accrued both frames (useful on 5353)
            # regardless of the same-tick detach next to it.
            assert dozer.counters.broadcast_frames_ignored == 2, medium_cls
            assert dozer.counters.useful_frames_missed == 2, medium_cls

    def test_vectorized_frees_slot_and_settles_once(self):
        medium, _, v2, dozer = _run(Medium)
        radios = medium.radio_array
        assert v2 not in radios.slot_of
        assert v2.mac not in radios.by_mac
        assert len(radios) == 2  # v1 + dozer keep their slots
        # Settling again after the detach must not re-credit anyone.
        before = (
            dozer.counters.broadcast_frames_ignored,
            dozer.counters.useful_frames_missed,
            v2.counters.broadcast_frames_received,
        )
        medium.sync_accounting()
        after = (
            dozer.counters.broadcast_frames_ignored,
            dozer.counters.useful_frames_missed,
            v2.counters.broadcast_frames_received,
        )
        assert before == after

    def test_detached_slot_is_recycled(self):
        medium, _, v2, _ = _run(Medium)
        radios = medium.radio_array
        late = FakeClient("late", _mac(9), listening=False, ports=frozenset({5353}))
        medium.attach(late)
        assert len(radios) == 3
        assert radios.slot_of[late] is not None
        # The recycled slot baselines at the current epoch: frames that
        # aired before this attach are not owed to the newcomer.
        medium.sync_accounting()
        assert late.counters.broadcast_frames_ignored == 0
        assert late.counters.useful_frames_missed == 0
