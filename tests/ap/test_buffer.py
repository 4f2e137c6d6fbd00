import pytest

from repro.ap.buffer import BroadcastBuffer, UnicastBuffer
from repro.dot11.data import DataFrame
from repro.dot11.mac_address import MacAddress
from repro.net.packet import build_broadcast_udp_packet

BSSID = MacAddress.from_string("02:aa:00:00:00:01")
SRC = MacAddress.from_string("02:bb:00:00:00:99")


def bframe(port=137):
    return DataFrame.broadcast_udp(
        bssid=BSSID, source=SRC, ip_packet=build_broadcast_udp_packet(port, b"x")
    )


def uframe(dest: MacAddress):
    return DataFrame(
        destination=dest, bssid=BSSID, source=SRC,
        llc_payload=bframe().llc_payload,
    )


class TestBroadcastBuffer:
    def test_fifo_order(self):
        buffer = BroadcastBuffer()
        frames = [bframe(100 + i) for i in range(3)]
        for frame in frames:
            buffer.enqueue(frame)
        drained = buffer.drain()
        assert [f.llc_payload for f in drained] == [f.llc_payload for f in frames]

    def test_more_data_bits_on_drain(self):
        buffer = BroadcastBuffer()
        for i in range(3):
            buffer.enqueue(bframe())
        drained = buffer.drain()
        assert [f.more_data for f in drained] == [True, True, False]

    def test_drain_empties(self):
        buffer = BroadcastBuffer()
        buffer.enqueue(bframe())
        buffer.drain()
        assert len(buffer) == 0
        assert buffer.drain() == []

    def test_peek_does_not_consume(self):
        buffer = BroadcastBuffer()
        buffer.enqueue(bframe())
        assert len(buffer.peek_all()) == 1
        assert len(buffer) == 1

    def test_capacity_and_drop_counting(self):
        buffer = BroadcastBuffer(capacity=2)
        assert buffer.enqueue(bframe())
        assert buffer.enqueue(bframe())
        assert not buffer.enqueue(bframe())
        assert buffer.dropped == 1
        assert len(buffer) == 2

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            BroadcastBuffer(capacity=0)

    def test_single_frame_has_no_more_data(self):
        buffer = BroadcastBuffer()
        buffer.enqueue(bframe())
        assert buffer.drain()[0].more_data is False


class TestUnicastBuffer:
    def test_per_client_queues(self):
        buffer = UnicastBuffer()
        a, b = MacAddress.station(1), MacAddress.station(2)
        buffer.enqueue(uframe(a))
        buffer.enqueue(uframe(b))
        assert set(buffer.clients_with_traffic()) == {a, b}

    def test_pop_sets_more_data(self):
        buffer = UnicastBuffer()
        a = MacAddress.station(1)
        buffer.enqueue(uframe(a))
        buffer.enqueue(uframe(a))
        first = buffer.pop_for(a)
        assert first.more_data
        second = buffer.pop_for(a)
        assert not second.more_data
        assert buffer.pop_for(a) is None

    def test_capacity(self):
        buffer = UnicastBuffer(per_client_capacity=1)
        a = MacAddress.station(1)
        assert buffer.enqueue(uframe(a))
        assert not buffer.enqueue(uframe(a))
        assert buffer.dropped == 1

    def test_pop_for_unknown_client(self):
        buffer = UnicastBuffer()
        assert buffer.pop_for(MacAddress.station(7)) is None
