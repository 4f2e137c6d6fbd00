"""Wire codec: round-trips, strict rejection, boundaries."""

import dataclasses
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FrameDecodeError, FrameEncodeError
from repro.service import wire
from tests.service.wire_oracle import encode_message

MAC = bytes([0x02, 0x00, 0x00, 0x00, 0x00, 0x2A])


class TestRoundTrips:
    def test_port_report(self):
        raw = wire.encode_port_report(3, 1500, MAC, 77, {137, 5353, 1900})
        message = wire.decode_message(raw)
        assert isinstance(message, wire.PortReport)
        assert message.bss == 3
        assert message.aid == 1500
        assert message.mac == MAC
        assert message.seq == 77
        assert message.ports == frozenset({137, 5353, 1900})
        assert message.want_ack is False

    def test_port_report_want_ack_flag(self):
        raw = wire.encode_port_report(0, 1, MAC, 1, {53}, want_ack=True)
        assert wire.decode_message(raw).want_ack is True

    def test_port_report_deduplicates_and_sorts(self):
        raw = wire.encode_port_report(0, 1, MAC, 1, [5353, 137, 5353, 137])
        # Wire bytes carry each port once, in ascending order.
        count = struct.unpack_from(">H", raw, wire.HEADER_BYTES)[0]
        assert count == 2
        ports = struct.unpack_from(">2H", raw, wire.HEADER_BYTES + 2)
        assert list(ports) == [137, 5353]

    def test_keep_alive(self):
        raw = wire.encode_keep_alive(2, 42, MAC, 9, want_ack=True)
        message = wire.decode_message(raw)
        assert isinstance(message, wire.KeepAlive)
        assert (message.bss, message.aid, message.seq) == (2, 42, 9)
        assert message.mac == MAC
        assert message.want_ack is True
        assert len(raw) == wire.HEADER_BYTES

    def test_ack(self):
        raw = wire.encode_ack(1, 7, MAC, 123, wire.ACK_UNKNOWN_CLIENT)
        message = wire.decode_message(raw)
        assert isinstance(message, wire.Ack)
        assert message.status == wire.ACK_UNKNOWN_CLIENT
        assert (message.bss, message.aid, message.seq) == (1, 7, 123)

    def test_encode_message_dispatch(self):
        for message in (
            wire.PortReport(bss=0, aid=1, mac=MAC, seq=2, ports=frozenset({80})),
            wire.KeepAlive(bss=0, aid=1, mac=MAC, seq=3),
            wire.Ack(bss=0, aid=1, mac=MAC, seq=4, status=wire.ACK_REJECTED),
        ):
            assert wire.decode_message(encode_message(message)) == message

    def test_decoded_messages_behave_like_constructed_ones(self):
        built = [
            wire.PortReport(
                bss=3, aid=9, mac=MAC, seq=5, ports=frozenset({137, 5353}),
                want_ack=True,
            ),
            wire.PortReport(bss=0, aid=1, mac=MAC, seq=6, ports=frozenset({80})),
            wire.KeepAlive(bss=3, aid=9, mac=MAC, seq=7, want_ack=True),
            wire.KeepAlive(bss=0, aid=1, mac=MAC, seq=8),
        ]
        for message in built:
            decoded = wire.decode_message(encode_message(message))
            assert type(decoded) is type(message)
            assert decoded == message
            assert hash(decoded) == hash(message)
            assert repr(decoded) == repr(message)
            assert type(decoded.want_ack) is bool
            with pytest.raises(dataclasses.FrozenInstanceError):
                decoded.seq = 99
            with pytest.raises(dataclasses.FrozenInstanceError):
                del decoded.aid
            assert decoded.seq == message.seq

    def test_encode_message_rejects_other_types(self):
        with pytest.raises(FrameEncodeError):
            encode_message("not a message")


class TestRejection:
    def test_empty_datagram(self):
        with pytest.raises(FrameDecodeError):
            wire.decode_message(b"")

    def test_truncated_header(self):
        raw = wire.encode_keep_alive(0, 1, MAC, 1)
        for cut in range(len(raw)):
            with pytest.raises(FrameDecodeError):
                wire.decode_message(raw[:cut])

    def test_truncated_report_body(self):
        raw = wire.encode_port_report(0, 1, MAC, 1, {137, 5353})
        for cut in range(wire.HEADER_BYTES, len(raw)):
            with pytest.raises(FrameDecodeError):
                wire.decode_message(raw[:cut])

    def test_trailing_garbage_rejected(self):
        for raw in (
            wire.encode_port_report(0, 1, MAC, 1, {137}),
            wire.encode_keep_alive(0, 1, MAC, 1),
            wire.encode_ack(0, 1, MAC, 1),
        ):
            with pytest.raises(FrameDecodeError):
                wire.decode_message(raw + b"\x00")

    def test_bad_magic(self):
        raw = bytearray(wire.encode_keep_alive(0, 1, MAC, 1))
        raw[:2] = b"XX"
        with pytest.raises(FrameDecodeError):
            wire.decode_message(bytes(raw))

    def test_bad_version(self):
        raw = bytearray(wire.encode_keep_alive(0, 1, MAC, 1))
        raw[2] = 99
        with pytest.raises(FrameDecodeError):
            wire.decode_message(bytes(raw))

    def test_unknown_message_type(self):
        raw = bytearray(wire.encode_keep_alive(0, 1, MAC, 1))
        raw[3] = 9
        with pytest.raises(FrameDecodeError):
            wire.decode_message(bytes(raw))

    def test_random_garbage(self):
        import random

        rng = random.Random(7)
        for length in (1, 5, 17, 18, 19, 64, 1500):
            blob = bytes(rng.randrange(256) for _ in range(length))
            if blob[:2] == wire.WIRE_MAGIC:  # pragma: no cover - 1/65536
                continue
            with pytest.raises(FrameDecodeError):
                wire.decode_message(blob)

    def test_zero_port_in_report_rejected(self):
        raw = bytearray(wire.encode_port_report(0, 1, MAC, 1, {137}))
        raw[-2:] = b"\x00\x00"
        with pytest.raises(FrameDecodeError):
            wire.decode_message(bytes(raw))

    def test_zero_port_count_rejected(self):
        raw = bytearray(wire.encode_port_report(0, 1, MAC, 1, {137}))
        header_plus_count = raw[: wire.HEADER_BYTES] + b"\x00\x00"
        with pytest.raises(FrameDecodeError):
            wire.decode_message(bytes(header_plus_count))

    def test_report_length_mismatch_rejected(self):
        # Count says 3, body carries 1 port.
        raw = bytearray(wire.encode_port_report(0, 1, MAC, 1, {137}))
        struct.pack_into(">H", raw, wire.HEADER_BYTES, 3)
        with pytest.raises(FrameDecodeError):
            wire.decode_message(bytes(raw))


class TestBoundaries:
    def test_max_ports_round_trips(self):
        ports = set(range(1, wire.MAX_PORTS_PER_REPORT + 1))
        message = wire.decode_message(
            wire.encode_port_report(0, 1, MAC, 1, ports)
        )
        assert message.ports == frozenset(ports)

    def test_one_over_max_rejected_at_encode(self):
        ports = set(range(1, wire.MAX_PORTS_PER_REPORT + 2))
        with pytest.raises(FrameEncodeError):
            wire.encode_port_report(0, 1, MAC, 1, ports)

    def test_over_max_count_rejected_at_decode(self):
        ports = list(range(1, wire.MAX_PORTS_PER_REPORT + 2))
        body = struct.pack(f">H{len(ports)}H", len(ports), *ports)
        raw = wire.encode_keep_alive(0, 1, MAC, 1)  # borrow a header
        raw = bytearray(raw + body)
        raw[3] = wire.MSG_PORT_REPORT
        with pytest.raises(FrameDecodeError):
            wire.decode_message(bytes(raw))

    def test_empty_report_rejected_at_encode(self):
        with pytest.raises(FrameEncodeError):
            wire.encode_port_report(0, 1, MAC, 1, set())

    def test_port_zero_rejected_at_encode(self):
        with pytest.raises(FrameEncodeError):
            wire.encode_port_report(0, 1, MAC, 1, {0})

    def test_identity_bounds(self):
        with pytest.raises(FrameEncodeError):
            wire.encode_keep_alive(256, 1, MAC, 1)
        with pytest.raises(FrameEncodeError):
            wire.encode_keep_alive(0, 0x10000, MAC, 1)
        with pytest.raises(FrameEncodeError):
            wire.encode_keep_alive(0, 1, MAC[:5], 1)
        with pytest.raises(FrameEncodeError):
            wire.encode_keep_alive(0, 1, MAC, 2**32)
        with pytest.raises(FrameEncodeError):
            wire.encode_ack(0, 1, MAC, 1, status=256)


# -- hostile input ----------------------------------------------------------

_identity = dict(
    bss=st.integers(min_value=0, max_value=0xFF),
    aid=st.integers(min_value=0, max_value=0xFFFF),
    mac=st.binary(min_size=6, max_size=6),
    seq=st.integers(min_value=0, max_value=2**32 - 1),
)
valid_frames = st.one_of(
    st.builds(
        wire.encode_port_report,
        ports=st.sets(
            st.integers(min_value=1, max_value=0xFFFF),
            min_size=1,
            max_size=wire.MAX_PORTS_PER_REPORT,
        ),
        want_ack=st.booleans(),
        **_identity,
    ),
    st.builds(wire.encode_keep_alive, want_ack=st.booleans(), **_identity),
    st.builds(
        wire.encode_ack, status=st.integers(min_value=0, max_value=0xFF), **_identity
    ),
)


@st.composite
def mutated_frames(draw):
    """A valid frame with byte flips, then maybe truncated or extended."""
    raw = bytearray(draw(valid_frames))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        index = draw(st.integers(min_value=0, max_value=len(raw) - 1))
        raw[index] ^= draw(st.integers(min_value=1, max_value=0xFF))
    tail = draw(st.sampled_from(["keep", "truncate", "append"]))
    if tail == "truncate":
        # Cuts at the header/body seam are the interesting ones.
        seam = [wire.HEADER_BYTES - 1, wire.HEADER_BYTES, wire.HEADER_BYTES + 1]
        cut = draw(
            st.one_of(
                st.integers(min_value=0, max_value=len(raw) - 1),
                st.sampled_from([i for i in seam if i < len(raw)]),
            )
        )
        del raw[cut:]
    elif tail == "append":
        raw += draw(st.binary(min_size=1, max_size=8))
    return bytes(raw)


#: Arbitrary bytes behind a valid magic, version and (mostly) type, so
#: the flags, count and body checks see hostile input too.
v1_prefixed = st.builds(
    lambda msg_type, tail: (
        wire.WIRE_MAGIC + bytes([wire.WIRE_VERSION, msg_type]) + tail
    ),
    st.sampled_from(
        [wire.MSG_PORT_REPORT, wire.MSG_KEEP_ALIVE, wire.MSG_ACK, 0, 0xFF]
    ),
    st.binary(max_size=64),
)


#: Byte offset of the flags field (after magic, version and type).
_FLAGS_OFFSET = 4


def assert_defined_outcome(data: bytes) -> None:
    """Decode yields a message or ``FrameDecodeError``; any other
    exception escapes and fails the test. A decoded message survives a
    re-encode."""
    try:
        message = wire.decode_message(data)
    except FrameDecodeError:
        return
    # Not a byte round-trip: a report's ports re-encode sorted and
    # deduplicated.
    assert wire.decode_message(encode_message(message)) == message


class TestHostileInput:
    @given(st.binary(max_size=128))
    @settings(max_examples=300)
    def test_arbitrary_bytes(self, data):
        assert_defined_outcome(data)

    @given(v1_prefixed)
    @settings(max_examples=300)
    def test_arbitrary_bytes_behind_a_v1_header(self, data):
        assert_defined_outcome(data)

    @given(mutated_frames())
    @settings(max_examples=400)
    def test_mutated_valid_frames(self, data):
        assert_defined_outcome(data)

    @given(valid_frames, st.integers(min_value=0x02, max_value=0xFF))
    @settings(max_examples=300)
    def test_reserved_flag_bits_rejected(self, frame, reserved):
        """Any header with a flag bit other than want_ack is refused,
        whatever the type, the want_ack bit or the body."""
        raw = bytearray(frame)
        raw[_FLAGS_OFFSET] |= reserved & ~wire.FLAG_WANT_ACK
        with pytest.raises(FrameDecodeError, match="reserved flag"):
            wire.decode_message(bytes(raw))
