"""BroadcastFrameRecord as a slotted value: immutable, picklable, and
equal, hashed and printed by its fields."""

import copy
import dataclasses
import pickle

import pytest

from repro.traces.frame_record import BroadcastFrameRecord
from repro.units import mbps


def record(**changes):
    fields = dict(
        time=1.5,
        udp_port=5353,
        length_bytes=120,
        rate_bps=mbps(2),
        more_data=True,
        offered_time=1.25,
    )
    fields.update(changes)
    return BroadcastFrameRecord(**fields)


class TestImmutable:
    @pytest.mark.parametrize(
        "field",
        ["time", "udp_port", "length_bytes", "rate_bps", "more_data", "offered_time"],
    )
    def test_assignment_rejected(self, field):
        frame = record()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(frame, field, 2)
        with pytest.raises(AttributeError):
            delattr(frame, field)
        assert frame == record()

    def test_no_new_attributes(self):
        frame = record()
        with pytest.raises(AttributeError):
            frame.extra = 1
        assert not hasattr(frame, "__dict__")


class TestValue:
    def test_equality_and_hash_follow_fields(self):
        assert record() == record()
        assert hash(record()) == hash(record())
        assert record() != record(more_data=False)
        assert record() != record(offered_time=None)
        assert len({record(), record(), record(udp_port=137)}) == 2

    def test_not_equal_to_other_types(self):
        frame = record()
        fields = (1.5, 5353, 120, mbps(2), True, 1.25)
        assert frame != fields
        assert frame.__eq__(fields) is NotImplemented

    def test_repr_lists_fields(self):
        assert repr(record(offered_time=None)) == (
            "BroadcastFrameRecord(time=1.5, udp_port=5353, length_bytes=120, "
            "rate_bps=2000000.0, more_data=True, offered_time=None)"
        )

    def test_positional_and_default_construction(self):
        frame = BroadcastFrameRecord(2.0, 137, 60, mbps(1))
        assert frame == BroadcastFrameRecord(
            time=2.0, udp_port=137, length_bytes=60, rate_bps=mbps(1),
            more_data=False, offered_time=None,
        )

    def test_shifted_is_a_new_equal_valued_record(self):
        frame = record()
        assert frame.shifted(0.0) == frame
        assert frame.shifted(0.0) is not frame
        assert frame.shifted(1.0) == record(time=2.5, offered_time=2.25)


class TestRoundTrip:
    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    @pytest.mark.parametrize("offered", [None, 1.25])
    def test_pickle(self, protocol, offered):
        frame = record(offered_time=offered)
        clone = pickle.loads(pickle.dumps(frame, protocol=protocol))
        assert type(clone) is BroadcastFrameRecord
        assert clone == frame
        assert hash(clone) == hash(frame)

    @pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy])
    def test_copy(self, copier):
        frame = record()
        clone = copier(frame)
        assert clone == frame
        assert hash(clone) == hash(frame)
        with pytest.raises(dataclasses.FrozenInstanceError):
            clone.time = 0.0


class TestValidation:
    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"time": -0.1}, "non-negative"),
            ({"udp_port": 0}, "UDP port"),
            ({"udp_port": 0x10000}, "UDP port"),
            ({"length_bytes": 0}, "length"),
            ({"rate_bps": 0.0}, "rate"),
            ({"offered_time": 1.75}, "before it was offered"),
        ],
    )
    def test_value_errors(self, changes, message):
        with pytest.raises(ValueError, match=message):
            record(**changes)
