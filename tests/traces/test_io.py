import json

import pytest

from repro.errors import TraceFormatError
from repro.traces.frame_record import BroadcastFrameRecord
from repro.traces.io import load_trace_jsonl, save_trace_jsonl, trace_to_csv
from repro.traces.trace import BroadcastTrace
from repro.units import mbps

from tests.conftest import make_trace


@pytest.fixture
def trace():
    records = (
        BroadcastFrameRecord(
            time=0.5, udp_port=5353, length_bytes=180, rate_bps=mbps(1),
            more_data=True, offered_time=0.4,
        ),
        BroadcastFrameRecord(
            time=0.6, udp_port=1900, length_bytes=300, rate_bps=mbps(2),
        ),
    )
    return BroadcastTrace(name="io-test", duration_s=10.0, records=records)


class TestJsonl:
    def test_round_trip(self, trace, tmp_path):
        path = tmp_path / "trace.jsonl"
        save_trace_jsonl(trace, path)
        loaded = load_trace_jsonl(path)
        assert loaded.name == trace.name
        assert loaded.duration_s == trace.duration_s
        assert loaded.records == trace.records

    def test_empty_trace(self, tmp_path):
        trace = make_trace([], duration=5.0)
        path = tmp_path / "empty.jsonl"
        save_trace_jsonl(trace, path)
        assert len(load_trace_jsonl(path)) == 0

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(TraceFormatError):
            load_trace_jsonl(path)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"format": "something-else"}) + "\n")
        with pytest.raises(TraceFormatError):
            load_trace_jsonl(path)

    def test_wrong_version_rejected(self, trace, tmp_path):
        path = tmp_path / "v9.jsonl"
        save_trace_jsonl(trace, path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["version"] = 99
        path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        with pytest.raises(TraceFormatError):
            load_trace_jsonl(path)

    def test_malformed_record_rejected(self, trace, tmp_path):
        path = tmp_path / "bad-record.jsonl"
        save_trace_jsonl(trace, path)
        with path.open("a") as handle:
            handle.write('{"t": 1.0}\n')
        with pytest.raises(TraceFormatError):
            load_trace_jsonl(path)

    def test_frame_count_mismatch_rejected(self, trace, tmp_path):
        path = tmp_path / "count.jsonl"
        save_trace_jsonl(trace, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")  # drop one record
        with pytest.raises(TraceFormatError):
            load_trace_jsonl(path)

    def test_generated_trace_round_trip(self, tmp_path):
        from repro.traces.generators import generate_trace
        from repro.traces.scenarios import ScenarioSpec

        spec = ScenarioSpec("rt", 60.0, 1.0, 10.0, 5.0, 1.0, 11)
        trace = generate_trace(spec)
        path = tmp_path / "gen.jsonl"
        save_trace_jsonl(trace, path)
        assert load_trace_jsonl(path).records == trace.records


GOOD_HEADER = (
    b'{"format": "repro-broadcast-trace", "version": 1, '
    b'"name": "x", "duration_s": 10.0}\n'
)
GOOD_RECORD = b'{"t": 1.0, "port": 5353, "len": 100, "rate": 1000000.0}'

#: One file per way a trace can be malformed, and the line to blame.
MALFORMED = {
    "non-utf8": (GOOD_HEADER + b'{"t": 1.0, "port": 5353\xff\xfe}\n', ":2:"),
    "header-not-object": (b"[1]\n", "header"),
    "header-missing-fields": (
        b'{"format": "repro-broadcast-trace", "version": 1}\n', "header"
    ),
    "record-not-object": (GOOD_HEADER + b"[1, 2]\n", ":2:"),
    "record-wrong-type": (
        GOOD_HEADER
        + GOOD_RECORD
        + b'\n{"t": "a", "port": 5353, "len": 1, "rate": 1.0}\n',
        ":3:",
    ),
    "record-null-port": (
        GOOD_HEADER + b'{"t": 1.0, "port": null, "len": 1, "rate": 1.0}\n', ":2:"
    ),
}


class TestMalformedJsonl:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_raises_trace_format_error_naming_the_file(self, case, tmp_path):
        data, where = MALFORMED[case]
        path = tmp_path / f"{case}.jsonl"
        path.write_bytes(data)
        with pytest.raises(TraceFormatError) as exc:
            load_trace_jsonl(path)
        assert str(path) in str(exc.value)
        assert where in str(exc.value)


class TestCsv:
    def test_export(self, trace, tmp_path):
        path = tmp_path / "trace.csv"
        trace_to_csv(trace, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3  # header + 2 records
        assert lines[0].startswith("time_s,udp_port")
        assert "5353" in lines[1]
        # Missing offered_time renders as empty field.
        assert lines[2].endswith(",")
