"""Trace persistence: JSON-lines (lossless) and CSV (interchange)."""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Union

from repro.errors import TraceFormatError
from repro.traces.frame_record import BroadcastFrameRecord
from repro.traces.trace import BroadcastTrace

_FORMAT_VERSION = 1


def save_trace_jsonl(trace: BroadcastTrace, path: Union[str, Path]) -> None:
    """Write a trace as a header line plus one JSON object per frame."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        header = {
            "format": "repro-broadcast-trace",
            "version": _FORMAT_VERSION,
            "name": trace.name,
            "duration_s": trace.duration_s,
            "frames": len(trace),
        }
        handle.write(json.dumps(header) + "\n")
        for record in trace:
            row = {
                "t": record.time,
                "port": record.udp_port,
                "len": record.length_bytes,
                "rate": record.rate_bps,
                "more": record.more_data,
            }
            if record.offered_time is not None:
                row["offered"] = record.offered_time
            handle.write(json.dumps(row) + "\n")


def load_trace_jsonl(path: Union[str, Path]) -> BroadcastTrace:
    """Inverse of :func:`save_trace_jsonl`, with format validation.

    Any malformed file raises :class:`TraceFormatError` naming the path
    (and the line, for a bad record).
    """
    path = Path(path)
    with path.open("rb") as handle:
        header_line = handle.readline()
        if not header_line:
            raise TraceFormatError(f"{path} is empty")
        try:
            header = json.loads(header_line.decode("utf-8"))
        except ValueError as exc:
            raise TraceFormatError(f"{path}: malformed header") from exc
        if not isinstance(header, dict):
            raise TraceFormatError(f"{path}: header is not a JSON object")
        if header.get("format") != "repro-broadcast-trace":
            raise TraceFormatError(f"{path}: not a broadcast trace file")
        if header.get("version") != _FORMAT_VERSION:
            raise TraceFormatError(
                f"{path}: unsupported version {header.get('version')}"
            )
        name, duration_s = header.get("name"), header.get("duration_s")
        if not isinstance(name, str) or not isinstance(duration_s, (int, float)):
            raise TraceFormatError(
                f"{path}: header needs a string name and a numeric duration_s"
            )
        records = []
        for line_number, line in enumerate(handle, start=2):
            if not line.strip():
                continue
            try:
                row = json.loads(line.decode("utf-8"))
                records.append(
                    BroadcastFrameRecord(
                        time=row["t"],
                        udp_port=row["port"],
                        length_bytes=row["len"],
                        rate_bps=row["rate"],
                        more_data=row.get("more", False),
                        offered_time=row.get("offered"),
                    )
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise TraceFormatError(f"{path}:{line_number}: bad record") from exc
    declared = header.get("frames")
    if declared is not None and declared != len(records):
        raise TraceFormatError(
            f"{path}: header declares {declared} frames, found {len(records)}"
        )
    return BroadcastTrace(name=name, duration_s=duration_s, records=tuple(records))


def trace_to_csv(trace: BroadcastTrace, path: Union[str, Path]) -> None:
    """Export to CSV for external tooling (spreadsheets, pandas)."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["time_s", "udp_port", "length_bytes", "rate_bps", "more_data", "offered_time_s"]
        )
        for record in trace:
            writer.writerow(
                [
                    f"{record.time:.6f}",
                    record.udp_port,
                    record.length_bytes,
                    f"{record.rate_bps:.0f}",
                    int(record.more_data),
                    "" if record.offered_time is None else f"{record.offered_time:.6f}",
                ]
            )
