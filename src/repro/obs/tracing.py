"""Structured event tracing: JSONL spans and point events.

Two tracer implementations share one interface:

* :class:`JsonlTracer` — writes one JSON object per line, stamped with
  wall time (``perf_counter``-based, relative to tracer creation) and,
  when the caller provides it, simulation time.
* :data:`NULL_TRACER` — the default everywhere; every method is a no-op
  and ``enabled`` is False, so instrumented hot paths pay exactly one
  attribute check (``if tracer.enabled:``) when tracing is off.

Record shapes::

    {"type": "event", "name": "wakeup", "wall_time": 0.0123,
     "sim_time": 4.1, ...fields}
    {"type": "span", "name": "dtim_cycle", "wall_time": 0.0123,
     "sim_time": 4.1, "wall_duration_s": 0.0007, ...fields}

``wall_time`` is the record's start offset in seconds since the tracer
was created; ``sim_time`` is whatever clock the instrumented component
passed (omitted when None).
"""

from __future__ import annotations

import io
import json
import time
from typing import Any, Dict, IO, List, Optional, Union


class NullSpan:
    """The span returned by the null tracer: absorbs everything."""

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def add(self, **fields: Any) -> None:
        return None


_NULL_SPAN = NullSpan()


class NullTracer:
    """A tracer that does nothing, as cheaply as possible."""

    __slots__ = ()
    enabled = False

    def event(self, name: str, sim_time: Optional[float] = None, **fields: Any) -> None:
        return None

    def span(self, name: str, sim_time: Optional[float] = None, **fields: Any) -> NullSpan:
        return _NULL_SPAN

    def span_record(
        self,
        name: str,
        wall_duration_s: float,
        sim_time: Optional[float] = None,
        **fields: Any,
    ) -> None:
        return None

    def flush(self) -> None:
        return None

    def close(self) -> None:
        return None


NULL_TRACER = NullTracer()


class Span:
    """A context manager timing one operation for a live tracer."""

    __slots__ = ("_tracer", "_name", "_sim_time", "_fields", "_start")

    def __init__(
        self,
        tracer: "JsonlTracer",
        name: str,
        sim_time: Optional[float],
        fields: Dict[str, Any],
    ) -> None:
        self._tracer = tracer
        self._name = name
        self._sim_time = sim_time
        self._fields = fields
        self._start = 0.0

    def add(self, **fields: Any) -> None:
        """Attach fields discovered mid-span (e.g. a result count)."""
        self._fields.update(fields)

    def __enter__(self) -> "Span":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        duration = time.perf_counter() - self._start
        if exc_type is not None:
            self._fields.setdefault("error", exc_type.__name__)
        self._tracer.span_record(
            self._name, duration, sim_time=self._sim_time,
            _wall_time=self._start - self._tracer._epoch, **self._fields
        )


class JsonlTracer:
    """Writes events and spans as JSON Lines to a path or stream."""

    enabled = True

    def __init__(self, sink: Union[str, IO[str]]) -> None:
        if isinstance(sink, (str, bytes)):
            self._stream: IO[str] = open(sink, "w", encoding="utf-8")
            self._owns_stream = True
        else:
            self._stream = sink
            self._owns_stream = False
        self._epoch = time.perf_counter()
        self.records_written = 0

    # -- emit ---------------------------------------------------------

    def _write(self, record: Dict[str, Any]) -> None:
        self._stream.write(json.dumps(record, default=_jsonify) + "\n")
        self.records_written += 1

    def event(self, name: str, sim_time: Optional[float] = None, **fields: Any) -> None:
        record: Dict[str, Any] = {
            "type": "event",
            "name": name,
            "wall_time": time.perf_counter() - self._epoch,
        }
        if sim_time is not None:
            record["sim_time"] = sim_time
        record.update(fields)
        self._write(record)

    def span(self, name: str, sim_time: Optional[float] = None, **fields: Any) -> Span:
        """``with tracer.span("dtim_cycle", sim_time=now) as s: ...``"""
        return Span(self, name, sim_time, dict(fields))

    def span_record(
        self,
        name: str,
        wall_duration_s: float,
        sim_time: Optional[float] = None,
        **fields: Any,
    ) -> None:
        """Emit a completed span directly (caller already timed it)."""
        wall_time = fields.pop("_wall_time", None)
        record: Dict[str, Any] = {
            "type": "span",
            "name": name,
            "wall_time": (
                wall_time if wall_time is not None
                else time.perf_counter() - self._epoch - wall_duration_s
            ),
        }
        if sim_time is not None:
            record["sim_time"] = sim_time
        record["wall_duration_s"] = wall_duration_s
        record.update(fields)
        self._write(record)

    # -- lifecycle ----------------------------------------------------

    def flush(self) -> None:
        self._stream.flush()

    def close(self) -> None:
        if self._owns_stream and not self._stream.closed:
            self._stream.close()
        else:
            self.flush()

    def __enter__(self) -> "JsonlTracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _jsonify(value: Any) -> Any:
    """Last-resort encoder: frozensets become sorted lists, objects str."""
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    return str(value)


def read_trace_jsonl(source: Union[str, IO[str]]) -> List[Dict[str, Any]]:
    """Load every record from a JSONL trace log (blank lines skipped)."""
    records, _ = read_trace_jsonl_lenient(source, strict=True)
    return records


def read_trace_jsonl_lenient(
    source: Union[str, IO[str]], strict: bool = False
) -> "tuple[List[Dict[str, Any]], int]":
    """Load a JSONL trace, tolerating malformed lines.

    Returns ``(records, skipped)`` where ``skipped`` counts lines that
    were not valid JSON objects — typically a truncated final line from
    a run that was killed mid-write, or a line that is not UTF-8. With
    ``strict=True`` the first bad line raises instead (the legacy
    behaviour behind :func:`read_trace_jsonl`).
    """
    if isinstance(source, (str, bytes)):
        # Binary, so one undecodable line is skipped on its own instead of
        # aborting the whole read.
        with open(source, "rb") as stream:
            return _read_records(stream, strict)
    return _read_records(source, strict)


def _read_records(
    stream: "IO[Any]", strict: bool
) -> "tuple[List[Dict[str, Any]], int]":
    records: List[Dict[str, Any]] = []
    skipped = 0
    for line in stream:
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(
                line.decode("utf-8") if isinstance(line, bytes) else line
            )
        except (json.JSONDecodeError, UnicodeDecodeError):
            if strict:
                raise
            skipped += 1
            continue
        if not isinstance(record, dict):
            if strict:
                raise json.JSONDecodeError("trace record is not an object", line, 0)
            skipped += 1
            continue
        records.append(record)
    return records, skipped


def tracer_to_string_buffer() -> "tuple[JsonlTracer, io.StringIO]":
    """A tracer writing into an in-memory buffer (tests, summaries)."""
    buffer = io.StringIO()
    return JsonlTracer(buffer), buffer
