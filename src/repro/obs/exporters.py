"""Turn metric rows into something a human or scraper reads.

Every renderer takes :class:`~repro.obs.metrics.Row` s and renders
them in the order given: :func:`repro.obs.collectors.metric_rows`
already yields (name, labels) order, and a live ``/metrics`` page sorts
its rows into that order first. A family's HELP and TYPE lines come
from its first row. Three formats, matching the three consumers this
repo has:

* :func:`render_prometheus` — the text exposition format, for anything
  that already speaks Prometheus (or for diffing two runs with grep).
* :func:`render_metrics_jsonl` — one JSON object per series, for
  machine post-processing next to the trace log.
* :func:`render_metrics_table` — an aligned plain-text table through
  the existing :mod:`repro.reporting` renderer, for run reports.
"""

from __future__ import annotations

import json
import math
from typing import IO, Iterable, Iterator, List, Optional, Union

from repro.obs.metrics import format_labels, row_entry
from repro.reporting import render_table


def _escape_help_text(text: str) -> str:
    """HELP lines escape only backslash and line feed (the spec)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _prometheus_lines(rows: Iterable) -> Iterator[str]:
    family = None
    for metric in rows:
        if metric.name != family:
            family = metric.name
            if metric.help:
                yield f"# HELP {family} {_escape_help_text(metric.help)}\n"
            yield f"# TYPE {family} {metric.kind}\n"
        labels = format_labels(metric.label_items)
        yield f"{metric.name}{labels} {_format_value(metric.value)}\n"


def _jsonl_lines(rows: Iterable) -> Iterator[str]:
    for row in rows:
        yield json.dumps(row_entry(row)) + "\n"


def render_prometheus(rows: Iterable) -> str:
    """The rows in Prometheus text exposition format (version 0.0.4)."""
    return "".join(_prometheus_lines(rows))


def render_metrics_jsonl(rows: Iterable) -> str:
    """One JSON object per series (the ``entries()`` rows); zero series
    is an empty string, not one blank line."""
    return "".join(_jsonl_lines(rows))


def render_metrics_table(rows: Iterable, title: Optional[str] = "Metrics") -> str:
    """A human summary: one row per series."""
    table: List[List[str]] = []
    for metric in rows:
        labels = ",".join(f"{k}={v}" for k, v in metric.label_items)
        table.append([metric.name, labels, metric.kind, f"{metric.value:.6g}"])
    if not table:
        return f"{title}: (no metrics recorded)" if title else "(no metrics recorded)"
    return render_table(["metric", "labels", "kind", "value"], table, title=title)


def write_metrics(
    rows: Iterable,
    destination: Union[str, IO[str]],
    format: str = "prometheus",
) -> None:
    """Write the rows to a path or stream in the chosen format.

    ``format`` may be ``prometheus``, ``jsonl``, or ``table``; when
    ``destination`` is a path the format defaults by extension
    (``.prom``/``.txt`` → prometheus, ``.jsonl``/``.json`` → jsonl).
    Prometheus and JSONL output is written a line at a time.
    """
    line_sources = {
        "prometheus": _prometheus_lines,
        "jsonl": _jsonl_lines,
        "table": lambda r: [render_metrics_table(r) + "\n"],
    }
    if format not in line_sources:
        raise ValueError(f"unknown metrics format: {format!r}")
    lines = line_sources[format](rows)
    if isinstance(destination, (str, bytes)):
        with open(destination, "w", encoding="utf-8") as stream:
            stream.writelines(lines)
    else:
        destination.writelines(lines)


def format_for_path(path: str) -> str:
    """Pick an export format from a file extension (prometheus default)."""
    lowered = path.lower()
    if lowered.endswith((".jsonl", ".json")):
        return "jsonl"
    if lowered.endswith((".tbl", ".tab")):
        return "table"
    return "prometheus"
