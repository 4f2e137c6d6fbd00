"""Turn a registry's contents into something a human or scraper reads.

Three formats, matching the three consumers this repo has:

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
from typing import IO, Iterator, List, Optional, Union

from repro.obs.metrics import MetricsRegistry, format_labels
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


def _prometheus_lines(registry: MetricsRegistry) -> Iterator[str]:
    family = None
    for metric in registry.collect():
        if metric.name != family:
            family = metric.name
            if metric.help:
                yield f"# HELP {family} {_escape_help_text(metric.help)}\n"
            yield f"# TYPE {family} {metric.kind}\n"
        labels = format_labels(metric.label_items)
        yield f"{metric.name}{labels} {_format_value(metric.value)}\n"


def _jsonl_lines(registry: MetricsRegistry) -> Iterator[str]:
    for entry in registry.entries():
        yield json.dumps(entry) + "\n"


def render_prometheus(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format (version 0.0.4)."""
    return "".join(_prometheus_lines(registry))


def render_metrics_jsonl(registry: MetricsRegistry) -> str:
    """One JSON object per series (the ``entries()`` rows); zero series
    is an empty string, not one blank line."""
    return "".join(_jsonl_lines(registry))


def render_metrics_table(
    registry: MetricsRegistry, title: Optional[str] = "Metrics"
) -> str:
    """A human summary: one row per series."""
    rows: List[List[str]] = []
    for metric in registry.collect():
        labels = ",".join(f"{k}={v}" for k, v in metric.label_items)
        rows.append([metric.name, labels, metric.kind, f"{metric.value:.6g}"])
    if not rows:
        return f"{title}: (no metrics recorded)" if title else "(no metrics recorded)"
    return render_table(["metric", "labels", "kind", "value"], rows, title=title)


def write_metrics(
    registry: MetricsRegistry,
    destination: Union[str, IO[str]],
    format: str = "prometheus",
) -> None:
    """Write the registry to a path or stream in the chosen format.

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
    lines = line_sources[format](registry)
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
