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
from typing import IO, List, Optional, Union

from repro.obs.metrics import MetricsRegistry, escape_label_value
from repro.reporting import render_table


def _escape_help_text(text: str) -> str:
    """HELP lines escape only backslash and line feed (the spec)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_labels(labels) -> str:
    parts = [f'{k}="{escape_label_value(v)}"' for k, v in sorted(labels.items())]
    return "{" + ",".join(parts) + "}" if parts else ""


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


def render_prometheus(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format (version 0.0.4)."""
    lines: List[str] = []
    seen_header = set()
    for metric in registry.collect():
        if metric.name not in seen_header:
            seen_header.add(metric.name)
            if metric.help:
                lines.append(
                    f"# HELP {metric.name} {_escape_help_text(metric.help)}"
                )
            lines.append(f"# TYPE {metric.name} {metric.kind}")
        labels = _format_labels(metric.labels)
        lines.append(f"{metric.name}{labels} {_format_value(metric.value)}")
    return "\n".join(lines) + ("\n" if lines else "")


def render_metrics_jsonl(registry: MetricsRegistry) -> str:
    """One JSON object per series (the ``snapshot()`` rows)."""
    lines = [json.dumps(entry) for entry in registry.snapshot()]
    if not lines:
        return ""  # zero records is an empty file, not one blank line
    return "\n".join(lines) + "\n"


def render_metrics_table(
    registry: MetricsRegistry, title: Optional[str] = "Metrics"
) -> str:
    """A human summary: one row per series."""
    rows: List[List[str]] = []
    for metric in registry.collect():
        labels = ",".join(f"{k}={v}" for k, v in sorted(metric.labels.items()))
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
    """
    renderers = {
        "prometheus": render_prometheus,
        "jsonl": render_metrics_jsonl,
        "table": lambda r: render_metrics_table(r) + "\n",
    }
    if format not in renderers:
        raise ValueError(f"unknown metrics format: {format!r}")
    text = renderers[format](registry)
    if isinstance(destination, (str, bytes)):
        with open(destination, "w", encoding="utf-8") as stream:
            stream.write(text)
    else:
        destination.write(text)


def format_for_path(path: str) -> str:
    """Pick an export format from a file extension (prometheus default)."""
    lowered = path.lower()
    if lowered.endswith((".jsonl", ".json")):
        return "jsonl"
    if lowered.endswith((".tbl", ".tab")):
        return "table"
    return "prometheus"
