"""Zero-dependency metric rows: one :class:`Row` per series.

Every exported series — end-of-run, live scrape or file export — is a
:class:`Row`: name, kind (``counter`` or ``gauge``), help text, sorted
label pairs and value. Producers are plain functions that read their
component's own counters and return rows when asked (the Prometheus
pull-collector model); nothing keeps metric objects between reads, so
a disabled observability stack costs the hot path nothing. The
exporters render rows in the order they are given; a live
``/metrics`` page sorts them by (name, labels) first.

Distributions (ledger delays, service latencies) are not series: they
live in :class:`repro.obs.hdr.HdrHistogram`.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, NamedTuple, Optional, Tuple

#: Prometheus metric-name grammar (exposition format, version 0.0.4).
METRIC_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*\Z")
#: Prometheus label-name grammar (no leading digit, no colons).
LABEL_NAME_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*\Z")

LabelItems = Tuple[Tuple[str, str], ...]


def _label_key(labels: Optional[Dict[str, str]]) -> LabelItems:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _check_name(name: str) -> None:
    if not isinstance(name, str) or METRIC_NAME_RE.fullmatch(name) is None:
        raise ValueError(
            f"invalid metric name {name!r}: must match [a-zA-Z_:][a-zA-Z0-9_:]*"
        )


def _check_label_names(name: str, label_items: LabelItems) -> None:
    for label_name, _ in label_items:
        if LABEL_NAME_RE.fullmatch(label_name) is None:
            raise ValueError(
                f"invalid label name {label_name!r} on metric {name!r}: "
                "must match [a-zA-Z_][a-zA-Z0-9_]*"
            )


def escape_label_value(value: str) -> str:
    """Escape a label value for the exposition format / series keys."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def format_labels(label_items: Iterable[Tuple[str, str]]) -> str:
    """``{k="v",...}`` for label pairs already in sorted order ("" if none)."""
    inner = ",".join(f'{k}="{escape_label_value(v)}"' for k, v in label_items)
    return f"{{{inner}}}" if inner else ""


def series_key(name: str, labels: Optional[Dict[str, str]] = None) -> str:
    """Canonical ``name{k="v",...}`` identity for one series.

    Labels are sorted and values escaped, so the key matches the line
    the Prometheus exporter emits for the same series — which is what
    lets :mod:`repro.obs.diff` line up ``.prom``, snapshot-JSONL, and
    timeseries files against each other.
    """
    if not labels:
        return name
    return name + format_labels(sorted(labels.items()))


class Row(NamedTuple):
    """One series: what the exporters render and the fingerprint hashes."""

    name: str
    kind: str
    help: str
    label_items: LabelItems
    value: float


def counter_row(
    name: str, help: str, value: float, labels: Optional[Dict[str, str]] = None
) -> Row:
    """A counter series mirroring a component's own running total."""
    if value < 0:
        raise ValueError(f"counter total must be non-negative: {value}")
    return Row(name, "counter", help, _label_key(labels), float(value))


def gauge_row(
    name: str, help: str, value: float, labels: Optional[Dict[str, str]] = None
) -> Row:
    """A gauge series: a value that can go up and down."""
    return Row(name, "gauge", help, _label_key(labels), float(value))


def row_entry(row: Row) -> Dict[str, object]:
    """A row as its JSON-friendly snapshot dict."""
    return {
        "name": row.name,
        "kind": row.kind,
        "labels": dict(row.label_items),
        "value": row.value,
    }
