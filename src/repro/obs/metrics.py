"""Zero-dependency metrics primitives: Counter and Gauge.

A :class:`MetricsRegistry` owns named metric families; each family holds
one series per distinct label set. Every run, test or command that
exports metrics constructs its own registry; there is no process-global
one.

The simulator's hot paths never talk to a registry directly — entities
keep their existing plain-attribute counters and the
:mod:`repro.obs.collectors` module *pulls* them into a registry on
demand (the Prometheus collector model), so a disabled observability
stack costs the hot path nothing.

Distributions (ledger delays, service latencies) are not registry
series: they live in :class:`repro.obs.hdr.HdrHistogram`.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

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


class Metric:
    """Base class: a name, optional help text, a fixed label set, and
    the series' current value.

    Names must match the Prometheus grammar ``[a-zA-Z_:][a-zA-Z0-9_:]*``
    and label names ``[a-zA-Z_][a-zA-Z0-9_]*`` — enforced here, at
    creation time, so the exporters can never emit an unscrapable line.

    A fleet run holds tens of thousands of series, so each one is four
    slots: the name (shared with its family), the help text, the sorted
    label pairs (the same tuple that keys it in its family) and the
    value.
    """

    __slots__ = ("name", "help", "label_items", "_value")
    kind = "untyped"

    def __init__(self, name: str, help: str = "", labels: Optional[Dict[str, str]] = None):
        _check_name(name)
        label_items = _label_key(labels)
        _check_label_names(name, label_items)
        self._fill(name, help, label_items)

    @classmethod
    def _checked(cls, name: str, help: str, label_items: LabelItems) -> "Metric":
        """A series whose name and label names the caller already checked."""
        metric = cls.__new__(cls)
        metric._fill(name, help, label_items)
        return metric

    def _fill(self, name: str, help: str, label_items: LabelItems) -> None:
        self.name = name
        self.help = help
        self.label_items = label_items
        self._value = 0.0

    @property
    def labels(self) -> Dict[str, str]:
        """The label set as a fresh dict."""
        return dict(self.label_items)

    @property
    def series_id(self) -> str:
        """The canonical ``name{labels}`` key for this series."""
        return self.name + format_labels(self.label_items)

    @property
    def value(self) -> float:
        return self._value


class Counter(Metric):
    """A monotonically increasing value (events, frames, joules)."""

    __slots__ = ()
    kind = "counter"

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; got inc({amount})")
        self._value += amount

    def set_total(self, value: float) -> None:
        """Overwrite with an externally accumulated total.

        For pull-collectors that mirror a component's own lifetime
        counter (e.g. ``Simulator.events_processed``); the component
        guarantees monotonicity, so re-collection just refreshes.
        """
        if value < 0:
            raise ValueError(f"counter total must be non-negative: {value}")
        self._value = float(value)


class Gauge(Metric):
    """A value that can go up and down (queue depth, table size)."""

    __slots__ = ()
    kind = "gauge"

    def set(self, value: float) -> None:
        self._value = float(value)


class _Family:
    """One metric name: its type, latest help text and series by label set."""

    __slots__ = ("name", "cls", "help", "series")

    def __init__(self, name: str, cls) -> None:
        self.name = name
        self.cls = cls
        self.help = ""
        self.series: Dict[LabelItems, Metric] = {}


class MetricsRegistry:
    """Named metric families, each holding one series per label set.

    ``counter``/``gauge`` are get-or-create: repeated calls with the
    same name and labels return the same object, so call sites never
    need to cache metric handles. Asking for an existing
    name with a different metric type is an error.
    """

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}

    def _get_or_create(self, cls, name: str, help: str, labels) -> Metric:
        family = self._families.get(name)
        if family is None:
            _check_name(name)
            family = self._families[name] = _Family(name, cls)
        elif family.cls is not cls:
            raise ValueError(
                f"metric {name!r} already registered as {family.cls.kind}, "
                f"requested {cls.kind}"
            )
        key = _label_key(labels)
        metric = family.series.get(key)
        if metric is None:
            _check_label_names(name, key)
            metric = cls._checked(family.name, help or family.help, key)
            family.series[key] = metric
            if help:
                family.help = help
        return metric

    def counter(
        self, name: str, help: str = "", labels: Optional[Dict[str, str]] = None
    ) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(
        self, name: str, help: str = "", labels: Optional[Dict[str, str]] = None
    ) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)

    def collect(self) -> Iterator[Metric]:
        """All series, grouped by family, label sets in sorted order."""
        for name in sorted(self._families):
            series = self._families[name].series
            for key in sorted(series):
                yield series[key]

    def get(self, name: str, labels: Optional[Dict[str, str]] = None) -> Optional[Metric]:
        family = self._families.get(name)
        return None if family is None else family.series.get(_label_key(labels))

    def __len__(self) -> int:
        return sum(len(family.series) for family in self._families.values())

    def __contains__(self, name: str) -> bool:
        return name in self._families

    def entries(self) -> Iterator[Dict[str, object]]:
        """The snapshot rows, one JSON-friendly dict per series, in
        :meth:`collect` order."""
        for metric in self.collect():
            yield {
                "name": metric.name,
                "kind": metric.kind,
                "labels": dict(metric.label_items),
                "value": metric.value,
            }

    def snapshot(self) -> List[Dict[str, object]]:
        """A JSON-friendly dump of every series' current value."""
        return list(self.entries())
