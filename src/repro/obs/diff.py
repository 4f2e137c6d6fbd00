"""Compare two runs' exported observability artifacts.

Backs ``repro obs diff A B``: loads each side into a flat
``series-key -> value`` mapping, lines the keys up, and reports
per-metric absolute and relative deltas against configurable
tolerances. A metric passes when its absolute delta is within
``abs_tol`` *or* its relative delta is within ``rel_tol`` (so tiny
counters don't fail on relative noise and huge ones don't fail on
absolute noise); anything beyond both is a regression and makes the
diff fail — CI turns that into a nonzero exit.

Recognized file shapes (detected from content, not extension):

* Prometheus text exposition (a ``--metrics-out run.prom`` export or a
  saved ``/metrics`` scrape) — one entry per sample line.
* Snapshot JSONL (``--metrics-out run.jsonl``) — one entry per row; a
  row without a numeric ``value`` is an error, never silently dropped.
* Timeseries JSON (``--timeseries-out``, schema ``repro-timeseries/v1``)
  — compared at the final window's cumulative values.
* Benchmark JSON (``repro bench``, schema ``repro-bench/v1``) — one
  entry per benchmark value.
* Profile JSON (``repro sim run --profile-out``, schema
  ``repro-profile/v1``) — one entry per site for events and attributed
  wall seconds, plus the run-level totals.
* Ledger JSON (``--ledger-out``, schema ``repro-ledger/v1``) — counts
  plus every histogram's stats, summary quantiles, and cumulative
  per-bucket counts, so two ledgers compare quantile-by-quantile *and*
  bucket-by-bucket.
* Loadgen JSON (``repro loadgen --out``, schema ``repro-loadgen/v1``)
  — achieved counters, per-status ACK counts, and round-trip-latency
  and send-lateness (``loadgen_late_ms_*``) quantiles.
* A bare fingerprint line (``deterministic_fingerprint`` hex) —
  compared for exact equality.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.obs.ledger import flatten_ledger_document
from repro.obs.metrics import METRIC_NAME_RE, series_key
from repro.reporting import render_table

Value = Union[float, str]

_PROM_LINE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{.*\})?\s+(?P<value>\S+)$"
)
_FINGERPRINT_RE = re.compile(r"^[0-9a-f]{40,128}$")


def _flatten_hdr_payload(
    prefix: str,
    payload: Dict[str, object],
    out: Dict[str, "Value"],
    labels: Optional[Dict[str, str]] = None,
) -> None:
    """Flatten one :meth:`HdrHistogram.to_dict` payload into ``out``."""

    def put(stat: str, value: object) -> None:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            name = f"{prefix}_{stat}"
            out[series_key(name, labels) if labels else name] = float(value)

    for stat in ("count", "sum", "mean", "min", "max"):
        put(stat, payload.get(stat))
    for label, value in (payload.get("quantiles") or {}).items():  # type: ignore[union-attr]
        put(str(label), value)


def _parse_prom_value(token: str) -> Optional[float]:
    """A sample value (``float`` reads ``NaN``, ``+Inf`` and ``-Inf``),
    or None when the token is not a number."""
    try:
        return float(token)
    except ValueError:
        return None


def _put_series(out: Dict[str, Value], key: str, value: float) -> None:
    """The one rule both exported-row loaders share: a NaN series is
    left out (NaN never equals itself, so it is useless to diff);
    ±Inf is kept."""
    if not math.isnan(value):
        out[key] = value


def _load_prometheus(text: str) -> Dict[str, Value]:
    out: Dict[str, Value] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _PROM_LINE_RE.match(line)
        value = None if match is None else _parse_prom_value(match.group("value"))
        if value is None:
            raise ValueError(f"unparseable exposition line: {line!r}")
        _put_series(out, match.group("name") + (match.group("labels") or ""), value)
    return out


def _flatten_snapshot_row(row: Dict[str, object], out: Dict[str, Value]) -> None:
    name = str(row.get("name", ""))
    if METRIC_NAME_RE.fullmatch(name) is None:
        raise ValueError(f"snapshot row has no valid metric name: {row!r}")
    labels = {str(k): str(v) for k, v in (row.get("labels") or {}).items()}
    value = row.get("value")
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValueError(f"snapshot row has no numeric value: {row!r}")
    _put_series(out, series_key(name, labels), float(value))


def _load_json_document(doc: object) -> Dict[str, Value]:
    if isinstance(doc, dict):
        schema = doc.get("schema")
        if schema == "repro-bench/v1":
            out: Dict[str, Value] = {}
            for name, entry in sorted(doc.get("benchmarks", {}).items()):
                if isinstance(entry, dict) and isinstance(
                    entry.get("value"), (int, float)
                ):
                    out[str(name)] = float(entry["value"])
                elif isinstance(entry, (int, float)):
                    out[str(name)] = float(entry)
            return out
        if schema == "repro-profile/v1":
            out = {}
            for site in doc.get("sites") or []:
                labels = {
                    "site": f"{site['owner']}.{site['method']}",
                    "kind": str(site.get("kind", "event")),
                }
                out[series_key("repro_profile_site_events_total", labels)] = (
                    float(site.get("events", 0))
                )
                out[series_key("repro_profile_site_wall_seconds_total", labels)] = (
                    float(site.get("wall_s", 0.0))
                )
            for field in (
                "events_total",
                "run_wall_s",
                "attributed_wall_s",
                "scheduler_overhead_s",
            ):
                if isinstance(doc.get(field), (int, float)):
                    out[f"repro_profile_{field}"] = float(doc[field])
            return out
        if schema == "repro-ledger/v1":
            return dict(flatten_ledger_document(doc))
        if schema == "repro-loadgen/v1":
            out = {}
            for key, value in sorted((doc.get("achieved") or {}).items()):
                if key == "acks_by_status" and isinstance(value, dict):
                    for status, count in sorted(value.items()):
                        out[
                            series_key(
                                "loadgen_acks_total", {"status": str(status)}
                            )
                        ] = float(count)
                elif isinstance(value, (int, float)) and not isinstance(value, bool):
                    out[f"loadgen_{key}"] = float(value)
            latency = doc.get("latency") or {}
            for name in ("rtt_ms", "late_ms"):
                payload = latency.get(name)
                if isinstance(payload, dict):
                    _flatten_hdr_payload(f"loadgen_{name}", payload, out)
            for status, payload in sorted(
                (latency.get("rtt_ms_by_status") or {}).items()
            ):
                if isinstance(payload, dict):
                    _flatten_hdr_payload(
                        "loadgen_rtt_ms", payload, out,
                        labels={"status": str(status)},
                    )
            return out
        if schema == "repro-timeseries/v1":
            windows = doc.get("windows") or []
            if not windows:
                return {}
            final = windows[-1].get("values", {})
            return {
                str(k): float(v)
                for k, v in sorted(final.items())
                if isinstance(v, (int, float))
            }
        if "name" in doc and "kind" in doc:
            out = {}
            _flatten_snapshot_row(doc, out)  # a single snapshot row
            return out
        # A plain {"metric": number} mapping.
        flat = {
            str(k): float(v)
            for k, v in sorted(doc.items())
            if isinstance(v, (int, float)) and not isinstance(v, bool)
        }
        if flat:
            return flat
        raise ValueError("JSON document holds no numeric metrics")
    raise ValueError(f"unsupported JSON metrics document: {type(doc).__name__}")


def load_metrics_file(path: str) -> Dict[str, Value]:
    """Load any supported artifact into ``series-key -> value``."""
    with open(path, "r", encoding="utf-8") as stream:
        text = stream.read()
    return parse_metrics_text(text, source=path)


def parse_metrics_text(text: str, source: str = "<string>") -> Dict[str, Value]:
    stripped = text.strip()
    if not stripped:
        return {}
    if _FINGERPRINT_RE.match(stripped):
        return {"deterministic_fingerprint": stripped}
    if stripped.startswith("{") or stripped.startswith("["):
        try:
            return _load_json_document(json.loads(stripped))
        except json.JSONDecodeError:
            pass  # fall through: probably snapshot JSONL, one row per line
        out: Dict[str, Value] = {}
        for line in stripped.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{source}: bad JSONL line: {exc}") from exc
            if not isinstance(row, dict):
                raise ValueError(f"{source}: JSONL line is not an object")
            try:
                _flatten_snapshot_row(row, out)
            except ValueError as exc:
                raise ValueError(f"{source}: {exc}") from exc
        return out
    return _load_prometheus(stripped)


# -- comparison -------------------------------------------------------


@dataclass(frozen=True)
class MetricDelta:
    """One key's comparison across the two sides."""

    key: str
    a: Optional[Value]
    b: Optional[Value]
    abs_delta: Optional[float]
    rel_delta: Optional[float]
    status: str  # "ok" | "regression" | "added" | "removed"


@dataclass(frozen=True)
class DiffResult:
    deltas: Tuple[MetricDelta, ...]
    rel_tol: float
    abs_tol: float

    @property
    def regressions(self) -> Tuple[MetricDelta, ...]:
        return tuple(d for d in self.deltas if d.status == "regression")

    @property
    def added(self) -> Tuple[MetricDelta, ...]:
        return tuple(d for d in self.deltas if d.status == "added")

    @property
    def removed(self) -> Tuple[MetricDelta, ...]:
        return tuple(d for d in self.deltas if d.status == "removed")

    def ok(self, fail_on_missing: bool = False) -> bool:
        if self.regressions:
            return False
        if fail_on_missing and (self.added or self.removed):
            return False
        return True


def diff_metrics(
    a: Dict[str, Value],
    b: Dict[str, Value],
    rel_tol: float = 0.0,
    abs_tol: float = 0.0,
) -> DiffResult:
    """Compare two flat metric mappings under the given tolerances."""
    if rel_tol < 0 or abs_tol < 0:
        raise ValueError("tolerances must be non-negative")
    deltas: List[MetricDelta] = []
    for key in sorted(set(a) | set(b)):
        if key not in a:
            deltas.append(MetricDelta(key, None, b[key], None, None, "added"))
            continue
        if key not in b:
            deltas.append(MetricDelta(key, a[key], None, None, None, "removed"))
            continue
        va, vb = a[key], b[key]
        if isinstance(va, str) or isinstance(vb, str):
            same = str(va) == str(vb)
            deltas.append(
                MetricDelta(
                    key, va, vb,
                    0.0 if same else None,
                    0.0 if same else math.inf,
                    "ok" if same else "regression",
                )
            )
            continue
        if va == vb:  # also +Inf against +Inf, whose difference is NaN
            abs_delta = rel_delta = 0.0
        else:
            abs_delta = vb - va
            rel_delta = math.inf if va == 0 else abs(abs_delta) / abs(va)
        within = abs(abs_delta) <= abs_tol or rel_delta <= rel_tol
        deltas.append(
            MetricDelta(
                key, va, vb, abs_delta, rel_delta,
                "ok" if within else "regression",
            )
        )
    return DiffResult(tuple(deltas), rel_tol, abs_tol)


def filter_ignored(
    metrics: Dict[str, Value], patterns: "Tuple[str, ...]"
) -> Dict[str, Value]:
    """Drop keys matching any of the regex ``patterns`` (search, not match)."""
    if not patterns:
        return metrics
    compiled = [re.compile(p) for p in patterns]
    return {
        key: value
        for key, value in metrics.items()
        if not any(rx.search(key) for rx in compiled)
    }


def diff_files(
    path_a: str,
    path_b: str,
    rel_tol: float = 0.0,
    abs_tol: float = 0.0,
    ignore: "Tuple[str, ...]" = (),
) -> DiffResult:
    """Load and compare two artifacts (see the module doc for formats).

    ``ignore`` holds regex patterns for series to leave out on both
    sides — e.g. ``wall`` to skip the host-speed families when checking
    two same-seed runs for protocol-level identity.
    """
    return diff_metrics(
        filter_ignored(load_metrics_file(path_a), tuple(ignore)),
        filter_ignored(load_metrics_file(path_b), tuple(ignore)),
        rel_tol,
        abs_tol,
    )


def _format_value(value: Optional[Value]) -> str:
    if value is None:
        return "-"
    if isinstance(value, str):
        return value[:16]
    return f"{value:.6g}"


def render_diff(
    result: DiffResult,
    show_ok: bool = False,
    max_rows: int = 50,
) -> str:
    """The diff as report text: a verdict line plus a table of changes."""
    interesting = [
        d for d in result.deltas
        if show_ok or d.status != "ok"
    ]
    ok_count = sum(1 for d in result.deltas if d.status == "ok")
    verdict = (
        f"{len(result.deltas)} series compared: {ok_count} within tolerance, "
        f"{len(result.regressions)} beyond, {len(result.added)} added, "
        f"{len(result.removed)} removed "
        f"(rel_tol={result.rel_tol:g}, abs_tol={result.abs_tol:g})"
    )
    if not interesting:
        return verdict
    rows = []
    for delta in interesting[:max_rows]:
        rel = (
            f"{delta.rel_delta:.2%}"
            if delta.rel_delta is not None and math.isfinite(delta.rel_delta)
            else ("inf" if delta.rel_delta is not None else "-")
        )
        rows.append(
            [
                delta.key,
                _format_value(delta.a),
                _format_value(delta.b),
                _format_value(delta.abs_delta),
                rel,
                delta.status,
            ]
        )
    table = render_table(
        ["metric", "A", "B", "delta", "rel", "status"], rows, title=None
    )
    if len(interesting) > max_rows:
        table += f"\n... {len(interesting) - max_rows} more row(s) suppressed"
    return verdict + "\n" + table
