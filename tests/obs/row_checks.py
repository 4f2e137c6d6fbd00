"""Test helpers for metric rows: the exposition checks every
producer's rows must pass, and rows as a ``series key -> value`` map.

Producers build plain :class:`~repro.obs.metrics.Row` tuples and check
nothing per series, so the tests run each producer's rows through
:func:`check_rows`: names and label names in the Prometheus grammar,
label pairs in sorted order, one kind per family and no series twice.
"""

from typing import Dict, Iterable, List, Set

from repro.obs.metrics import LABEL_NAME_RE, METRIC_NAME_RE, Row, series_key


def row_problems(rows: Iterable[Row]) -> List[str]:
    """Every way ``rows`` would make an unscrapable or ambiguous page."""
    problems: List[str] = []
    kinds: Dict[str, str] = {}
    seen: Set[str] = set()
    for row in rows:
        if METRIC_NAME_RE.fullmatch(row.name) is None:
            problems.append(f"invalid metric name {row.name!r}")
        for label, _ in row.label_items:
            if LABEL_NAME_RE.fullmatch(label) is None:
                problems.append(f"invalid label name {label!r} on {row.name!r}")
        if list(row.label_items) != sorted(row.label_items):
            problems.append(f"labels of {row.name!r} out of order")
        if row.kind not in ("counter", "gauge"):
            problems.append(f"{row.name!r} has unknown kind {row.kind!r}")
        kind = kinds.setdefault(row.name, row.kind)
        if kind != row.kind:
            problems.append(f"{row.name!r} has two kinds: {kind} and {row.kind}")
        key = series_key(row.name, dict(row.label_items))
        if key in seen:
            problems.append(f"series {key} repeats")
        seen.add(key)
    return problems


def check_rows(rows: Iterable[Row]) -> None:
    """Raise ``ValueError`` listing every problem :func:`row_problems`
    finds."""
    problems = row_problems(rows)
    if problems:
        raise ValueError("; ".join(problems))


def row_values(rows: Iterable[Row]) -> Dict[str, float]:
    """``series key -> value`` for rows (the key :mod:`repro.obs.diff`
    uses)."""
    return {series_key(row.name, dict(row.label_items)): row.value for row in rows}
