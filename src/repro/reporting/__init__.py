"""Plain-text rendering of tables and charts for experiment output,
and the one writer of every JSON document a command saves."""

import json

from repro.reporting.table import render_table
from repro.reporting.chart import render_bar_chart, render_series_table, render_cdf

__all__ = [
    "render_table",
    "render_bar_chart",
    "render_series_table",
    "render_cdf",
    "write_json",
]


def write_json(document, path: str) -> None:
    """Write ``document`` to ``path`` as indented JSON with sorted keys
    and a trailing newline."""
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(document, stream, indent=2, sort_keys=True)
        stream.write("\n")
