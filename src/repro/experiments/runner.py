"""Run every experiment and assemble one report.

Each section is timed with a wall clock; the report ends with a
"Section timings" table so slow figures are visible in CI logs, a
tracer (``--trace-log`` on the CLI) receives one ``experiment_section``
span per section for machine post-processing, and :func:`section_rows`
reads the same wall times as metric rows (``--metrics-out``).
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional, Tuple

from repro.experiments import (
    figure6,
    figure7,
    figure8,
    figure9,
    figure10,
    figure11,
    figure12,
    headline,
    sensitivity,
    table1,
    table2,
)
from repro.experiments.context import EvaluationContext, default_context
from repro.obs.metrics import Row, counter_row
from repro.obs.tracing import NULL_TRACER
from repro.reporting import render_table

_RULE = "=" * 72

#: (section name, render callable taking the shared context).
_SECTIONS: Tuple[Tuple[str, Callable[[EvaluationContext], str]], ...] = (
    ("table1", lambda context: table1.render()),
    ("table2", lambda context: table2.render()),
    ("figure6", lambda context: figure6.render(figure6.compute(context))),
    ("figure7", lambda context: figure7.render(figure7.compute(context))),
    ("figure8", lambda context: figure8.render(figure8.compute(context))),
    ("figure9", lambda context: figure9.render(figure9.compute(context))),
    ("figure10", lambda context: figure10.render()),
    ("figure11", lambda context: figure11.render()),
    ("figure12", lambda context: figure12.render()),
    ("headline", lambda context: headline.render(headline.compute(context))),
    ("sensitivity", lambda context: sensitivity.render(sensitivity.compute(context))),
)


def render_section_timings(timings: List[Tuple[str, float]]) -> str:
    """The per-section wall-time table appended to every full run."""
    total = sum(elapsed for _, elapsed in timings)
    rows = [
        [name, f"{elapsed:.3f}", f"{elapsed / total:.1%}" if total > 0 else "-"]
        for name, elapsed in timings
    ]
    rows.append(["total", f"{total:.3f}", "100.0%" if total > 0 else "-"])
    return render_table(
        ["section", "wall time (s)", "share"], rows, title="Section timings"
    )


def section_rows(timings: List[Tuple[str, float]]) -> List[Row]:
    """The section wall times as counter rows, in section-name order."""
    return [
        counter_row(
            "repro_experiment_section_seconds_total",
            "Wall time per experiment section",
            elapsed,
            {"section": name},
        )
        for name, elapsed in sorted(timings)
    ]


def run_sections(
    context: Optional[EvaluationContext] = None,
    tracer=NULL_TRACER,
) -> Tuple[List[str], List[Tuple[str, float]]]:
    """Execute all table/figure reproductions: each section's text and
    its ``(name, wall seconds)``.

    ``tracer`` receives an ``experiment_section`` span per section.
    """
    context = context or default_context()
    sections: List[str] = []
    timings: List[Tuple[str, float]] = []
    for name, render_section in _SECTIONS:
        start = time.perf_counter()
        text = render_section(context)
        elapsed = time.perf_counter() - start
        timings.append((name, elapsed))
        sections.append(text)
        if tracer.enabled:
            tracer.span_record("experiment_section", elapsed, section=name)
    return sections, timings


def render_report(sections: List[str], timings: List[Tuple[str, float]]) -> str:
    """The full report: every section, then the timings table."""
    return ("\n" + _RULE + "\n").join(sections + [render_section_timings(timings)])


def run_all(
    context: Optional[EvaluationContext] = None,
    tracer=NULL_TRACER,
) -> str:
    """Execute all table/figure reproductions; return the full report."""
    return render_report(*run_sections(context, tracer))


def main() -> None:
    print(run_all())


if __name__ == "__main__":
    main()
