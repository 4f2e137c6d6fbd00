"""One module per paper table/figure, plus the headline-claims check.

Every module exposes ``compute(...)`` returning a result object and
``render(result)`` returning the printable reproduction. ``run_all``
(in :mod:`repro.experiments.runner`) executes the lot and assembles an
EXPERIMENTS-style report. The modules are imported on first use, so a
DES run that imports :mod:`repro.experiments.des_run` loads none of them.
"""

from repro._exports import lazy_exports

#: Public name → defining module; each figure/table name is its module.
_EXPORTS = {
    "EvaluationContext": "repro.experiments.context",
    **{
        name: f"repro.experiments.{name}"
        for name in (
            "table1",
            "table2",
            "figure6",
            "figure7",
            "figure8",
            "figure9",
            "figure10",
            "figure11",
            "figure12",
            "headline",
            "sensitivity",
            "adoption",
            "validation",
        )
    },
    "run_all": "repro.experiments.runner",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
