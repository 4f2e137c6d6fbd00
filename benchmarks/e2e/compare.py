"""Do two sets of benchmark runs agree within the BENCHMARK.json bounds?

Usage::

    python -m benchmarks.e2e.compare A.json B.json

``A.json`` and ``B.json`` are artifacts written by ``run --out`` (each
invocation appends one entry, so three invocations with the same
``--out`` make one set of three). Only untraced invocations count. For
every workload and end-to-end metric the two medians are compared with
the metric's bound from BENCHMARK.json:

* ``agree`` — the medians differ by no more than the bound;
* ``worse`` / ``better`` — they differ by more, in that direction;
* ``unresolved`` — either side's own quartile spread exceeds the bound,
  so the runs cannot tell the difference from noise.

Failed operations have an absolute bound of zero: any failure on either
side is a disagreement. Exits 1 on any disagreement, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Dict, List, Optional, Sequence, Tuple

BENCHMARK_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "BENCHMARK.json",
)


def load_runs(path: str) -> Dict[str, List[dict]]:
    """workload -> its outcome in every untraced invocation of ``path``."""
    with open(path, encoding="utf-8") as stream:
        artifact = json.load(stream)
    runs: Dict[str, List[dict]] = {}
    for invocation in artifact["invocations"]:
        if invocation["traced"]:
            continue
        for workload, outcome in invocation["workloads"].items():
            runs.setdefault(workload, []).append(outcome)
    return runs


def summary(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(
    a: Sequence[float], b: Sequence[float], bound: float, better: str
) -> Tuple[str, float]:
    """Row status and B's median change relative to A's."""
    a_q1, a_med, a_q3 = summary(a)
    b_q1, b_med, b_q3 = summary(b)
    change = b_med / a_med - 1.0
    if (a_q3 - a_q1) / a_med > bound or (b_q3 - b_q1) / b_med > bound:
        return "unresolved", change
    if abs(change) <= bound:
        return "agree", change
    worse = change > 0 if better == "lower" else change < 0
    return ("worse" if worse else "better"), change


def compare(
    a_runs: Dict[str, List[dict]], b_runs: Dict[str, List[dict]], metrics: List[dict]
) -> Tuple[List[str], bool]:
    """Rendered rows and whether every row agrees."""
    rows = [
        f"{'workload':<16} {'metric':<14} {'A q1/med/q3':>30} "
        f"{'B q1/med/q3':>30} {'change':>8} {'bound':>6}  status"
    ]
    agree = True
    for workload in sorted(set(a_runs) | set(b_runs)):
        a, b = a_runs.get(workload), b_runs.get(workload)
        if not a or not b:
            rows.append(f"{workload:<16} missing from {'A' if not a else 'B'}")
            agree = False
            continue
        for metric in metrics:
            name = metric["name"]
            a_values = [run["metrics"][name] for run in a]
            b_values = [run["metrics"][name] for run in b]
            status, change = verdict(a_values, b_values, metric["bound"], metric["better"])
            agree = agree and status in ("agree", "unresolved")
            rows.append(
                f"{workload:<16} {name:<14} "
                f"{'/'.join(f'{v:.4g}' for v in summary(a_values)):>30} "
                f"{'/'.join(f'{v:.4g}' for v in summary(b_values)):>30} "
                f"{change:>+8.1%} {metric['bound']:>6.0%}  {status}"
            )
        failed = [sum(run["failed"] for run in side) for side in (a, b)]
        attempted = [sum(run["attempted"] for run in side) for side in (a, b)]
        status = "agree" if failed == [0, 0] else "failed"
        agree = agree and status == "agree"
        rows.append(
            f"{workload:<16} {'failed_frac':<14} "
            f"{failed[0] / attempted[0]:>30.6f} {failed[1] / attempted[1]:>30.6f} "
            f"{'':>8} {0:>6}  {status}"
        )
    return rows, agree


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a")
    parser.add_argument("b")
    args = parser.parse_args(argv)
    with open(BENCHMARK_PATH, encoding="utf-8") as stream:
        metrics = json.load(stream)["end_to_end"]
    rows, agree = compare(load_runs(args.a), load_runs(args.b), metrics)
    print("\n".join(rows))
    print("agree" if agree else "DISAGREE")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
