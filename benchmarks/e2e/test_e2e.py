"""Self-test of the end-to-end benchmark at ``--quick`` size.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import json
import os

import pytest

from benchmarks.e2e import compare, run
from benchmarks.e2e.workloads import BY_NAME


@pytest.fixture(scope="module", autouse=True)
def workdir():
    os.makedirs(run.WORKDIR, exist_ok=True)


def _last_json_line(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def test_benchmark_json_names_every_metric_with_its_unit():
    with open(run.BENCHMARK_PATH, encoding="utf-8") as stream:
        spec = json.load(stream)
    for section, declared in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in spec[section]] == list(
            declared
        )
    assert [w["name"] for w in spec["workloads"]] == list(run.BY_NAME)
    for workload in spec["workloads"]:
        assert workload["why"] == BY_NAME[workload["name"]].why


@pytest.mark.parametrize("trace", ["0", "1"])
def test_sim_run_prints_every_metric_with_a_unit(capsys, trace):
    argv = ["--workload", "sim-classroom25", "--quick", "--repeats", "2", "--seed", "7"]
    assert run.main(argv + ["--trace", trace]) == 0
    result = _last_json_line(capsys.readouterr().out)
    declared = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        name: unit for name, unit, _ in declared
    }


@pytest.mark.parametrize("name", ["sim-classroom25", "sim-dense1000"])
def test_traced_run_matches_untraced_and_self_times_add_up(name):
    outcome = run.run_sim_traced(BY_NAME[name], None, True, run.Deadline(120))
    details = outcome.details
    assert details["fingerprints"]["traced"] == details["fingerprints"]["untraced"]
    wall_ms = details["traced_wall_s"] * 1e3
    assert abs(details["layer_self_ms_sum"] - wall_ms) <= 0.05 * wall_ms
    assert outcome.problems == []
    assert outcome.metrics["station.client.rx_beacon.calls"] > 0
    assert outcome.metrics["trace.overhead_frac"] > 0


def test_check_fails_when_one_count_is_perturbed(tmp_path, capsys):
    with open(run.EXPECTED_PATH, encoding="utf-8") as stream:
        expected = json.load(stream)
    assert run.check_counts(True, run.EXPECTED_PATH, write=False) == 0
    expected["quick"]["sim-churn100"]["counts"]["port_table_refreshes"] += 1
    perturbed = tmp_path / "expected.json"
    perturbed.write_text(json.dumps(expected), encoding="utf-8")
    capsys.readouterr()
    assert run.check_counts(True, str(perturbed), write=False) == 1
    out = capsys.readouterr().out
    assert "sim-churn100: MISMATCH" in out
    assert "port_table_refreshes" in out


def test_service_run_reports_sender_lateness(capsys):
    argv = ["--workload", "svc-loopback", "--seconds", "3", "--seed", "2"]
    assert run.main(argv) == 0
    out = capsys.readouterr().out
    result = _last_json_line(out)
    assert result["correct"] is True
    assert set(result["metrics"]) == {name for name, _, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "sender late p99" in out


def _artifact(tmp_path, name, values, failed=0):
    invocations = [
        {
            "traced": False,
            "workloads": {
                "w": {
                    "metrics": {"x": value},
                    "attempted": 10,
                    "failed": failed,
                }
            },
        }
        for value in values
    ]
    path = tmp_path / name
    path.write_text(json.dumps({"invocations": invocations}), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize(
    "b_values, failed, status",
    [
        ([10.2, 10.0, 9.9], 0, "agree"),
        ([12.0, 12.1, 11.9], 0, "worse"),
        ([8.0, 8.1, 7.9], 0, "better"),
        ([5.0, 10.0, 20.0], 0, "unresolved"),
        ([10.0, 10.0, 10.0], 1, "failed"),
    ],
)
def test_compare_applies_the_bound(tmp_path, b_values, failed, status):
    metrics = [{"name": "x", "better": "lower", "bound": 0.1}]
    a = compare.load_runs(_artifact(tmp_path, "a.json", [10.0, 10.1, 9.9]))
    b = compare.load_runs(_artifact(tmp_path, "b.json", b_values, failed))
    rows, agree = compare.compare(a, b, metrics)
    assert any(row.endswith(status) for row in rows)
    assert agree == (status in ("agree", "unresolved"))
