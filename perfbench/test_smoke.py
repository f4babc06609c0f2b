"""Smoke test of the benchmark itself.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload at its smallest length and checks that each metric
named in BENCHMARK.json is printed with its unit, then checks that a
deliberately corrupted prediction is counted as a failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

sys.path.insert(0, str(HERE))
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def bench(workload: str, trace: int) -> tuple:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    ).stdout.strip().splitlines()
    return json.loads(out[0])["run_record"], json.loads(out[-1])


def check_result(result: dict, expected: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(m["name"] for m in expected)
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_workloads_match_benchmark_json():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])
    assert {n: u for n, (u, _) in run.END_TO_END.items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert run.per_layer_units() == {
        m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]
    }


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_untraced_run_prints_every_end_to_end_metric(workload):
    record, result = bench(workload, 0)
    check_result(result, SPEC["end_to_end"])
    for name in ("numpy", "blas", "python", "nproc", "seed", "digest", "test_accuracy",
                 "classify_calls_behind_p50", "classify_objects_behind_p99",
                 "host_speed", "raw"):
        assert name in record
    assert record["error_rate"] == 0.0
    assert all(result["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])


def test_traced_run_prints_every_per_layer_metric_and_keeps_outputs():
    untraced, _ = bench("deepreflecs_desk", 0)
    traced, result = bench("deepreflecs_desk", 1)
    check_result(result, SPEC["per_layer"])
    metrics = result["metrics"]
    assert metrics["model.forward.calls"]["value"] > 0
    assert metrics["gridcnn.forward.calls"]["value"] == 0  # no grid-CNN code runs
    assert metrics["trainer.steps"]["value"] == 128
    assert traced["digest"] == untraced["digest"]
    assert (ROOT / traced["trace_file"]).is_file()


def test_corrupted_prediction_raises_error_rate(monkeypatch, tmp_path):
    method = WORKLOADS["forest_desk"]
    original = type(method).classify
    calls = []

    def corrupted_classify(self, fitted, sample):
        pred, probs = original(self, fitted, sample)
        calls.append(pred)
        return ((pred + 1) % 4 if len(calls) == 1 else pred), probs

    monkeypatch.setattr(type(method), "classify", corrupted_classify)
    tally = run.Tally()
    st = run.set_up(method, 0, str(tmp_path))
    assert run.run_round(method, st, tally, run.no_phase) is not None
    assert tally.failed == 1 and tally.failed / tally.attempted > 0
    assert "classify sample 0" in tally.messages[0]
