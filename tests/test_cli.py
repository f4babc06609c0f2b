"""CLI surface tests (in-process via cli.main)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import deepreflecs
from deepreflecs import cli, datagen, preprocess

TINY_TRAIN = {"train": {"epochs": 2, "steps_per_epoch": 4, "batch_size": 8}}


@pytest.fixture()
def tiny_spec(tmp_path):
    spec = {
        "tracks_per_class": {c: 4 for c in preprocess.CLASSES},
        "samples_per_track": [2, 3],
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return str(path)


@pytest.fixture()
def dataset(tmp_path, tiny_spec):
    out = tmp_path / "data.jsonl"
    assert cli.main(["generate", "--spec", tiny_spec, "--seed", "3", "--out", str(out)]) == 0
    return str(out)


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY_TRAIN))
    return str(path)


class TestGenerate:
    def test_writes_dataset(self, dataset, capsys):
        samples = preprocess.read_dataset(dataset)
        assert len({s.track_id for s in samples}) == 16

    def test_default_spec_is_desk_scale(self, tmp_path, capsys):
        out = tmp_path / "desk.jsonl"
        assert cli.main(["generate", "--seed", "1", "--out", str(out)]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["tracks"] == datagen.DESK_TRACKS


class TestModuleEntryPoint:
    def test_python_dash_m_runs_the_cli(self, tmp_path):
        # the package's parent directory, so a source checkout needs no install
        src = str(Path(deepreflecs.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        ))
        out = tmp_path / "desk.jsonl"
        done = subprocess.run(
            [sys.executable, "-m", "deepreflecs", "generate", "--seed", "0", "--out", str(out)],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        summary = json.loads(done.stdout)
        assert summary == {
            "out": str(out), "seed": 0, "samples": len(preprocess.read_dataset(str(out))),
            "tracks": datagen.DESK_TRACKS,
        }


class TestTrainEval:
    def test_deepreflecs_round_trip(self, dataset, config_file, tmp_path, capsys):
        model_path = tmp_path / "net.rfln"
        code = cli.main([
            "train", "--method", "deepreflecs", "--data", dataset,
            "--config", config_file, "--out", str(model_path), "--seed", "0",
        ])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["param_count"] == 1284
        assert model_path.exists()

        metrics_path = tmp_path / "metrics.json"
        code = cli.main([
            "eval", "--model", str(model_path), "--data", dataset,
            "--json", str(metrics_path),
        ])
        assert code == 0
        metrics = json.loads(metrics_path.read_text())
        assert 0.0 <= metrics["total_accuracy"] <= 1.0
        assert sum(sum(row) for row in metrics["confusion"]) == len(
            preprocess.read_dataset(dataset)
        )

    def test_forest_round_trip(self, dataset, tmp_path, capsys):
        model_path = tmp_path / "model.frst"
        assert cli.main([
            "train", "--method", "forest", "--data", dataset,
            "--out", str(model_path), "--seed", "1",
        ]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["node_count"] > 0
        assert cli.main([
            "eval", "--model", str(model_path), "--data", dataset,
        ]) == 0

    def test_gridcnn_round_trip(self, dataset, config_file, tmp_path, capsys):
        model_path = tmp_path / "model.gcnn"
        assert cli.main([
            "train", "--method", "gridcnn", "--data", dataset,
            "--config", config_file, "--out", str(model_path), "--seed", "0",
        ]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["param_count"] == 232628
        assert cli.main([
            "eval", "--model", str(model_path), "--data", dataset,
        ]) == 0


class TestBenchmarkCli:
    def test_byte_identical_reports(self, dataset, config_file, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            code = cli.main([
                "benchmark", "--data", dataset, "--seed", "5",
                "--config", config_file, "--json", str(path),
                "--methods", "deepreflecs,craftedforest",
            ])
            assert code == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_timing_sidecar(self, dataset, config_file, tmp_path, capsys):
        report = tmp_path / "report.json"
        timing = tmp_path / "timing.json"
        assert cli.main([
            "benchmark", "--data", dataset, "--seed", "1",
            "--config", config_file, "--json", str(report),
            "--methods", "craftedforest", "--timing-json", str(timing),
        ]) == 0
        capsys.readouterr()
        assert "craftedforest" in json.loads(timing.read_text())
        assert "inference_time_per_sample_s" not in report.read_text()


class TestAblateCli:
    def test_runs_and_reports_both_variants(self, dataset, config_file, tmp_path, capsys):
        out = tmp_path / "ablation.json"
        assert cli.main([
            "ablate", "--data", dataset, "--seed", "2",
            "--config", config_file, "--json", str(out),
        ]) == 0
        capsys.readouterr()
        data = json.loads(out.read_text())
        assert data["variants"]["with_gcl"]["param_count"] == 1284
        assert data["variants"]["without_gcl"]["param_count"] == 772


class TestGradcheckCli:
    def test_passes(self, tmp_path, capsys):
        out = tmp_path / "gradcheck.json"
        assert cli.main(["gradcheck", "--seed", "0", "--json", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["pass"] is True
        assert data["deepreflecs_max_relative_error"] < 1e-4
        assert data["gridcnn_max_relative_error"] < 1e-4


class TestErrorSurface:
    def test_missing_file_emits_json_error(self, capsys):
        code = cli.main(["eval", "--model", "/nonexistent.rfln", "--data", "/nope"])
        assert code == 1
        err = capsys.readouterr().err
        payload = json.loads(err.strip().splitlines()[-1])
        assert payload["error"] == "FileNotFoundError"

    def test_bad_dataset_line_number_in_error(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"broken": true}\n')
        code = cli.main(["benchmark", "--data", str(path), "--seed", "0"])
        assert code == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "DatasetError"
        assert "line 1" in payload["message"]
