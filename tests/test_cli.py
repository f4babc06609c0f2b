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


    @pytest.mark.parametrize(
        "spec, named",
        [
            ({"profiles": {"truck": {}}}, "truck"),
            ({"profiles": {"car": {"bogus": 1}}}, "bogus"),
            ({"samples_per_track": [10, 5]}, "samples_per_track"),
            ([1, 2], "spec"),
            ({"tracks_per_class": {"car": "3"}}, "tracks_per_class"),
            ({"start_range": "70"}, "start_range"),
            ({"profiles": {"car": {"length_range": [1]}}}, "length_range"),
            ({"bogus_top": 1}, "bogus_top"),
            ({"tracks_per_class": {"truck": 3}}, "truck"),
            ({"tracks_per_class": {c: 0 for c in preprocess.CLASSES}}, "tracks_per_class"),
            ({"samples_per_track": [0, 0]}, "samples_per_track"),
            ({"stop_range": 100}, "stop_range"),
            ({"seed": 1}, "seed"),
            ({"profiles": {"pedestrian": {"alt_fraction": 0.1}}}, "alt_fraction"),
            ({"tracks_per_class": {c: 10_000 for c in preprocess.CLASSES},
              "samples_per_track": [1, 1000]}, "samples_per_track"),
        ],
        ids=["profile-unknown-class", "profile-unknown-key", "samples-reversed", "spec-list",
             "tracks-string", "start-range-string", "length-range-short", "unknown-key",
             "tracks-unknown-class", "tracks-all-zero", "samples-zero", "stop-beyond-start",
             "seed-key", "profile-alt-fraction", "worst-case-over-1-gib"],
    )
    def test_bad_spec_is_named_error(self, spec, named, tmp_path, capsys):
        path, out = tmp_path / "spec.json", tmp_path / "data.jsonl"
        path.write_text(json.dumps(spec))
        assert cli.main(["generate", "--spec", str(path), "--out", str(out)]) == 1
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["error"] == "ConfigError"
        assert named in error["message"]
        assert not out.exists()


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
    @pytest.mark.parametrize(
        "argv",
        [["generate", "--out", "out"],
         ["train", "--method", "forest", "--data", "nope", "--out", "out"],
         ["benchmark", "--data", "nope", "--json", "out"],
         ["ablate", "--data", "nope", "--json", "out"],
         ["gradcheck", "--json", "out"]],
        ids=lambda argv: argv[0],
    )
    def test_negative_seed_is_refused_at_parse_time(self, argv, tmp_path, capsys):
        argv = [str(tmp_path / a) if a == "out" else a for a in argv]
        with pytest.raises(SystemExit) as exit_:
            cli.main(argv + ["--seed", "-1"])
        assert exit_.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("methods", ["", "svm", "craftedforest,"])
    def test_bad_methods_is_config_error_before_reading_data(self, methods, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = cli.main([
            "benchmark", "--data", str(tmp_path / "nope.jsonl"), "--methods", methods,
            "--json", str(out),
        ])
        assert code == 1
        captured = capsys.readouterr()
        error = json.loads(captured.err.strip().splitlines()[-1])
        assert error["error"] == "ConfigError"
        assert all(key in error["message"] for key in ("deepreflecs", "craftedforest", "gridcnn"))
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize(
        "content",
        [b'{"train": {"epochs": 2', b'{"seed": ' + b"9" * 5000 + b"}", b'\xff{"train": {}}',
         b"[" * 200_000],
        ids=["truncated", "integer-too-long", "not-utf8", "nested-too-deep"],
    )
    @pytest.mark.parametrize(
        "argv",
        [["generate", "--spec", "file", "--out", "out"],
         ["train", "--method", "forest", "--data", "nope", "--config", "file", "--out", "out"]],
        ids=lambda argv: argv[0],
    )
    def test_unreadable_json_file_is_config_error_naming_it(self, argv, content, tmp_path, capsys):
        path = tmp_path / "file.json"
        path.write_bytes(content)
        argv = [str(path) if a == "file" else str(tmp_path / a) if a == "out" else a for a in argv]
        assert cli.main(argv) == 1
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["error"] == "ConfigError"
        assert str(path) in error["message"]
        assert not (tmp_path / "out").exists()

    def test_missing_file_emits_json_error(self, capsys):
        code = cli.main(["eval", "--model", "/nonexistent.rfln", "--data", "/nope"])
        assert code == 1
        err = capsys.readouterr().err
        payload = json.loads(err.strip().splitlines()[-1])
        assert payload["error"] == "FileNotFoundError"

    @pytest.mark.parametrize(
        "line",
        ["[" * 200_000, json.dumps({
            "track_id": "t", "class": "car", "pose": {"x": 10**400, "y": 0, "heading": 0},
            "reflections": [{"x": 1, "y": 0, "rcs": 0, "range": 1, "vr": 0, "azimuth": 0}],
        })],
        ids=["nested-too-deep", "number-too-large-for-a-float"],
    )
    def test_hostile_dataset_line_is_dataset_error_naming_it(self, line, dataset, capsys):
        with open(dataset, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        n_lines = len(Path(dataset).read_text().splitlines())
        assert cli.main(["benchmark", "--data", dataset, "--seed", "0"]) == 1
        captured = capsys.readouterr()
        payload = json.loads(captured.err.strip().splitlines()[-1])
        assert payload["error"] == "DatasetError"
        assert f"line {n_lines}" in payload["message"]

    def test_overflowing_norm_stats_are_dataset_error_and_no_model(self, dataset, tmp_path, capsys):
        # a finite rcs of 1e200 in the train split squares past float64 in the std
        train_track = preprocess.trackwise_split(preprocess.read_dataset(dataset))[0][0].track_id
        records = [json.loads(line) for line in Path(dataset).read_text().splitlines()]
        next(r for r in records if r["track_id"] == train_track)["reflections"][0]["rcs"] = 1e200
        Path(dataset).write_text("".join(json.dumps(r) + "\n" for r in records))
        out = tmp_path / "net.rfln"
        argv = ["train", "--method", "deepreflecs", "--data", dataset, "--out", str(out)]
        assert cli.main(argv) == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "DatasetError" and "column 2" in payload["message"]
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["train", "--method", "forest", "--out", "out"],
        ["benchmark", "--methods", "craftedforest", "--json", "out"],
    ], ids=["train", "benchmark"])
    def test_empty_dataset_is_named_as_empty(self, argv, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        argv = [str(tmp_path / a) if a == "out" else a for a in argv]
        assert cli.main(argv + ["--data", str(path)]) == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "DatasetError"
        assert "holds no samples" in payload["message"]
        assert "75.0 m range cutoff" in payload["message"]
        assert not (tmp_path / "out").exists()

    def test_bad_dataset_line_number_in_error(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"broken": true}\n')
        code = cli.main(["benchmark", "--data", str(path), "--seed", "0"])
        assert code == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "DatasetError"
        assert "line 1" in payload["message"]
