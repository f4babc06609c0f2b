"""Tests for metrics, the benchmark pipeline, and the ablation pipeline."""

import numpy as np
import pytest

from deepreflecs import datagen, evaluate, preprocess, trainer

TINY_CONFIG = trainer.TrainConfig(epochs=2, steps_per_epoch=6, batch_size=8, seed=0)


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "tiny.jsonl"
    spec = datagen.GenSpec(
        tracks_per_class={c: 5 for c in preprocess.CLASSES},
        samples_per_track=(2, 4),
        seed=9,
    )
    preprocess.write_dataset(datagen.generate_dataset(spec), str(path))
    return str(path)


class TestAccuracies:
    def test_perfect_diagonal(self):
        cm = evaluate.ConfusionMatrix(np.diag([5, 3, 2, 7]))
        total, per_class = evaluate.accuracies(cm)
        assert total == 1.0
        np.testing.assert_array_equal(per_class, 1.0)

    def test_hand_arithmetic(self):
        cm = evaluate.ConfusionMatrix(np.array([[8, 2], [4, 6]]))
        total, per_class = evaluate.accuracies(cm)
        assert total == pytest.approx(0.7)
        np.testing.assert_allclose(per_class, [0.8, 0.6])

    def test_chance_level_for_uniform_predictions(self):
        rng = np.random.default_rng(0)
        n, c = 4000, 4
        y_true = np.repeat(np.arange(c), n // c)
        y_pred = rng.integers(0, c, size=n)
        cm = evaluate.ConfusionMatrix.from_predictions(y_true, y_pred, c)
        total, _ = evaluate.accuracies(cm)
        assert total == pytest.approx(1.0 / c, abs=0.03)

    def test_empty_matrix_is_error(self):
        with pytest.raises(ValueError):
            evaluate.accuracies(evaluate.ConfusionMatrix(np.zeros((4, 4), dtype=np.int64)))

    def test_missing_class_reports_nan(self):
        cm = evaluate.ConfusionMatrix(np.array([[3, 0], [0, 0]]))
        total, per_class = evaluate.accuracies(cm)
        assert total == 1.0
        assert per_class[0] == 1.0 and np.isnan(per_class[1])

    def test_confusion_total_matches_sample_count(self):
        y_true = [0, 1, 2, 3, 0, 1]
        y_pred = [0, 2, 2, 3, 1, 1]
        cm = evaluate.ConfusionMatrix.from_predictions(y_true, y_pred, 4)
        assert cm.counts.sum() == 6
        total, per_class = evaluate.accuracies(cm)
        recomputed = np.trace(cm.counts) / cm.counts.sum()
        assert total == recomputed


class TestMetricsReport:
    def test_json_round_shape(self):
        report = evaluate.MetricsReport.from_predictions([0, 1, 2, 3], [0, 1, 2, 2], 4)
        data = report.to_json_dict()
        assert data["total_accuracy"] == 0.75
        assert data["per_class_accuracy"]["non_obstacle"] == 0.0
        assert len(data["confusion"]) == 4


class TestBenchmark:
    def test_report_contents_and_determinism(self, tiny_dataset):
        report = evaluate.run_benchmark(tiny_dataset, seed=1, config=TINY_CONFIG)
        data = report.to_json_dict()
        assert data["methods"]["deepreflecs"]["param_count"] == 1284
        assert data["methods"]["gridcnn"]["param_count"] == 232628
        assert data["methods"]["craftedforest"]["node_count"] > 0
        for method in evaluate.METHODS:
            assert 0.0 <= data["methods"][method]["total_accuracy"] <= 1.0
        again = evaluate.run_benchmark(tiny_dataset, seed=1, config=TINY_CONFIG)
        assert again.to_json_dict() == data
        assert report.timing_dict().keys() == {
            "deepreflecs", "craftedforest", "gridcnn"
        }

    def test_timing_not_in_canonical_json(self, tiny_dataset):
        report = evaluate.run_benchmark(
            tiny_dataset, seed=2, config=TINY_CONFIG, methods=["craftedforest"]
        )
        data = report.to_json_dict()
        assert "inference_time_per_sample_s" not in data["methods"]["craftedforest"]
        assert report.timing_dict()["craftedforest"] > 0

    def test_method_subset(self, tiny_dataset):
        report = evaluate.run_benchmark(
            tiny_dataset, seed=3, config=TINY_CONFIG, methods=["deepreflecs"]
        )
        assert set(report.results) == {"deepreflecs"}

    def test_unknown_method(self, tiny_dataset):
        with pytest.raises(ValueError, match="unknown method"):
            evaluate.run_benchmark(tiny_dataset, seed=0, methods=["svm"])


class TestAblation:
    def test_variant_param_counts_and_structure(self, tiny_dataset):
        report = evaluate.run_ablation(tiny_dataset, seed=1, config=TINY_CONFIG)
        data = report.to_json_dict()
        assert data["variants"]["with_gcl"]["param_count"] == 1284
        assert data["variants"]["without_gcl"]["param_count"] == 772
        assert data["delta"]["total"] == pytest.approx(
            data["variants"]["with_gcl"]["total_accuracy"]
            - data["variants"]["without_gcl"]["total_accuracy"]
        )
        assert set(data["delta"]["per_class"]) == set(preprocess.CLASSES)
