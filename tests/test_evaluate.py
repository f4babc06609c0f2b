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


class TestConfusionFromPredictions:
    @pytest.mark.parametrize("n_classes", [1, 2, 4, 7])
    def test_counts_equal_a_pair_by_pair_tally(self, n_classes):
        rng = np.random.default_rng(n_classes)
        y_true = rng.integers(0, n_classes, size=500)
        y_pred = rng.integers(0, n_classes, size=500)
        expected = np.zeros((n_classes, n_classes), dtype=np.int64)
        for t, p in zip(y_true.tolist(), y_pred.tolist()):
            expected[t, p] += 1
        cm = evaluate.ConfusionMatrix.from_predictions(list(y_true), y_pred, n_classes)
        assert cm.counts.dtype == np.int64
        np.testing.assert_array_equal(cm.counts, expected)

    def test_no_samples_give_a_zero_matrix(self):
        cm = evaluate.ConfusionMatrix.from_predictions([], np.zeros(0, dtype=np.int64), 3)
        np.testing.assert_array_equal(cm.counts, np.zeros((3, 3)))

    @pytest.mark.parametrize(
        "y_true, y_pred, match",
        [
            ([0, 1, 2], [0, 1], "3 labels for 2 predictions"),
            ([0, 1], [0, 1, 2], "2 labels for 3 predictions"),
            ([0, 4, 1], [0, 1, 1], r"labels must lie in \[0, 4\), got 0 to 4"),
            ([0, 1, 1], [0, -1, 1], r"predictions must lie in \[0, 4\), got -1 to 1"),
            ([0, 1.0], [0, 1], "labels must be a list of class indices"),
            ([0, 1], [[0, 1]], "predictions must be a list of class indices"),
        ],
        ids=["fewer-predictions", "fewer-labels", "label-past-classes", "negative-prediction",
             "float-label", "prediction-table"],
    )
    def test_bad_pairs_are_value_error_naming_them(self, y_true, y_pred, match):
        with pytest.raises(ValueError, match=match):
            evaluate.ConfusionMatrix.from_predictions(y_true, y_pred, 4)


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
