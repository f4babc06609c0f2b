"""Tests for metrics, the benchmark pipeline, and the ablation pipeline."""

import numpy as np
import pytest

from deepreflecs import datagen, evaluate, model, preprocess, trainer


def tiny_config(seed: int) -> trainer.TrainConfig:
    return trainer.TrainConfig(epochs=2, steps_per_epoch=6, batch_size=8, seed=seed)


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


def from_counts(counts) -> evaluate.MetricsReport:
    """The metrics of label and prediction vectors whose confusion matrix is counts."""
    counts = np.asarray(counts)
    n_classes = counts.shape[0]
    y_true, y_pred = np.divmod(np.repeat(np.arange(n_classes**2), counts.ravel()), n_classes)
    report = evaluate.MetricsReport.from_predictions(y_true, y_pred, n_classes)
    np.testing.assert_array_equal(report.confusion, counts)
    return report


class TestAccuracies:
    def test_perfect_diagonal(self):
        report = from_counts(np.diag([5, 3, 2, 7]))
        assert report.total_accuracy == 1.0
        np.testing.assert_array_equal(report.per_class_accuracy, 1.0)

    def test_hand_arithmetic(self):
        report = from_counts([[8, 2], [4, 6]])
        assert report.total_accuracy == pytest.approx(0.7)
        np.testing.assert_allclose(report.per_class_accuracy, [0.8, 0.6])

    def test_chance_level_for_uniform_predictions(self):
        rng = np.random.default_rng(0)
        n, c = 4000, 4
        y_true = np.repeat(np.arange(c), n // c)
        y_pred = rng.integers(0, c, size=n)
        report = evaluate.MetricsReport.from_predictions(y_true, y_pred, c)
        assert report.total_accuracy == pytest.approx(1.0 / c, abs=0.03)

    def test_empty_matrix_is_error(self):
        with pytest.raises(ValueError, match="confusion matrix is empty"):
            from_counts(np.zeros((4, 4), dtype=np.int64))

    def test_missing_class_reports_nan(self):
        report = from_counts([[3, 0], [0, 0]])
        assert report.total_accuracy == 1.0
        assert report.per_class_accuracy[0] == 1.0 and np.isnan(report.per_class_accuracy[1])

    def test_confusion_total_matches_sample_count(self):
        y_true = [0, 1, 2, 3, 0, 1]
        y_pred = [0, 2, 2, 3, 1, 1]
        report = evaluate.MetricsReport.from_predictions(y_true, y_pred, 4)
        assert report.confusion.sum() == 6
        recomputed = np.trace(report.confusion) / report.confusion.sum()
        assert report.total_accuracy == recomputed


class TestConfusionFromPredictions:
    @pytest.mark.parametrize("n_classes", [1, 2, 4, 7])
    def test_counts_equal_a_pair_by_pair_tally(self, n_classes):
        rng = np.random.default_rng(n_classes)
        y_true = rng.integers(0, n_classes, size=500)
        y_pred = rng.integers(0, n_classes, size=500)
        expected = np.zeros((n_classes, n_classes), dtype=np.int64)
        for t, p in zip(y_true.tolist(), y_pred.tolist()):
            expected[t, p] += 1
        report = evaluate.MetricsReport.from_predictions(list(y_true), y_pred, n_classes)
        assert report.confusion.dtype == np.int64
        np.testing.assert_array_equal(report.confusion, expected)

    def test_no_pairs_are_value_error(self):
        with pytest.raises(ValueError, match="confusion matrix is empty"):
            evaluate.MetricsReport.from_predictions([], np.zeros(0, dtype=np.int64), 3)

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
            evaluate.MetricsReport.from_predictions(y_true, y_pred, 4)


class TestMetricsReport:
    def test_json_round_shape(self):
        report = evaluate.MetricsReport.from_predictions([0, 1, 2, 3], [0, 1, 2, 2], 4)
        data = report.to_json_dict()
        assert data["total_accuracy"] == 0.75
        assert data["per_class_accuracy"]["non_obstacle"] == 0.0
        assert len(data["confusion"]) == 4


class TestBenchmark:
    def test_report_contents_and_determinism(self, tiny_dataset):
        report = evaluate.run_benchmark(tiny_dataset, config=tiny_config(1))
        data = report.benchmark_json()
        assert data["methods"]["deepreflecs"]["param_count"] == 1284
        assert data["methods"]["gridcnn"]["param_count"] == 232628
        assert data["methods"]["craftedforest"]["node_count"] > 0
        for method in evaluate.METHODS:
            assert 0.0 <= data["methods"][method]["total_accuracy"] <= 1.0
        again = evaluate.run_benchmark(tiny_dataset, config=tiny_config(1))
        assert again.benchmark_json() == data
        assert report.timing_dict().keys() == {
            "deepreflecs", "craftedforest", "gridcnn"
        }

    def test_timing_not_in_canonical_json(self, tiny_dataset):
        report = evaluate.run_benchmark(
            tiny_dataset, config=tiny_config(2), methods=["craftedforest"]
        )
        data = report.benchmark_json()
        assert "inference_time_per_sample_s" not in data["methods"]["craftedforest"]
        assert report.timing_dict()["craftedforest"] > 0

    def test_method_subset(self, tiny_dataset):
        report = evaluate.run_benchmark(
            tiny_dataset, config=tiny_config(3), methods=["deepreflecs"]
        )
        assert set(report.results) == {"deepreflecs"}

    def test_unknown_method(self, tiny_dataset):
        with pytest.raises(ValueError, match="unknown method"):
            evaluate.run_benchmark(tiny_dataset, methods=["svm"])


class TestAblation:
    def test_variant_param_counts_and_structure(self, tiny_dataset):
        report = evaluate.run_ablation(tiny_dataset, config=tiny_config(1))
        data = report.ablation_json()
        assert data["variants"]["with_gcl"]["param_count"] == 1284
        assert data["variants"]["without_gcl"]["param_count"] == 772
        assert data["delta"]["total"] == pytest.approx(
            data["variants"]["with_gcl"]["total_accuracy"]
            - data["variants"]["without_gcl"]["total_accuracy"]
        )
        assert set(data["delta"]["per_class"]) == set(preprocess.CLASSES)

    def test_nothing_is_timed(self, tiny_dataset, monkeypatch):
        """The ablation reports no timing, so it makes no timed single-object
        predict call; the benchmark on the same data makes them."""
        calls = []
        predict = model.ReflectNetModel.predict
        monkeypatch.setattr(
            model.ReflectNetModel, "predict", lambda net, inp: calls.append(1) or predict(net, inp)
        )
        report = evaluate.run_ablation(tiny_dataset, config=tiny_config(1))
        assert calls == []
        assert report.timing_dict() == {"with_gcl": None, "without_gcl": None}
        evaluate.run_benchmark(tiny_dataset, config=tiny_config(1), methods=["deepreflecs"])
        assert len(calls) >= 100

    def test_with_gcl_arm_is_the_benchmark_network(self, tiny_dataset):
        """Both commands share one split and one training path: the with-GCL
        variant is the benchmark's deepreflecs entry without its best epoch."""
        ablation = evaluate.run_ablation(tiny_dataset, config=tiny_config(3))
        benchmark = evaluate.run_benchmark(
            tiny_dataset, config=tiny_config(3), methods=["deepreflecs"]
        )
        entry = dict(benchmark.benchmark_json()["methods"]["deepreflecs"])
        assert "best_epoch" in entry
        del entry["best_epoch"]
        assert ablation.ablation_json()["variants"]["with_gcl"] == entry
