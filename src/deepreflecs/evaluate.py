"""Metrics, the three-method benchmark, and the context-layer ablation.

Per-class accuracy is class recall: of all test samples whose true class
is c, the fraction predicted as c. Everything downstream of (dataset
bytes, seed) is deterministic; inference timing is measured but kept out
of the canonical report so repeated runs stay byte-identical.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Sequence, Tuple

import numpy as np

from . import forest, gridcnn, model as reflectnet, preprocess, trainer

METHODS = ("deepreflecs", "craftedforest", "gridcnn")


@dataclass
class ConfusionMatrix:
    """counts[true, predicted] over an evaluated sample set."""

    counts: np.ndarray

    @classmethod
    def from_predictions(
        cls, y_true: Sequence[int], y_pred: Sequence[int], n_classes: int
    ) -> "ConfusionMatrix":
        counts = np.zeros((n_classes, n_classes), dtype=np.int64)
        for t, p in zip(y_true, y_pred):
            counts[t, p] += 1
        return cls(counts)

    def total(self) -> int:
        return int(self.counts.sum())


def accuracies(cm: ConfusionMatrix) -> Tuple[float, np.ndarray]:
    """(total accuracy, per-class recall); empty classes report NaN."""
    counts = cm.counts
    total_count = counts.sum()
    if total_count == 0:
        raise ValueError("confusion matrix is empty")
    total = float(np.trace(counts) / total_count)
    row_sums = counts.sum(axis=1)
    per_class = np.full(counts.shape[0], np.nan)
    nonzero = row_sums > 0
    per_class[nonzero] = counts.diagonal()[nonzero] / row_sums[nonzero]
    return total, per_class


@dataclass
class MetricsReport:
    """Confusion matrix plus total/per-class categorical accuracy."""

    confusion: ConfusionMatrix
    total_accuracy: float
    per_class_accuracy: np.ndarray

    @classmethod
    def from_predictions(cls, y_true, y_pred, n_classes: int) -> "MetricsReport":
        cm = ConfusionMatrix.from_predictions(y_true, y_pred, n_classes)
        total, per_class = accuracies(cm)
        return cls(confusion=cm, total_accuracy=total, per_class_accuracy=per_class)

    def to_json_dict(self) -> dict:
        return {
            "confusion": self.confusion.counts.tolist(),
            "total_accuracy": self.total_accuracy,
            "per_class_accuracy": {
                name: (None if np.isnan(v) else float(v))
                for name, v in zip(preprocess.CLASSES, self.per_class_accuracy)
            },
        }


def _dataset_sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _labels(samples: Sequence[preprocess.ObjectSample]) -> np.ndarray:
    return np.array([s.class_index for s in samples], dtype=np.int64)


def _median_predict_time(predict: Callable, inputs: Sequence, min_runs: int = 100) -> float:
    runs = max(min_runs, len(inputs))
    times = []
    for i in range(runs):
        inp = inputs[i % len(inputs)]
        start = time.perf_counter()
        predict(inp)
        times.append(time.perf_counter() - start)
    return float(np.median(times))


@dataclass
class MethodResult:
    metrics: MetricsReport
    complexity: Dict[str, int]          # parameter or node counts
    inference_time_s: float
    extra: dict = field(default_factory=dict)


def _train_deepreflecs(
    splits, seed: int, config: trainer.TrainConfig, use_gcl: bool = True
) -> Tuple[reflectnet.ReflectNetModel, dict]:
    train_samples, val_samples, _ = splits
    stats = preprocess.compute_norm_stats(train_samples)
    net_config = reflectnet.ReflectNetConfig(use_gcl=use_gcl)
    net = reflectnet.build_model(net_config, seed=seed)
    net.norm_stats = stats

    def inputs(samples):
        return [
            preprocess.prepare_input(s, net_config.pad_length, stats) for s in samples
        ]

    best, report = trainer.train(
        net,
        inputs(train_samples),
        _labels(train_samples),
        [s.class_label for s in train_samples],
        inputs(val_samples),
        _labels(val_samples),
        replace(config, seed=seed),
    )
    return best, {"best_epoch": report.best_epoch}


def _eval_deepreflecs(net: reflectnet.ReflectNetModel, samples) -> Tuple[MetricsReport, float]:
    inputs = [
        preprocess.prepare_input(s, net.config.pad_length, net.norm_stats)
        for s in samples
    ]
    predictions = [dist.predicted for dist in net.predict_batch(inputs)]
    metrics = MetricsReport.from_predictions(
        _labels(samples), predictions, net.config.n_classes
    )
    took = _median_predict_time(net.predict, inputs)
    return metrics, took


def _train_gridcnn(
    splits, seed: int, config: trainer.TrainConfig
) -> Tuple[gridcnn.GridCnnModel, dict]:
    train_samples, val_samples, _ = splits
    net = gridcnn.build_gridcnn(seed=seed)
    train_grids = [gridcnn.rasterize(s) for s in train_samples]
    gridcnn.set_channel_stats(net, train_grids)
    best, report = trainer.train(
        net,
        train_grids,
        _labels(train_samples),
        [s.class_label for s in train_samples],
        [gridcnn.rasterize(s) for s in val_samples],
        _labels(val_samples),
        replace(config, seed=seed),
    )
    return best, {"best_epoch": report.best_epoch}


def _eval_gridcnn(net: gridcnn.GridCnnModel, samples) -> Tuple[MetricsReport, float]:
    grids = [gridcnn.rasterize(s) for s in samples]
    predictions = [dist.predicted for dist in net.predict_batch(grids)]
    metrics = MetricsReport.from_predictions(_labels(samples), predictions, 4)
    took = _median_predict_time(net.predict, grids)
    return metrics, took


def _train_forest(splits, seed: int) -> forest.ForestModel:
    train_samples, _, _ = splits
    features = forest.extract_features(train_samples)
    return forest.fit_forest(features, _labels(train_samples), seed=seed)


def _eval_forest(fitted: forest.ForestModel, samples) -> Tuple[MetricsReport, float]:
    features = forest.extract_features(samples, fitted.feature_config)
    predictions = fitted.predict_batch(features)
    metrics = MetricsReport.from_predictions(
        _labels(samples), predictions, fitted.n_classes
    )
    took = _median_predict_time(fitted.predict, list(features))
    return metrics, took


@dataclass
class BenchmarkReport:
    seed: int
    dataset_sha256: str
    split_sizes: Dict[str, int]
    results: Dict[str, MethodResult]

    def to_json_dict(self, include_timing: bool = False) -> dict:
        methods = {}
        for name, result in self.results.items():
            entry = dict(result.complexity)
            entry.update(result.metrics.to_json_dict())
            entry.update(result.extra)
            if include_timing:
                entry["inference_time_per_sample_s"] = result.inference_time_s
            methods[name] = entry
        return {
            "seed": self.seed,
            "dataset_sha256": self.dataset_sha256,
            "split_sizes": dict(self.split_sizes),
            "methods": methods,
        }

    def timing_dict(self) -> dict:
        return {
            name: result.inference_time_s for name, result in self.results.items()
        }


def run_benchmark(
    data_path: str,
    seed: int,
    config: trainer.TrainConfig | None = None,
    methods: Sequence[str] = METHODS,
) -> BenchmarkReport:
    """Split once, train every requested method on the same splits, test once."""
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method '{m}' (choose from {METHODS})")
    config = config or trainer.TrainConfig()
    samples = preprocess.read_dataset(data_path)
    splits = preprocess.trackwise_split(samples, seed=seed)
    test_samples = splits[2]

    results: Dict[str, MethodResult] = {}
    if "deepreflecs" in methods:
        net, extra = _train_deepreflecs(splits, seed, config)
        metrics, took = _eval_deepreflecs(net, test_samples)
        results["deepreflecs"] = MethodResult(
            metrics, {"param_count": reflectnet.count_params(net)}, took, extra
        )
    if "craftedforest" in methods:
        fitted = _train_forest(splits, seed)
        metrics, took = _eval_forest(fitted, test_samples)
        results["craftedforest"] = MethodResult(
            metrics, {"node_count": forest.count_nodes(fitted)}, took
        )
    if "gridcnn" in methods:
        net, extra = _train_gridcnn(splits, seed, config)
        metrics, took = _eval_gridcnn(net, test_samples)
        results["gridcnn"] = MethodResult(
            metrics, {"param_count": gridcnn.count_params(net)}, took, extra
        )

    return BenchmarkReport(
        seed=seed,
        dataset_sha256=_dataset_sha256(data_path),
        split_sizes={
            "train": len(splits[0]), "val": len(splits[1]), "test": len(test_samples)
        },
        results=results,
    )


@dataclass
class AblationReport:
    seed: int
    dataset_sha256: str
    with_gcl: MethodResult
    without_gcl: MethodResult

    def to_json_dict(self) -> dict:
        with_d = dict(self.with_gcl.complexity)
        with_d.update(self.with_gcl.metrics.to_json_dict())
        without_d = dict(self.without_gcl.complexity)
        without_d.update(self.without_gcl.metrics.to_json_dict())
        per_class_delta = {}
        for name, a, b in zip(
            preprocess.CLASSES,
            self.with_gcl.metrics.per_class_accuracy,
            self.without_gcl.metrics.per_class_accuracy,
        ):
            per_class_delta[name] = (
                None if (np.isnan(a) or np.isnan(b)) else float(a - b)
            )
        return {
            "seed": self.seed,
            "dataset_sha256": self.dataset_sha256,
            "variants": {"with_gcl": with_d, "without_gcl": without_d},
            "delta": {
                "total": self.with_gcl.metrics.total_accuracy
                - self.without_gcl.metrics.total_accuracy,
                "per_class": per_class_delta,
            },
        }


def run_ablation(
    data_path: str,
    seed: int,
    config: trainer.TrainConfig | None = None,
) -> AblationReport:
    """Train with and without the global context layer on identical splits."""
    config = config or trainer.TrainConfig()
    samples = preprocess.read_dataset(data_path)
    splits = preprocess.trackwise_split(samples, seed=seed)
    test_samples = splits[2]

    variants = {}
    for use_gcl in (True, False):
        net, extra = _train_deepreflecs(splits, seed, config, use_gcl=use_gcl)
        metrics, took = _eval_deepreflecs(net, test_samples)
        variants[use_gcl] = MethodResult(
            metrics, {"param_count": reflectnet.count_params(net)}, took, extra
        )
    return AblationReport(
        seed=seed,
        dataset_sha256=_dataset_sha256(data_path),
        with_gcl=variants[True],
        without_gcl=variants[False],
    )
