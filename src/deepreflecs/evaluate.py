"""Metrics, the method table, the three-method benchmark, and the ablation.

Per-class accuracy is class recall: of all test samples whose true class
is c, the fraction predicted as c. Everything downstream of (dataset
bytes, seed) is deterministic; inference timing is measured but kept out
of the canonical report so repeated runs stay byte-identical.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Dict, Sequence, Tuple

import numpy as np

from . import container, forest, gridcnn, model as reflectnet, preprocess, trainer


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


class ConfigError(ValueError):
    """A 'model' config section that the chosen method does not accept."""


@dataclass(frozen=True)
class Method:
    """One classification method, as both the CLI and the benchmark run it."""

    name: str                    # `deepreflecs train --method` name
    key: str                     # key in benchmark reports
    magic: bytes                 # model file magic
    model_keys: Tuple[str, ...]  # the 'model' config keys it accepts
    # (splits, seed, train config, model config) -> (model, TrainReport or None)
    train: Callable
    featurize: Callable          # (model, samples) -> inputs for predict_batch
    predict_batch: Callable      # (model, inputs) -> predicted class indices
    n_classes: Callable          # model -> class count
    complexity: Callable         # model -> {"param_count" or "node_count": n}
    serialize: Callable
    deserialize: Callable

    def check_model_config(self, model_config: dict) -> None:
        unknown = sorted(set(model_config) - set(self.model_keys))
        if unknown:
            raise ConfigError(
                f"method '{self.name}' does not take 'model' config keys {unknown} "
                f"(it takes {list(self.model_keys) or 'none'})"
            )


def _fit_network(net, train_inputs, splits, seed, config, featurize):
    train, val, _ = splits
    return trainer.train(
        net, train_inputs, _labels(train), [s.class_label for s in train],
        featurize(net, val), _labels(val), replace(config, seed=seed),
    )


def _prepare_inputs(net, samples) -> list:
    return [preprocess.prepare_input(s, net.config.pad_length, net.norm_stats) for s in samples]


def _reflectnet_trained(splits, seed, config, model_config):
    net = reflectnet.build_model(reflectnet.ReflectNetConfig(**model_config), seed=seed)
    net.norm_stats = preprocess.compute_norm_stats(splits[0])
    inputs = _prepare_inputs(net, splits[0])
    return _fit_network(net, inputs, splits, seed, config, _prepare_inputs)


def _rasterize(net, samples) -> list:
    return [gridcnn.rasterize(s) for s in samples]


def _gridcnn_trained(splits, seed, config, model_config):
    net = gridcnn.build_gridcnn(seed=seed)
    grids = _rasterize(net, splits[0])
    gridcnn.set_channel_stats(net, grids)
    return _fit_network(net, grids, splits, seed, config, _rasterize)


def _forest_trained(splits, seed, config, model_config):
    features = forest.extract_features(splits[0])
    return forest.fit_forest(features, _labels(splits[0]), seed=seed), None


def _predicted(net, inputs) -> list:
    return [dist.predicted for dist in net.predict_batch(inputs)]


TABLE = (  # in benchmark report order
    Method(
        name="deepreflecs", key="deepreflecs", magic=reflectnet.MAGIC,
        model_keys=tuple(f.name for f in fields(reflectnet.ReflectNetConfig)),
        train=_reflectnet_trained, featurize=_prepare_inputs, predict_batch=_predicted,
        n_classes=lambda net: net.config.n_classes,
        complexity=lambda net: {"param_count": reflectnet.count_params(net)},
        serialize=reflectnet.serialize, deserialize=reflectnet.deserialize,
    ),
    Method(
        name="forest", key="craftedforest", magic=forest.MAGIC, model_keys=(),
        train=_forest_trained,
        featurize=lambda fitted, samples: forest.extract_features(samples, fitted.feature_config),
        predict_batch=lambda fitted, features: fitted.predict_batch(features),
        n_classes=lambda fitted: fitted.n_classes,
        complexity=lambda fitted: {"node_count": forest.count_nodes(fitted)},
        serialize=forest.serialize, deserialize=forest.deserialize,
    ),
    Method(
        name="gridcnn", key="gridcnn", magic=gridcnn.MAGIC, model_keys=(),
        train=_gridcnn_trained, featurize=_rasterize, predict_batch=_predicted,
        n_classes=lambda net: gridcnn.N_CLASSES,
        complexity=lambda net: {"param_count": gridcnn.count_params(net)},
        serialize=gridcnn.serialize, deserialize=gridcnn.deserialize,
    ),
)
METHODS = tuple(method.key for method in TABLE)
BY_NAME = {method.name: method for method in TABLE}


def method_for(blob: bytes) -> Method:
    """The method whose model file this is, by its magic."""
    magic = container.peek_magic(blob)
    for method in TABLE:
        if method.magic == magic:
            return method
    raise container.MagicError(f"unrecognized model magic {magic!r}")


def evaluate_model(method: Method, model, samples) -> Tuple[MetricsReport, Sequence]:
    """Metrics of a model on samples, plus the featurized inputs it predicted."""
    inputs = method.featurize(model, samples)
    predictions = method.predict_batch(model, inputs)
    n_classes = method.n_classes(model)
    return MetricsReport.from_predictions(_labels(samples), predictions, n_classes), inputs


def _train_and_test(method: Method, splits, seed, config, model_config) -> MethodResult:
    model, report = method.train(splits, seed, config, model_config)
    metrics, inputs = evaluate_model(method, model, splits[2])
    extra = {} if report is None else {"best_epoch": report.best_epoch}
    took = _median_predict_time(model.predict, inputs)
    return MethodResult(metrics, method.complexity(model), took, extra)


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
    results = {
        method.key: _train_and_test(method, splits, seed, config, {})
        for method in TABLE
        if method.key in methods
    }
    return BenchmarkReport(
        seed=seed,
        dataset_sha256=_dataset_sha256(data_path),
        split_sizes={
            "train": len(splits[0]), "val": len(splits[1]), "test": len(splits[2])
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
    variants = {
        use_gcl: _train_and_test(
            BY_NAME["deepreflecs"], splits, seed, config, {"use_gcl": use_gcl}
        )
        for use_gcl in (True, False)
    }
    return AblationReport(
        seed=seed,
        dataset_sha256=_dataset_sha256(data_path),
        with_gcl=variants[True],
        without_gcl=variants[False],
    )
