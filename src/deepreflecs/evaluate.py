"""Metrics, the method table, and the one runner behind the benchmark and the ablation.

Per-class accuracy is class recall: of all test samples whose true class
is c, the fraction predicted as c. Everything downstream of (dataset
bytes, train config) is deterministic; nn states when it also holds
across BLAS thread counts. Inference timing is measured only for the
benchmark, which reports it apart from the canonical report so repeated
runs stay byte-identical; the ablation never times.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from . import container, forest, gridcnn, model as reflectnet, preprocess, schema, trainer


@dataclass
class MetricsReport:
    """Confusion counts[true, predicted] plus total/per-class categorical accuracy."""

    confusion: np.ndarray
    total_accuracy: float
    per_class_accuracy: np.ndarray

    @classmethod
    def from_predictions(cls, y_true, y_pred, n_classes: int) -> "MetricsReport":
        """One count per (label, prediction) pair, by one bincount; classes
        with no samples report NaN.

        Labels and predictions must each pass preprocess.class_indices;
        different lengths are a ValueError, and so is an empty set.
        """
        y_true = preprocess.class_indices(y_true, n_classes, "labels")
        y_pred = preprocess.class_indices(y_pred, n_classes, "predictions")
        if y_true.size != y_pred.size:
            raise ValueError(f"{y_true.size} labels for {y_pred.size} predictions")
        if y_true.size == 0:
            raise ValueError("confusion matrix is empty")
        counts = np.bincount(y_true * n_classes + y_pred, minlength=n_classes * n_classes)
        counts = counts.reshape(n_classes, n_classes)
        row_sums = counts.sum(axis=1)
        per_class = np.full(n_classes, np.nan)
        nonzero = row_sums > 0
        per_class[nonzero] = counts.diagonal()[nonzero] / row_sums[nonzero]
        return cls(counts, float(np.trace(counts) / counts.sum()), per_class)

    def to_json_dict(self) -> dict:
        return {
            "confusion": self.confusion.tolist(),
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


def _median_predict_time(predict: Callable, inputs: Sequence) -> float:
    runs = max(100, len(inputs))  # at least 100 timed calls, cycling through the inputs
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
    inference_time_s: Optional[float]   # median single-object predict; None if untimed
    best_epoch: Optional[int] = None    # of a trained network; None for the forest

    def to_json_dict(self) -> dict:
        """Its report entry: complexity and metrics, leaving best_epoch to the report."""
        return {**self.complexity, **self.metrics.to_json_dict()}


@dataclass(frozen=True)
class Method:
    """One classification method, as both the CLI and the benchmark run it."""

    name: str                    # CLI name, printed in `deepreflecs train` summaries
    key: str                     # key in benchmark reports; BY_NAME takes either name
    magic: bytes                 # model file magic
    # (splits, train config with the seed, model config or None) -> (model, TrainReport or None)
    train: Callable
    featurize: Callable          # (model, samples) -> inputs for predict_batch
    predict_batch: Callable      # (model, inputs) -> predicted class indices
    complexity: Callable         # model -> {"param_count" or "node_count": n}
    serialize: Callable
    deserialize: Callable


def _fit_network(net, train_inputs, splits, config, featurize):
    train, val, _ = splits
    return trainer.train(
        net, train_inputs, _labels(train), [s.class_label for s in train],
        featurize(net, val), _labels(val), config,
    )


def _prepare_inputs(net, samples) -> list:
    return [preprocess.prepare_input(s, net.config.pad_length, net.norm_stats) for s in samples]


def _reflectnet_trained(splits, config, model_config):
    net = reflectnet.build_model(model_config or reflectnet.ReflectNetConfig(), seed=config.seed)
    net.norm_stats = preprocess.compute_norm_stats(splits[0])
    inputs = _prepare_inputs(net, splits[0])
    return _fit_network(net, inputs, splits, config, _prepare_inputs)


def _rasterize(net, samples) -> list:
    return [gridcnn.rasterize(s) for s in samples]


def _gridcnn_trained(splits, config, model_config):
    net = gridcnn.build_gridcnn(seed=config.seed)
    grids = _rasterize(net, splits[0])
    gridcnn.set_channel_stats(net, grids)
    return _fit_network(net, grids, splits, config, _rasterize)


def _forest_trained(splits, config, model_config):
    features = forest.extract_features(splits[0])
    return forest.fit_forest(features, _labels(splits[0]), seed=config.seed), None


def _predicted(net, inputs) -> np.ndarray:
    return net.predict_batch(net.stage(inputs)).argmax(axis=1)


TABLE = (  # in benchmark report order
    Method(
        name="deepreflecs", key="deepreflecs", magic=reflectnet.MAGIC,
        train=_reflectnet_trained, featurize=_prepare_inputs, predict_batch=_predicted,
        complexity=lambda net: {"param_count": net.vector.size},
        serialize=reflectnet.serialize, deserialize=reflectnet.deserialize,
    ),
    Method(
        name="forest", key="craftedforest", magic=forest.MAGIC, train=_forest_trained,
        featurize=lambda fitted, samples: forest.extract_features(samples, fitted.feature_config),
        predict_batch=lambda fitted, features: fitted.predict_batch(features),
        complexity=lambda fitted: {"node_count": forest.count_nodes(fitted)},
        serialize=forest.serialize, deserialize=forest.deserialize,
    ),
    Method(
        name="gridcnn", key="gridcnn", magic=gridcnn.MAGIC, train=_gridcnn_trained,
        featurize=_rasterize, predict_batch=_predicted,
        complexity=lambda net: {"param_count": net.vector.size},
        serialize=gridcnn.serialize, deserialize=gridcnn.deserialize,
    ),
)
METHODS = tuple(method.key for method in TABLE)
BY_NAME = {name: method for method in TABLE for name in (method.name, method.key)}


def method_for(blob: bytes) -> Method:
    """The method whose model file this is, by its magic."""
    magic = container.peek_magic(blob)
    for method in TABLE:
        if method.magic == magic:
            return method
    raise container.MagicError(f"unrecognized model magic {magic!r}")


def evaluate_model(method: Method, model, samples) -> Tuple[MetricsReport, Sequence]:
    """Metrics of a model on samples, plus the featurized inputs it predicted."""
    if len(samples) == 0:
        raise preprocess.DatasetError(preprocess.NO_SAMPLES)
    inputs = method.featurize(model, samples)
    predictions = method.predict_batch(model, inputs)
    report = MetricsReport.from_predictions(_labels(samples), predictions, len(preprocess.CLASSES))
    return report, inputs


def _train_and_test(method: Method, splits, config, model_config, timed) -> MethodResult:
    model, report = method.train(splits, config, model_config)
    metrics, inputs = evaluate_model(method, model, splits[2])
    took = _median_predict_time(model.predict, inputs) if timed else None
    best_epoch = None if report is None else report.best_epoch
    return MethodResult(metrics, method.complexity(model), took, best_epoch)


@dataclass
class Report:
    """The results of one split, trained and tested entry by entry."""

    seed: int
    dataset_sha256: str
    split_sizes: Dict[str, int]
    results: Dict[str, MethodResult]  # by report name

    def benchmark_json(self) -> dict:
        """The canonical benchmark report; it leaves out timing, see timing_dict."""
        methods = {}
        for name, result in self.results.items():
            methods[name] = result.to_json_dict()
            if result.best_epoch is not None:
                methods[name]["best_epoch"] = result.best_epoch
        return {
            "seed": self.seed,
            "dataset_sha256": self.dataset_sha256,
            "split_sizes": dict(self.split_sizes),
            "methods": methods,
        }

    def ablation_json(self) -> dict:
        """The canonical ablation report: both variants, and with minus without."""
        with_gcl, without_gcl = (self.results[k].metrics for k in ("with_gcl", "without_gcl"))
        per_class = with_gcl.per_class_accuracy - without_gcl.per_class_accuracy
        return {
            "seed": self.seed,
            "dataset_sha256": self.dataset_sha256,
            "variants": {name: result.to_json_dict() for name, result in self.results.items()},
            "delta": {
                "total": with_gcl.total_accuracy - without_gcl.total_accuracy,
                "per_class": {
                    name: None if np.isnan(d) else float(d)
                    for name, d in zip(preprocess.CLASSES, per_class)
                },
            },
        }

    def timing_dict(self) -> dict:
        """Median single-object predict seconds by report name (None where untimed)."""
        return {name: result.inference_time_s for name, result in self.results.items()}


def _run(
    data_path: str, config, entries: Dict[str, Tuple[Method, object]], timed: bool,
) -> Report:
    """Split once, then train and test each (method, model config) entry on those splits.

    timed measures each entry's single-object predict time for timing_dict.
    """
    splits = preprocess.trackwise_split(preprocess.read_dataset(data_path), seed=config.seed)
    return Report(
        seed=config.seed,
        dataset_sha256=_dataset_sha256(data_path),
        split_sizes=dict(zip(("train", "val", "test"), map(len, splits))),
        results={
            key: _train_and_test(method, splits, config, model_config, timed)
            for key, (method, model_config) in entries.items()
        },
    )


def run_benchmark(
    data_path: str,
    config: trainer.TrainConfig = trainer.TrainConfig(),
    methods: Sequence[str] = METHODS,
) -> Report:
    """Every requested method (by either name) once, under its report key, on the same splits."""
    for m in methods:
        if m not in BY_NAME:
            raise schema.ConfigError(f"unknown method {m!r} (the methods are {list(BY_NAME)})")
    keys = {BY_NAME[m].key for m in methods}
    entries = {method.key: (method, None) for method in TABLE if method.key in keys}
    return _run(data_path, config, entries, timed=True)


def run_ablation(data_path: str, config: trainer.TrainConfig = trainer.TrainConfig()) -> Report:
    """The network with and without the global context layer on the same splits."""
    net = BY_NAME["deepreflecs"]
    return _run(data_path, config, {
        "with_gcl": (net, reflectnet.ReflectNetConfig(use_gcl=True)),
        "without_gcl": (net, reflectnet.ReflectNetConfig(use_gcl=False)),
    }, timed=False)
