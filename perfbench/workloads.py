"""The three desk workloads: one per classification method.

Each method is driven only through the public functions of the
deepreflecs modules, along the path a user takes: featurize, train on a
fixed shortened schedule, save the model to container bytes, evaluate a
whole dataset from those bytes (the ``deepreflecs eval`` path) and
classify objects one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from deepreflecs import evaluate, forest, gridcnn, model as reflectnet, preprocess, trainer

N_CLASSES = len(preprocess.CLASSES)


def labels_of(samples: Sequence[preprocess.ObjectSample]) -> np.ndarray:
    return np.array([s.class_index for s in samples], dtype=np.int64)


@dataclass
class Prepared:
    """What set-up hands to training: the untrained model plus featurized splits."""

    seed: int
    initial: object
    train_inputs: list
    train_labels: np.ndarray
    train_class_labels: List[str]
    val_inputs: list
    val_labels: np.ndarray


@dataclass(frozen=True)
class NetworkMethod:
    """A network trained by ``trainer.train``; ``predict`` gives a ClassDistribution."""

    module: object
    schedule: trainer.TrainConfig
    # (seed, train samples) -> (untrained model, featurized train samples)
    build: Callable[[int, Sequence[preprocess.ObjectSample]], Tuple[object, list]]
    featurize: Callable[[object, preprocess.ObjectSample], object]

    def prepare(self, train, val, seed: int) -> Prepared:
        net, train_inputs = self.build(seed, train)
        return Prepared(
            seed=seed,
            initial=net,
            train_inputs=train_inputs,
            train_labels=labels_of(train),
            train_class_labels=[s.class_label for s in train],
            val_inputs=[self.featurize(net, s) for s in val],
            val_labels=labels_of(val),
        )

    def warm_up(self, prep: Prepared) -> None:
        batch = self.schedule.batch_size
        net = prep.initial.copy()
        net.train_step(
            prep.train_inputs[:batch], prep.train_labels[:batch],
            self.schedule.lr_start, None, rng=np.random.default_rng(prep.seed),
        )
        net.predict(prep.val_inputs[0])

    def samples_per_train(self, prep: Prepared) -> int:
        return self.schedule.epochs * self.schedule.steps_in_epoch() * self.schedule.batch_size

    def train(self, prep: Prepared):
        best, _ = trainer.train(
            prep.initial,
            prep.train_inputs, prep.train_labels, prep.train_class_labels,
            prep.val_inputs, prep.val_labels,
            replace(self.schedule, seed=prep.seed),
        )
        return best

    def serialize(self, net) -> bytes:
        return self.module.serialize(net)

    def deserialize(self, blob: bytes):
        return self.module.deserialize(blob)

    def predict_all(self, net, samples) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        inputs = [self.featurize(net, s) for s in samples]
        dists = [net.predict(x) for x in inputs]
        return (
            np.array([d.predicted for d in dists], dtype=np.int64),
            np.stack([d.probabilities for d in dists]),
        )

    def classify(self, net, sample) -> Tuple[int, Optional[np.ndarray]]:
        dist = net.predict(self.featurize(net, sample))
        return dist.predicted, dist.probabilities


def _build_reflectnet(seed: int, train) -> Tuple[reflectnet.ReflectNetModel, list]:
    net = reflectnet.build_model(reflectnet.ReflectNetConfig(), seed=seed)
    net.norm_stats = preprocess.compute_norm_stats(train)
    return net, [_prepare_reflectnet_input(net, s) for s in train]


def _prepare_reflectnet_input(net, sample) -> preprocess.PaddedInput:
    return preprocess.prepare_input(sample, net.config.pad_length, net.norm_stats)


def _build_gridcnn(seed: int, train) -> Tuple[gridcnn.GridCnnModel, list]:
    net = gridcnn.build_gridcnn(seed=seed)
    grids = [gridcnn.rasterize(s) for s in train]
    gridcnn.set_channel_stats(net, grids)
    return net, grids


def _rasterize(net, sample) -> gridcnn.Grid:
    return gridcnn.rasterize(sample)


class ForestMethod:
    """The handcrafted-feature random forest; ``predict`` gives a class index."""

    def prepare(self, train, val, seed: int) -> Prepared:
        return Prepared(
            seed=seed,
            initial=None,
            train_inputs=forest.extract_features(train),
            train_labels=labels_of(train),
            train_class_labels=[s.class_label for s in train],
            val_inputs=[],
            val_labels=np.zeros(0, dtype=np.int64),
        )

    def warm_up(self, prep: Prepared) -> None:
        fitted = forest.fit_forest(
            prep.train_inputs, prep.train_labels, n_trees=2, seed=prep.seed
        )
        fitted.predict(prep.train_inputs[0])

    def samples_per_train(self, prep: Prepared) -> int:
        return len(prep.train_labels)

    def train(self, prep: Prepared) -> forest.ForestModel:
        # default 100 trees, as `deepreflecs train --method forest` fits
        return forest.fit_forest(prep.train_inputs, prep.train_labels, seed=prep.seed)

    def serialize(self, fitted) -> bytes:
        return forest.serialize(fitted)

    def deserialize(self, blob: bytes) -> forest.ForestModel:
        return forest.deserialize(blob)

    def predict_all(self, fitted, samples) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        features = forest.extract_features(samples, fitted.feature_config)
        return np.asarray(fitted.predict_batch(features), dtype=np.int64), None

    def classify(self, fitted, sample) -> Tuple[int, Optional[np.ndarray]]:
        x = forest.extract_handcrafted(sample, fitted.feature_config)
        return fitted.predict(x), None


def eval_from_bytes(method, blob: bytes, samples, labels: np.ndarray):
    """The ``deepreflecs eval`` path without its file reads.

    Loads the model from container bytes, featurizes and predicts every
    sample and builds the MetricsReport. Returns the loaded model, the
    predictions and (for the networks) the class probabilities.
    """
    loaded = method.deserialize(blob)
    predictions, probabilities = method.predict_all(loaded, samples)
    evaluate.MetricsReport.from_predictions(labels, predictions, N_CLASSES)
    return loaded, predictions, probabilities


# Shortened schedules. The reflection network keeps the CLI's learning-rate
# range; the grid CNN gets a gentler range so 32 steps already reach about
# 0.9 test accuracy instead of predicting the majority class.
WORKLOADS = {
    "deepreflecs_desk": NetworkMethod(
        module=reflectnet,
        schedule=trainer.TrainConfig(epochs=4, steps_per_epoch=32, batch_size=64),
        build=_build_reflectnet,
        featurize=_prepare_reflectnet_input,
    ),
    "gridcnn_desk": NetworkMethod(
        module=gridcnn,
        schedule=trainer.TrainConfig(
            epochs=4, steps_per_epoch=8, batch_size=64, lr_start=0.003, lr_end=0.001
        ),
        build=_build_gridcnn,
        featurize=_rasterize,
    ),
    "forest_desk": ForestMethod(),
}
