"""Training loop: geometric LR schedule, class re-sampling, best-epoch pick.

Works with any model exposing copy()/stage()/train_step()/predict_batch()
(the reflection network and the grid CNN both do). A run stages its
training and validation inputs once: stage() turns a list of inputs into
the model's one batch form, indexing the staged set with an index array
gives a batch of those inputs, and train_step and predict_batch take
such a staged batch; predict_batch returns the (B, n_classes) probability
matrix, whose row argmax is the predicted class. Before any step, labels
pass preprocess.class_indices and each class name must be CLASSES[label].
The learning rate decays geometrically from lr_start at the first epoch
to lr_end at the last (a single epoch runs at lr_start), the training set
is re-balanced by the integer duplication factors RESAMPLE per class,
and the returned model is the parameter snapshot of the epoch with the
best validation accuracy (earliest epoch wins ties).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Annotated, List, Sequence, Tuple

import numpy as np

from . import nn, schema
from .preprocess import CLASSES, class_indices

# re-sampling factors balancing the class skew of the reference scenario mix
RESAMPLE = {"car": 1, "pedestrian": 2, "cyclist": 2, "non_obstacle": 4}

# upper bound of batch_size: it keeps the largest array the field drives
# under 1 GiB, with the other settings at their defaults (README)
MAX_BATCH_SIZE = 2**15


@dataclass(frozen=True)
class TrainConfig:
    """Desk-scale defaults; pass the full-scale values explicitly if wanted."""

    epochs: Annotated[int, schema.Range(1)] = 32
    steps_per_epoch: Annotated[int, schema.Range(1)] = 64
    batch_size: Annotated[int, schema.Range(1, MAX_BATCH_SIZE)] = 64
    lr_start: float = 0.01
    lr_end: float = 0.0001
    seed: Annotated[int, schema.Range(0)] = 0

    def __post_init__(self):
        schema.check(self)
        if not (self.lr_start > self.lr_end > 0):
            raise schema.ConfigError("need lr_start > lr_end > 0")

    def steps_in_epoch(self) -> int:
        """steps_per_epoch; perfbench/ counts a run's steps through this name."""
        return self.steps_per_epoch


@dataclass
class TrainReport:
    epoch_losses: List[float]
    val_accuracies: List[float]
    best_epoch: int
    wall_time_s: float

    def core(self) -> dict:
        """The deterministic part of the report (everything but wall time)."""
        return {
            "epoch_losses": list(self.epoch_losses),
            "val_accuracies": list(self.val_accuracies),
            "best_epoch": self.best_epoch,
        }

    def to_json_dict(self) -> dict:
        out = self.core()
        out["wall_time_s"] = self.wall_time_s
        return out


def lr_at(epoch: int, config: TrainConfig) -> float:
    """Geometric decay hitting lr_start at epoch 0 and lr_end at the last epoch;
    with epochs=1 the one epoch is epoch 0, at lr_start."""
    if not 0 <= epoch < config.epochs:
        raise ValueError(f"epoch {epoch} outside [0, {config.epochs})")
    if epoch == 0:
        return config.lr_start
    if epoch == config.epochs - 1:
        return config.lr_end
    fraction = epoch / (config.epochs - 1)
    return config.lr_start * (config.lr_end / config.lr_start) ** fraction


def resample_indices(class_labels: Sequence[str]) -> np.ndarray:
    """Index multiset where sample i of class c appears RESAMPLE[c] times, in order."""
    counts = [RESAMPLE[label] for label in class_labels]
    return np.repeat(np.arange(len(counts), dtype=np.int64), counts)


def _accuracy(model, inputs, labels: np.ndarray) -> float:
    predicted = model.predict_batch(inputs).argmax(axis=1)
    return int(np.count_nonzero(predicted == labels)) / len(labels)


def _check_splits(train_inputs, train_labels, train_class_labels, val_inputs, val_labels):
    """The labels through class_indices; class label i must be CLASSES[train_labels[i]]."""
    train_labels = class_indices(train_labels, len(CLASSES), "training labels")
    val_labels = class_indices(val_labels, len(CLASSES), "validation labels")
    lengths = (len(train_inputs), len(train_labels), len(train_class_labels))
    if len(set(lengths)) != 1:
        raise nn.TrainingError(
            "training inputs, labels and class labels differ in length: %d, %d and %d"
            % lengths
        )
    if len(train_inputs) == 0:
        raise nn.TrainingError("empty training set")
    if len(val_inputs) == 0:
        raise nn.TrainingError("empty validation set")
    if len(val_inputs) != len(val_labels):
        raise nn.TrainingError(
            f"{len(val_inputs)} validation inputs but {len(val_labels)} validation labels"
        )
    for i, (label, name) in enumerate(zip(train_labels, train_class_labels)):
        if CLASSES[label] != name:
            raise ValueError(f"training sample {i} has label {label} ({CLASSES[label]}) "
                             f"but class label {name!r}")
    return train_labels, val_labels


def train(
    model,
    train_inputs: Sequence,
    train_labels: np.ndarray,
    train_class_labels: Sequence[str],
    val_inputs: Sequence,
    val_labels: np.ndarray,
    config: TrainConfig = TrainConfig(),
) -> Tuple[object, TrainReport]:
    """Run the full schedule and return (best-epoch model, report).

    The passed model is not mutated; training happens on a copy.
    The validation set is evaluated after every epoch and never re-sampled.
    """
    started = time.perf_counter()
    train_labels, val_labels = _check_splits(
        train_inputs, train_labels, train_class_labels, val_inputs, val_labels
    )
    model = model.copy()
    rng = np.random.default_rng(config.seed)
    multiset = resample_indices(train_class_labels)
    train_set = model.stage(train_inputs)
    val_set = model.stage(val_inputs)

    opt_state = None
    epoch_losses: List[float] = []
    val_accuracies: List[float] = []
    best_epoch = 0
    best_accuracy = -1.0
    best_snapshot = None
    steps = config.steps_in_epoch()
    for epoch in range(config.epochs):
        lr = lr_at(epoch, config)
        losses = []
        for step in range(steps):
            draw = multiset[rng.integers(0, multiset.size, size=config.batch_size)]
            try:
                loss, opt_state = model.train_step(
                    train_set[draw], train_labels[draw], lr, opt_state, rng=rng
                )
            except nn.TrainingError as exc:
                raise nn.TrainingError(
                    f"epoch {epoch} step {step}: {exc}"
                ) from exc
            losses.append(loss)
        epoch_losses.append(float(np.mean(losses)))
        accuracy = _accuracy(model, val_set, val_labels)
        val_accuracies.append(accuracy)
        if accuracy > best_accuracy:  # strict: ties keep the earliest epoch
            best_accuracy = accuracy
            best_epoch = epoch
            best_snapshot = model.copy()

    report = TrainReport(
        epoch_losses=epoch_losses,
        val_accuracies=val_accuracies,
        best_epoch=best_epoch,
        wall_time_s=time.perf_counter() - started,
    )
    return best_snapshot, report
