"""Training loop: geometric LR schedule, class re-sampling, best-epoch pick.

Works with any model exposing copy()/train_step()/predict_batch() (the
reflection network and the grid CNN both do). The learning rate decays
geometrically from lr_start to lr_end across epochs, the training set is
re-balanced by integer duplication factors per class, and the returned
model is the parameter snapshot of the epoch with the best validation
accuracy (earliest epoch wins ties).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from . import nn

# re-sampling factors balancing the class skew of the reference scenario mix
DEFAULT_RESAMPLE = {"car": 1, "pedestrian": 2, "cyclist": 2, "non_obstacle": 4}

# full-scale reference settings: 256 epochs x 1024 steps x batch 512
PAPER_EPOCHS, PAPER_STEPS, PAPER_BATCH = 256, 1024, 512


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class TrainConfig:
    """Desk-scale defaults; pass the full-scale values explicitly if wanted."""

    epochs: int = 32
    steps_per_epoch: int = 64
    batch_size: int = 64
    lr_start: float = 0.01
    lr_end: float = 0.0001
    resample_factors: Dict[str, int] = field(
        default_factory=lambda: dict(DEFAULT_RESAMPLE)
    )
    seed: int = 0
    optimizer: str = "adam"
    # when True, steps_per_epoch is read as a total budget spread over epochs
    steps_are_total: bool = False

    def __post_init__(self):
        for name in ("epochs", "steps_per_epoch", "batch_size", "seed"):
            if not _is_int(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, not {getattr(self, name)!r}")
        if min(self.epochs, self.steps_per_epoch, self.batch_size) < 1:
            raise ValueError("epochs, steps and batch size must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, not {self.seed}")
        for name in ("lr_start", "lr_end"):
            value = getattr(self, name)
            is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
            if not is_number or not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number, not {value!r}")
        if not (self.lr_start > self.lr_end > 0):
            raise ValueError("need lr_start > lr_end > 0")
        factors = self.resample_factors
        if not isinstance(factors, dict) or not all(
            isinstance(k, str) and _is_int(v) and v >= 0 for k, v in factors.items()
        ):
            raise ValueError(
                f"resample_factors must map class names to integers >= 0, not {factors!r}"
            )
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"optimizer must be 'adam' or 'sgd', not {self.optimizer!r}")
        if not isinstance(self.steps_are_total, bool):
            raise ValueError(
                f"steps_are_total must be true or false, not {self.steps_are_total!r}"
            )

    def steps_in_epoch(self) -> int:
        if self.steps_are_total:
            return max(1, self.steps_per_epoch // self.epochs)
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
    """Geometric decay hitting lr_start at epoch 0 and lr_end at the last epoch."""
    if not 0 <= epoch < config.epochs:
        raise ValueError(f"epoch {epoch} outside [0, {config.epochs})")
    if epoch == 0:
        return config.lr_start
    if epoch == config.epochs - 1:
        return config.lr_end
    fraction = epoch / (config.epochs - 1)
    return config.lr_start * (config.lr_end / config.lr_start) ** fraction


def resample_indices(
    class_labels: Sequence[str], factors: Dict[str, int]
) -> np.ndarray:
    """Index multiset where sample i of class c appears factors[c] times."""
    out: List[int] = []
    for i, label in enumerate(class_labels):
        out.extend([i] * int(factors.get(label, 1)))
    return np.array(out, dtype=np.int64)


def _accuracy(model, inputs, labels: np.ndarray) -> float:
    predicted = np.array([dist.predicted for dist in model.predict_batch(inputs)])
    return int(np.count_nonzero(predicted == labels)) / len(labels)


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
    model = model.copy()
    rng = np.random.default_rng(config.seed)
    multiset = resample_indices(train_class_labels, config.resample_factors)
    if multiset.size == 0:
        raise nn.TrainingError(
            f"resample_factors {config.resample_factors} leave no training samples "
            f"of the classes {sorted(set(train_class_labels))}"
        )
    train_labels = np.asarray(train_labels, dtype=np.int64)
    val_labels = np.asarray(val_labels, dtype=np.int64)

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
            batch = [train_inputs[i] for i in draw]
            try:
                loss, opt_state = model.train_step(
                    batch, train_labels[draw], lr, opt_state, rng=rng,
                    optimizer=config.optimizer,
                )
            except nn.TrainingError as exc:
                raise nn.TrainingError(
                    f"epoch {epoch} step {step}: {exc}"
                ) from exc
            losses.append(loss)
        epoch_losses.append(float(np.mean(losses)))
        accuracy = _accuracy(model, val_inputs, val_labels)
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
