"""The reflection-list classification network.

Pipeline (per sample): row-wise linear + ReLU on each reflection's five
features, optional global context layer, a second row-wise linear + ReLU,
global max pooling over the reflection list, and a dense softmax head.
The two pooling-style layers have no learnable parameters; with the
default widths the whole network has exactly 1,284 of them.

Each max pool runs on pre-activations, with the ReLU after it: ReLU is
monotone, so the outputs equal those of pooling after the ReLU bit for
bit. Pre-activations almost never tie, so the backward pass routes each
pooled gradient to its single winning row; on a tie it falls back to the
first winner (nn.segment_max_pool_backward).

Batches are ragged: ReflectNetModel.stage checks a list of inputs and
concatenates their rows into one Staged table, with segment offsets
marking where each sample starts, and every layer runs once over the
whole batch. An input holds only its real rows, so the output does not
depend on the pad length, which only caps how many rows an input keeps.
predict_batch, loss_and_grads (which checks the labels) and train_step
take only a Staged batch at model precision; a training run stages its
inputs once and gathers each batch by index. One input (forward) skips
the batch bookkeeping: its rows run through forward_rows as one segment.

The model is an nn.Network over the layer table ReflectNetConfig.layers().
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Annotated, Dict, Sequence, Tuple

import numpy as np

from . import nn, schema
from .preprocess import CLASSES, N_FEATURES, NormStats, PaddedInput

MAGIC = b"RFLN"

# largest accepted pad length, the most reflection rows an input keeps
MAX_PAD_LENGTH = 4096
# largest accepted layer width; README gives the array each size bound limits
MAX_WIDTH = 1024


@dataclass(frozen=True)
class ReflectNetConfig:
    """Architecture knobs; defaults give the 1,284-parameter build."""

    # the five reflection features and the four classes, each its only value
    n_features: Annotated[int, schema.Range(N_FEATURES, N_FEATURES)] = N_FEATURES
    width1: Annotated[int, schema.Range(1, MAX_WIDTH)] = 16
    width2: Annotated[int, schema.Range(1, MAX_WIDTH)] = 32
    n_classes: Annotated[int, schema.Range(len(CLASSES), len(CLASSES))] = len(CLASSES)
    pad_length: Annotated[int, schema.Range(1, MAX_PAD_LENGTH)] = 64
    use_gcl: bool = True  # the ablation switch

    def __post_init__(self):
        schema.check(self)

    def layers(self) -> Dict[str, Tuple[int, int]]:
        """(fan_in, fan_out) weight shape of each linear layer, in field order."""
        return {
            "conv1": (self.n_features, self.width1),
            # the global context layer doubles the width it feeds into conv2
            "conv2": (2 * self.width1 if self.use_gcl else self.width1, self.width2),
            "head": (self.width2, self.n_classes),
        }


@dataclass
class ReflectNetModel(nn.Network):
    config: ReflectNetConfig
    conv1: nn.LinearParams
    conv2: nn.LinearParams
    head: nn.LinearParams
    norm_stats: NormStats

    safe_margin = 1e-4  # least kink margin of a gradient-check sample

    def layer_shapes(self) -> nn.LayerShapes:
        return self.config.layers()

    def random_input(self, rng: np.random.Generator) -> PaddedInput:
        """2 to pad_length standard-normal reflections, for gradient checks."""
        m = int(rng.integers(2, self.config.pad_length + 1))
        return PaddedInput(rng.standard_normal((m, self.config.n_features)), self.config.pad_length)

    def kink_margin(self, inp: PaddedInput) -> float:
        """nn.kink_margin of one sample's float64 forward pass."""
        rows = _checked_rows(inp, 0, self.config.n_features).astype(np.float64)
        _, cache = forward_rows(self.astype(np.float64), rows, None, keep_cache=True)
        # the tie margins of the post-ReLU pool inputs: a tie at a positive
        # maximum is a kink of either pool order
        h2 = nn.relu(cache["z2"])
        pools = [nn.relu(cache["z1"]), h2] if self.config.use_gcl else [h2]
        return nn.kink_margin([cache["z1"], cache["z2"]], pools)

    def predict(self, inp: PaddedInput) -> nn.ClassDistribution:
        return forward(self, inp)

    def stage(self, inputs: Sequence[PaddedInput]) -> "Staged":
        """The rows of every input as one ragged batch, at model precision, for
        predict_batch and training. Each input is checked as forward checks one."""
        if len(inputs) == 0:
            raise nn.ShapeError("cannot stage an empty list of inputs")
        parts = [_checked_rows(inp, i, self.config.n_features) for i, inp in enumerate(inputs)]
        lengths = np.array([len(part) for part in parts], dtype=np.intp)
        rows = np.concatenate(parts).astype(self.vector.dtype, copy=False)
        return Staged(rows, nn.Segments.from_lengths(lengths), lengths)

    def predict_batch(self, staged: "Staged") -> np.ndarray:
        """The float64 (B, n_classes) probabilities of a staged batch, run as one ragged batch.

        Row b holds input b's probabilities and its argmax (ties -> lowest index) is
        the predicted class, forward's bits if B is 1, else up to float rounding.
        """
        nn.check_staged(staged, Staged, self.vector.dtype)
        return nn.finite(forward_rows(self, staged.rows, staged.segments))

    def train_step(self, batch, labels, lr, opt_state, rng=None):
        """train_step on a Staged batch, or on a list of inputs staged first."""
        if isinstance(batch, list):
            batch = self.stage(batch)
        return train_step(self, batch, labels, lr, opt_state)


def build_model(config: ReflectNetConfig = ReflectNetConfig(), seed: int = 0) -> ReflectNetModel:
    """Seeded float32 uniform fan-in/fan-out init; deterministic for a given seed."""
    return ReflectNetModel(
        config=config,
        norm_stats=NormStats.identity(config.n_features),
        **nn.init_layers(config.layers(), seed),
    )


@dataclass(frozen=True)
class Staged:
    """A set of inputs staged once into one ragged table, for repeated use.

    Input b is rows[segments.starts[b] : segments.starts[b] + lengths[b]],
    at the precision of the model that staged it. Indexing with input
    indices (nn.batch_index's rule; repeats allowed) gathers those inputs,
    in that order, into a new table: a training step draws its batch with
    one row gather instead of staging them again.
    """

    rows: np.ndarray
    segments: nn.Segments
    lengths: np.ndarray

    dtype = property(lambda self: self.rows.dtype)

    def __post_init__(self):  # O(1), as every train step builds one
        rows, ids, starts = self.rows.shape, self.segments.ids.shape, self.segments.starts.shape
        if len(rows) != 2 or ids != rows[:1] or starts != self.lengths.shape:
            raise nn.ShapeError(f"Staged rows {rows}, ids {ids}, starts {starts} and lengths "
                                f"{self.lengths.shape} are not (R, n), (R,), (B,) and (B,)")

    def __len__(self) -> int:
        return self.lengths.size

    def __getitem__(self, indices) -> "Staged":
        indices = nn.batch_index(indices, len(self))
        lengths = self.lengths[indices]
        segments = nn.Segments.from_lengths(lengths)
        shift = self.segments.starts[indices] - segments.starts
        rows = self.rows[shift[segments.ids] + np.arange(segments.ids.size)]
        return Staged(rows, segments, lengths)


def forward_rows(model: ReflectNetModel, rows, segments: nn.Segments | None, keep_cache=False):
    """Class probabilities (B, n_classes) of rows (R, n_features) at model precision, input
    b the rows of segment b; segments None means the rows are one input.

    Each max pool takes pre-activations and the ReLU follows it, so relu(max(z)) stands
    for max(relu(z)), bit for bit. With keep_cache, returns (probabilities, activations)
    for the backward pass; without it, the ReLUs run in place.
    """
    z1 = nn.rowwise_linear(rows, model.conv1)
    c = nn.segment_context_layer(z1, segments) if model.config.use_gcl else z1
    h = nn.relu(c, out=None if keep_cache else c)
    z2 = nn.rowwise_linear(h, model.conv2)
    m2 = nn.segment_max_pool(z2, segments)
    pooled = nn.relu(m2, out=None if keep_cache else m2)
    probs = nn.softmax(nn.rowwise_linear(pooled, model.head))
    if not keep_cache:
        return probs
    return probs, {"z1": z1, "c": c, "h": h, "z2": z2, "m2": m2, "pooled": pooled}


def _checked_rows(inp: PaddedInput, i: int, width: int) -> np.ndarray:
    """inp's rows if (m >= 1, width), else a ShapeError or EmptyPoolError naming input i."""
    if inp.rows.ndim != 2 or inp.rows.shape[1] != width:
        raise nn.ShapeError(f"input {i} has rows {inp.rows.shape}, not (m, {width})")
    if len(inp.rows) == 0:
        raise nn.EmptyPoolError(f"input {i} has no rows")
    return inp.rows


def forward(model: ReflectNetModel, inp: PaddedInput) -> nn.ClassDistribution:
    """One input's checked rows at model precision, through forward_rows as one segment."""
    rows = _checked_rows(inp, 0, model.config.n_features).astype(model.vector.dtype, copy=False)
    return nn.distribution(nn.finite(forward_rows(model, rows, None)))


def loss_and_grads(
    model: ReflectNetModel,
    batch: Staged,
    labels: Sequence[int],
) -> Tuple[float, np.ndarray]:
    """Mean cross-entropy over a staged batch and its gradient, laid out like model.vector."""
    nn.check_staged(batch, Staged, model.vector.dtype)
    labels = nn.batch_labels(labels, len(batch), model.config.n_classes)
    segments = batch.segments
    probs, cache = forward_rows(model, batch.rows, segments, keep_cache=True)
    scale = 1.0 / len(batch)  # check_staged refuses an empty batch
    d_logits = nn.logit_grads(probs, labels, scale, model.vector.dtype)
    grad = np.zeros_like(model.vector)
    slot = model.layers_of(grad)
    d_pooled = nn.rowwise_linear_backward(cache["pooled"], model.head, d_logits, slot["head"])
    d_m2 = nn.relu_backward(cache["m2"], d_pooled)
    d_z2 = nn.segment_max_pool_backward(cache["z2"], segments, d_m2, cache["m2"])
    d_h = nn.rowwise_linear_backward(cache["h"], model.conv2, d_z2, slot["conv2"])
    d_c = nn.relu_backward(cache["c"], d_h)
    if model.config.use_gcl:
        # the global half of a segment's first row is that segment's pooled z1
        g = cache["c"][segments.starts, model.config.width1:]
        d_z1 = nn.segment_context_layer_backward(cache["z1"], segments, d_c, g)
    else:
        d_z1 = d_c
    nn.rowwise_linear_backward(batch.rows, model.conv1, d_z1, slot["conv1"], need_input_grad=False)
    return nn.mean_cross_entropy(probs, labels), grad


def train_step(
    model: ReflectNetModel,
    batch: Staged,
    labels: Sequence[int],
    lr: float,
    opt_state: nn.AdamState | None = None,
) -> Tuple[float, nn.AdamState]:
    """One Adam step on the mean loss of a staged batch; returns the pre-step loss."""
    return model.update(*loss_and_grads(model, batch, labels), lr, opt_state)


def gradcheck_random_sample(
    seed: int = 0, max_checks_per_tensor: int | None = None,
) -> nn.GradCheckReport:
    """Seeded model of pad length 8, one seeded kink-safe sample, full check."""
    net = build_model(ReflectNetConfig(pad_length=8), seed=seed)
    return nn.gradcheck_random_batch(net, 1, loss_and_grads, seed, max_checks_per_tensor)


def serialize(model: ReflectNetModel) -> bytes:
    """Versioned binary blob; parameters as 32-bit floats, stats as float64."""
    return nn.write_network(model, MAGIC, asdict(model.config))


def deserialize(data: bytes) -> ReflectNetModel:
    cfg, layers, stats = nn.read_network(
        data, MAGIC, ReflectNetConfig, "network config", ReflectNetConfig.layers
    )
    return ReflectNetModel(cfg, norm_stats=stats, **layers)
