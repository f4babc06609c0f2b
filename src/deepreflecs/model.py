"""The reflection-list classification network.

Pipeline (per sample): row-wise linear + ReLU on each reflection's five
features, optional global context layer, a second row-wise linear + ReLU,
global max pooling over the reflection list, and a dense softmax head.
The two pooling-style layers have no learnable parameters; with the
default widths the whole network has exactly 1,284 of them.

Batches are ragged: the real reflection rows of all samples are
concatenated into one matrix, with segment offsets marking where each
sample starts, and every layer runs once over the whole batch. A single
sample is a batch of one segment. Padding rows are dropped before the
first layer, which makes the output bitwise independent of the pad
length and of whatever values sit in padding rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from . import container
from . import nn
from .preprocess import NormStats, PaddedInput

MAGIC = b"RFLN"

# largest accepted pad length: prepare_input allocates pad_length rows per sample
MAX_PAD_LENGTH = 4096


@dataclass(frozen=True)
class ReflectNetConfig:
    """Architecture knobs; defaults give the 1,284-parameter build."""

    n_features: int = 5
    width1: int = 16
    width2: int = 32
    n_classes: int = 4
    pad_length: int = 64
    use_gcl: bool = True  # the ablation switch

    def __post_init__(self):
        for name in ("n_features", "width1", "width2", "n_classes", "pad_length"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, not {value!r}")
            if value < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.pad_length > MAX_PAD_LENGTH:
            raise ValueError(f"pad_length must be <= {MAX_PAD_LENGTH}")
        if not isinstance(self.use_gcl, bool):
            raise ValueError(f"use_gcl must be true or false, not {self.use_gcl!r}")

    @property
    def conv2_in(self) -> int:
        # the global context layer doubles the feature width it feeds into
        return 2 * self.width1 if self.use_gcl else self.width1

    def layers(self) -> Dict[str, Tuple[int, int]]:
        """(fan_in, fan_out) weight shape of each linear layer, in field order."""
        return {
            "conv1": (self.n_features, self.width1),
            "conv2": (self.conv2_in, self.width2),
            "head": (self.width2, self.n_classes),
        }


@dataclass
class ClassDistribution:
    """Class probabilities plus the argmax decision (ties -> lowest index)."""

    probabilities: np.ndarray
    predicted: int


def distributions(probs: np.ndarray) -> List[ClassDistribution]:
    """One ClassDistribution per row of a (B, n_classes) probability matrix.

    A finite but extreme weight or norm statistic can overflow a forward
    pass; such a matrix raises nn.NonFiniteError rather than being read.
    """
    if not np.isfinite(probs).all():
        bad = np.count_nonzero(~np.isfinite(probs).all(axis=1))
        raise nn.NonFiniteError(f"{bad} of {len(probs)} class distributions are not finite")
    return [
        ClassDistribution(probabilities=p, predicted=int(k))
        for p, k in zip(probs, probs.argmax(axis=1))
    ]


@dataclass
class ReflectNetModel:
    config: ReflectNetConfig
    conv1: nn.LinearParams
    conv2: nn.LinearParams
    head: nn.LinearParams
    norm_stats: NormStats

    def params(self) -> Dict[str, np.ndarray]:
        """Live views of all learnable tensors, keyed by stable names."""
        return {
            "conv1.weights": self.conv1.weights,
            "conv1.bias": self.conv1.bias,
            "conv2.weights": self.conv2.weights,
            "conv2.bias": self.conv2.bias,
            "head.weights": self.head.weights,
            "head.bias": self.head.bias,
        }

    def set_params(self, params: Dict[str, np.ndarray]) -> None:
        self.conv1 = nn.LinearParams(params["conv1.weights"], params["conv1.bias"])
        self.conv2 = nn.LinearParams(params["conv2.weights"], params["conv2.bias"])
        self.head = nn.LinearParams(params["head.weights"], params["head.bias"])

    def copy(self) -> "ReflectNetModel":
        return ReflectNetModel(
            config=self.config,
            conv1=self.conv1.copy(),
            conv2=self.conv2.copy(),
            head=self.head.copy(),
            norm_stats=NormStats(self.norm_stats.mean.copy(), self.norm_stats.std.copy()),
        )

    def astype(self, dtype) -> "ReflectNetModel":
        """Same model at a different parameter precision (e.g. float64)."""
        return ReflectNetModel(
            config=self.config,
            conv1=self.conv1.astype(dtype),
            conv2=self.conv2.astype(dtype),
            head=self.head.astype(dtype),
            norm_stats=self.norm_stats,
        )

    # convenience delegates so generic training code can stay model-agnostic
    def predict(self, inp: PaddedInput) -> ClassDistribution:
        return forward(self, inp)

    def predict_batch(self, inputs: Sequence[PaddedInput]) -> List[ClassDistribution]:
        return predict_batch(self, inputs)

    def train_step(self, batch, labels, lr, opt_state, rng=None, optimizer="adam"):
        return train_step(self, batch, labels, lr, opt_state, optimizer=optimizer)


def _init_linear(rng: np.random.Generator, fan_in: int, fan_out: int, dtype) -> nn.LinearParams:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    weights = rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(dtype)
    bias = np.zeros(fan_out, dtype=dtype)
    return nn.LinearParams(weights, bias)


def build_model(
    config: ReflectNetConfig = ReflectNetConfig(),
    seed: int = 0,
    dtype=np.float32,
) -> ReflectNetModel:
    """Seeded uniform fan-in/fan-out init; deterministic for a given seed."""
    rng = np.random.default_rng(seed)
    return ReflectNetModel(
        config=config,
        norm_stats=NormStats.identity(config.n_features),
        **{
            layer: _init_linear(rng, fan_in, fan_out, dtype)
            for layer, (fan_in, fan_out) in config.layers().items()
        },
    )


def count_params(model: ReflectNetModel) -> int:
    """Learnable scalars over all linear layers; pooling layers add none."""
    return model.conv1.size() + model.conv2.size() + model.head.size()


def pack(inputs: Sequence[PaddedInput], dtype) -> Tuple[np.ndarray, nn.Segments]:
    """Concatenate the real rows of every input into one ragged batch.

    This is where padding rows are dropped, so the network never sees them.
    """
    if len(inputs) == 1:  # single-object classification: skip the batch bookkeeping
        rows = inputs[0].features[np.asarray(inputs[0].mask, dtype=bool)]
        return rows.astype(dtype, copy=False), nn.Segments.single(rows.shape[0])
    pad_lengths = [len(inp.mask) for inp in inputs]
    if pad_lengths != [len(inp.features) for inp in inputs]:
        raise nn.ShapeError("an input's mask and feature rows differ in length")
    if min(pad_lengths) < 1:  # reduceat below would misread an empty input
        raise nn.EmptyPoolError("an input has no rows at all")
    mask = np.concatenate([inp.mask for inp in inputs]).astype(bool, copy=False)
    rows = np.concatenate([inp.features for inp in inputs])[mask]
    pad_starts = np.cumsum(pad_lengths) - pad_lengths
    lengths = np.add.reduceat(mask, pad_starts, dtype=np.intp)
    return rows.astype(dtype, copy=False), nn.Segments.from_lengths(lengths)


def forward_rows(
    model: ReflectNetModel, x: np.ndarray, segments: nn.Segments, keep_cache: bool = False
):
    """Class probabilities (B, n_classes) for the ragged batch (x, segments).

    With keep_cache, returns (probabilities, activations) for the
    backward pass.
    """
    z1 = nn.rowwise_linear(x, model.conv1)
    h1 = nn.relu(z1)
    h = nn.segment_context_layer(h1, segments) if model.config.use_gcl else h1
    z2 = nn.rowwise_linear(h, model.conv2)
    h2 = nn.relu(z2)
    pooled = nn.segment_max_pool(h2, segments)
    probs = nn.softmax(nn.rowwise_linear(pooled, model.head))
    if not keep_cache:
        return probs
    return probs, {
        "x": x, "z1": z1, "h1": h1, "h": h, "z2": z2, "h2": h2, "pooled": pooled,
    }


def forward(model: ReflectNetModel, inp: PaddedInput) -> ClassDistribution:
    """Class probabilities for one padded input."""
    return distributions(forward_rows(model, *pack([inp], model.conv1.weights.dtype)))[0]


def predict_batch(
    model: ReflectNetModel, inputs: Sequence[PaddedInput]
) -> List[ClassDistribution]:
    """forward for every input, run as one ragged batch."""
    if len(inputs) == 0:
        return []
    return distributions(forward_rows(model, *pack(inputs, model.conv1.weights.dtype)))


def loss_and_grads(
    model: ReflectNetModel,
    batch: Sequence[PaddedInput],
    labels: Sequence[int],
) -> Tuple[float, Dict[str, np.ndarray]]:
    """Mean cross-entropy over the batch and its parameter gradients."""
    if len(batch) == 0:
        raise nn.TrainingError("empty training batch")
    dtype = model.conv1.weights.dtype
    x, segments = pack(batch, dtype)
    probs, cache = forward_rows(model, x, segments, keep_cache=True)
    labels = np.asarray(labels, dtype=np.intp)
    d_logits = (nn.softmax_cross_entropy_grad(probs, labels) * (1.0 / len(batch))).astype(dtype)
    d_pooled, d_hw, d_hb = nn.rowwise_linear_backward(cache["pooled"], model.head, d_logits)
    d_h2 = nn.segment_max_pool_backward(cache["h2"], segments, d_pooled, cache["pooled"])
    d_z2 = nn.relu_backward(cache["z2"], d_h2)
    d_h, d_w2, d_b2 = nn.rowwise_linear_backward(cache["h"], model.conv2, d_z2)
    if model.config.use_gcl:
        # the global half of a segment's first row is that segment's pooled h1
        g = cache["h"][segments.starts, model.config.width1:]
        d_h1 = nn.segment_context_layer_backward(cache["h1"], segments, d_h, g)
    else:
        d_h1 = d_h
    d_z1 = nn.relu_backward(cache["z1"], d_h1)
    _, d_w1, d_b1 = nn.rowwise_linear_backward(x, model.conv1, d_z1)
    grads = {
        "conv1.weights": d_w1, "conv1.bias": d_b1,
        "conv2.weights": d_w2, "conv2.bias": d_b2,
        "head.weights": d_hw, "head.bias": d_hb,
    }
    return nn.mean_cross_entropy(probs, labels), grads


def train_step(
    model: ReflectNetModel,
    batch: Sequence[PaddedInput],
    labels: Sequence[int],
    lr: float,
    opt_state: nn.AdamState | None = None,
    optimizer: str = "adam",
) -> Tuple[float, nn.AdamState | None]:
    """One optimizer step on the mean batch loss; returns the pre-step loss."""
    loss, grads = loss_and_grads(model, batch, labels)
    if not np.isfinite(loss):
        raise nn.TrainingError(f"non-finite training loss {loss}")
    new_params, opt_state = nn.optimizer_step(
        model.params(), grads, lr, opt_state, strategy=optimizer
    )
    model.set_params(new_params)
    return loss, opt_state


def _pool_tie_margin(activations: np.ndarray) -> float:
    """Smallest gap between a column's two largest positive values.

    Columns pinned at zero by the ReLU are safe (covered by the
    pre-activation margin) and ignored; an exact tie between positive
    values returns 0.
    """
    if activations.shape[0] < 2:
        return np.inf
    part = np.partition(activations, activations.shape[0] - 2, axis=0)
    top1, top2 = part[-1], part[-2]
    gaps = top1 - top2
    positive = top1 > 0
    if not np.any(positive):
        return np.inf
    return float(gaps[positive].min())


def kink_margin(model: ReflectNetModel, inp: PaddedInput) -> float:
    """Distance of one sample's forward pass from every ReLU/max kink.

    Gradient checks need this to be comfortably larger than the finite
    difference step, otherwise the perturbed losses straddle a kink.
    """
    wide = model.astype(np.float64)
    _, cache = forward_rows(wide, *pack([inp], np.float64), keep_cache=True)
    margins = [np.abs(cache["z1"]).min(), np.abs(cache["z2"]).min()]
    if model.config.use_gcl:
        margins.append(_pool_tie_margin(cache["h1"]))
    margins.append(_pool_tie_margin(cache["h2"]))
    return float(min(margins))


def gradcheck(
    model: ReflectNetModel,
    inp: PaddedInput,
    label: int,
    h: float = 1e-5,
    max_checks_per_tensor: int | None = None,
    seed: int = 0,
) -> nn.GradCheckReport:
    """End-to-end central-difference check of every layer, in float64."""
    wide = model.astype(np.float64)
    _, analytic = loss_and_grads(wide, [inp], [label])

    def loss_fn(_params):
        return nn.cross_entropy(forward(wide, inp).probabilities, label)

    return nn.finite_diff_gradcheck(
        loss_fn, wide.params(), analytic, h=h,
        max_checks_per_tensor=max_checks_per_tensor, seed=seed,
    )


def random_safe_sample(
    model: ReflectNetModel,
    rng: np.random.Generator,
    margin: float = 1e-4,
    max_tries: int = 200,
) -> Tuple[PaddedInput, int]:
    """Random input whose forward pass stays clear of ReLU/max kinks."""
    cfg = model.config
    for _ in range(max_tries):
        m = int(rng.integers(2, cfg.pad_length + 1))
        features = np.zeros((cfg.pad_length, cfg.n_features))
        features[:m] = rng.standard_normal((m, cfg.n_features))
        mask = np.zeros(cfg.pad_length, dtype=bool)
        mask[:m] = True
        inp = PaddedInput(features=features, mask=mask, m_real=m)
        if kink_margin(model, inp) > margin:
            return inp, int(rng.integers(0, cfg.n_classes))
    raise RuntimeError(f"no kink-safe sample found in {max_tries} tries")


def gradcheck_random_sample(
    seed: int = 0,
    h: float = 1e-5,
    max_checks_per_tensor: int | None = None,
    config: ReflectNetConfig | None = None,
) -> nn.GradCheckReport:
    """Convenience wrapper: seeded model, seeded kink-safe sample, full check."""
    config = config or ReflectNetConfig(pad_length=8)
    net = build_model(config, seed=seed)
    rng = np.random.default_rng([seed, 1])
    inp, label = random_safe_sample(net, rng)
    return gradcheck(
        net, inp, label, h=h, max_checks_per_tensor=max_checks_per_tensor, seed=seed
    )


def serialize(model: ReflectNetModel) -> bytes:
    """Versioned binary blob; parameters as 32-bit floats, stats as float64."""
    cfg = model.config
    config_dict = {
        "n_features": cfg.n_features,
        "width1": cfg.width1,
        "width2": cfg.width2,
        "n_classes": cfg.n_classes,
        "pad_length": cfg.pad_length,
        "use_gcl": cfg.use_gcl,
    }
    arrays = [
        (name, np.asarray(p, dtype=np.float32)) for name, p in model.params().items()
    ]
    return container.write_container(
        MAGIC, config_dict, (model.norm_stats.mean, model.norm_stats.std), arrays
    )


def deserialize(data: bytes) -> ReflectNetModel:
    parsed = container.read_container(data, MAGIC)
    try:
        cfg = ReflectNetConfig(**parsed.config)
    except (TypeError, ValueError) as exc:
        raise container.ContainerError(f"invalid network config: {exc}") from exc
    expected = {}
    for layer, shape in cfg.layers().items():
        expected.update({f"{layer}.weights": (shape, "f"), f"{layer}.bias": (shape[-1:], "f")})
    container.check_contents(parsed, expected, n_stats=cfg.n_features)
    arrays = parsed.arrays
    return ReflectNetModel(
        cfg,
        *(nn.LinearParams(arrays[f"{n}.weights"], arrays[f"{n}.bias"]) for n in cfg.layers()),
        NormStats(parsed.norm_means, parsed.norm_stds),
    )
