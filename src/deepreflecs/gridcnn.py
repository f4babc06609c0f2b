"""Grid rasterization baseline: bird's-eye grid around the object + 2-D CNN.

Reflections are binned into an 11x11 grid spanning 4m x 4m in the
object's coordinate frame (cells indexed [y, x]): channel 0 accumulates
the RCS sum per cell, channel 1 the mean radial velocity of the
reflections in the cell (0 where empty). The classifier is three
same-padded 3x3 convolutions (16, 32, 64 channels, ReLU), one 2x2 max
pool, and dense layers 1600 -> 128 -> 32 -> 4 with dropout on the two
hidden dense layers during training. 232,628 learnable parameters.

A batch is a stack of normalized grids (B, 11, 11, 2) that forward_grids
runs through every layer at once; training and batch prediction feed it
_CHUNK grids at a time.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from . import container
from . import nn
from .model import ClassDistribution, distributions
from .preprocess import ObjectSample, to_object_frame

MAGIC = b"GCNN"

GRID_CELLS = 11
GRID_EXTENT = 4.0  # meters, full window width
CELL_SIZE = GRID_EXTENT / GRID_CELLS
CONV_CHANNELS = (16, 32, 64)
DENSE_WIDTHS = (128, 32)
FLAT_SIZE = 5 * 5 * CONV_CHANNELS[-1]  # 11 same-padded -> 2x2 pool (floor) -> 5x5
N_CLASSES = 4

# weight shape of each layer, in initialization order; conv kernels are 3x3
_WEIGHT_SHAPES = {
    "conv1": (3, 3, 2, CONV_CHANNELS[0]),
    "conv2": (3, 3, *CONV_CHANNELS[0:2]),
    "conv3": (3, 3, *CONV_CHANNELS[1:3]),
    "dense1": (FLAT_SIZE, DENSE_WIDTHS[0]),
    "dense2": DENSE_WIDTHS,
    "head": (DENSE_WIDTHS[1], N_CLASSES),
}

@dataclass
class Grid:
    """Rasterized sample: cells[y, x, 0] = RCS sum, cells[y, x, 1] = mean vr."""

    cells: np.ndarray      # (11, 11, 2) float64
    occupancy: np.ndarray  # (11, 11) int64


def cell_index(coord: float) -> int:
    """Axis index of an object-frame coordinate; may fall outside [0, 11)."""
    return math.floor((coord + GRID_EXTENT / 2.0) / CELL_SIZE)


def rasterize(sample: ObjectSample) -> Grid:
    """Bin a sample's reflections into the grid; out-of-window ones are dropped."""
    rcs_sum = np.zeros((GRID_CELLS, GRID_CELLS), dtype=np.float64)
    vr_sum = np.zeros((GRID_CELLS, GRID_CELLS), dtype=np.float64)
    occupancy = np.zeros((GRID_CELLS, GRID_CELLS), dtype=np.int64)
    for refl in sample.reflections:
        x_obj, y_obj = to_object_frame(refl, sample.pose)
        ix = cell_index(x_obj)
        iy = cell_index(y_obj)
        if 0 <= ix < GRID_CELLS and 0 <= iy < GRID_CELLS:
            rcs_sum[iy, ix] += refl.rcs
            vr_sum[iy, ix] += refl.vr
            occupancy[iy, ix] += 1
    cells = np.zeros((GRID_CELLS, GRID_CELLS, 2), dtype=np.float64)
    cells[:, :, 0] = rcs_sum
    occupied = occupancy > 0
    cells[:, :, 1][occupied] = vr_sum[occupied] / occupancy[occupied]
    return Grid(cells=cells, occupancy=occupancy)


@dataclass
class ConvParams:
    """3x3 convolution kernel (3, 3, in_channels, out_channels) plus bias."""

    weights: np.ndarray
    bias: np.ndarray

    def size(self) -> int:
        return self.weights.size + self.bias.size

    def astype(self, dtype) -> "ConvParams":
        return ConvParams(self.weights.astype(dtype), self.bias.astype(dtype))

    def copy(self) -> "ConvParams":
        return ConvParams(self.weights.copy(), self.bias.copy())


@dataclass
class GridCnnModel:
    conv1: ConvParams
    conv2: ConvParams
    conv3: ConvParams
    dense1: nn.LinearParams
    dense2: nn.LinearParams
    head: nn.LinearParams
    channel_means: np.ndarray  # (2,) float64
    channel_stds: np.ndarray   # (2,) float64
    dropout: float = 0.5

    def params(self) -> Dict[str, np.ndarray]:
        return {
            f"{layer}.{part}": getattr(getattr(self, layer), part)
            for layer in _WEIGHT_SHAPES for part in ("weights", "bias")
        }

    def set_params(self, params: Dict[str, np.ndarray]) -> None:
        for layer, layer_params in _layers(params).items():
            setattr(self, layer, layer_params)

    def copy(self) -> "GridCnnModel":
        return GridCnnModel(
            conv1=self.conv1.copy(), conv2=self.conv2.copy(), conv3=self.conv3.copy(),
            dense1=self.dense1.copy(), dense2=self.dense2.copy(), head=self.head.copy(),
            channel_means=self.channel_means.copy(),
            channel_stds=self.channel_stds.copy(),
            dropout=self.dropout,
        )

    def astype(self, dtype) -> "GridCnnModel":
        return GridCnnModel(
            conv1=self.conv1.astype(dtype), conv2=self.conv2.astype(dtype),
            conv3=self.conv3.astype(dtype), dense1=self.dense1.astype(dtype),
            dense2=self.dense2.astype(dtype), head=self.head.astype(dtype),
            channel_means=self.channel_means, channel_stds=self.channel_stds,
            dropout=self.dropout,
        )

    def predict(self, grid: Grid):
        return forward(self, grid)

    def predict_batch(self, grids: Sequence[Grid]) -> List[ClassDistribution]:
        return predict_batch(self, grids)

    def train_step(self, batch, labels, lr, opt_state, rng=None, optimizer="adam"):
        return train_step(self, batch, labels, lr, opt_state, rng=rng, optimizer=optimizer)


def _layers(params: Dict[str, np.ndarray]) -> dict:
    """Each layer's parameters from its '<layer>.weights' and '<layer>.bias' arrays."""
    return {
        layer: (ConvParams if len(shape) == 4 else nn.LinearParams)(
            params[f"{layer}.weights"], params[f"{layer}.bias"]
        )
        for layer, shape in _WEIGHT_SHAPES.items()
    }


def build_gridcnn(seed: int = 0, dropout: float = 0.5, dtype=np.float32) -> GridCnnModel:
    rng = np.random.default_rng(seed)
    params = {}
    for layer, shape in _WEIGHT_SHAPES.items():
        # fan_in + fan_out: the kernel's cells times its in- plus out-channels
        limit = math.sqrt(6.0 / (math.prod(shape[:-2]) * sum(shape[-2:])))
        params[f"{layer}.weights"] = rng.uniform(-limit, limit, size=shape).astype(dtype)
        params[f"{layer}.bias"] = np.zeros(shape[-1], dtype=dtype)
    return GridCnnModel(
        **_layers(params), channel_means=np.zeros(2), channel_stds=np.ones(2), dropout=dropout
    )


def count_params(model: GridCnnModel) -> int:
    return sum(p.size for p in model.params().values())


# Grids per forward/backward pass. It bounds a step's scratch memory: a
# float32 batch of 64 peaks at 3.8 MB of allocations in chunks of 4, 5.7 MB
# in chunks of 8 and 31 MB all at once, while larger chunks save under 10%
# of the step time, since each chunk's patch matrices already fill a GEMM.
_CHUNK = 4

# 2x2 pool window offsets in first-winner order, the tie rule of an argmax
# over the flattened window
_POOL_OFFSETS = ((0, 0), (0, 1), (1, 0), (1, 1))


@functools.lru_cache(maxsize=None)  # one entry per grid shape; the model uses 11x11
def _tap_index(h: int, w: int) -> np.ndarray:
    """(H*W*9,) read-only index into the flattened (H+2)*(W+2) padded cells.

    Entry ((i*W + j)*3 + ki)*3 + kj is the padded cell under tap (ki, kj)
    of output cell (i, j).
    """
    i, j, ki, kj = np.ix_(range(h), range(w), range(3), range(3))
    index = ((i + ki) * (w + 2) + j + kj).reshape(-1)
    index.flags.writeable = False
    return index


def _patches(x: np.ndarray) -> np.ndarray:
    """(B, H, W, C) -> (B*H*W, 9*C) 3x3 patches of the same-padded input.

    Column (ki*3 + kj)*C + c holds tap (ki, kj) of channel c, matching a
    (3, 3, C, out) kernel reshaped to (9*C, out). The patches are one take
    of the zero-padded stack over the cached tap index of its (H, W).
    """
    b, h, w, c = x.shape
    padded = np.zeros((b, (h + 2) * (w + 2), c), dtype=x.dtype)
    padded.reshape(b, h + 2, w + 2, c)[:, 1 : h + 1, 1 : w + 1] = x
    return np.take(padded, _tap_index(h, w), axis=1).reshape(b * h * w, 9 * c)


def _conv(x: np.ndarray, params: ConvParams) -> Tuple[np.ndarray, np.ndarray]:
    """Same-padded 3x3 convolution of a grid stack; returns (output, patches)."""
    b, h, w, cin = x.shape
    cout = params.bias.shape[0]
    cols = _patches(x)
    out = cols @ params.weights.reshape(9 * cin, cout) + params.bias
    return out.reshape(b, h, w, cout), cols


def _conv_grads(
    cols: np.ndarray, params: ConvParams, grad_out: np.ndarray, need_input_grad: bool = True
) -> Tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Gradients w.r.t. the input (or None), the kernel and the bias.

    The input gradient is the same-padded convolution of grad_out with the
    kernel rotated by 180 degrees and its channel axes swapped.
    """
    cout = params.bias.shape[0]
    g = grad_out.reshape(-1, cout)
    grad_w = (cols.T @ g).reshape(params.weights.shape)
    grad_b = g.sum(axis=0)
    del cols  # the caller passes its last reference: free it before more patches
    if not need_input_grad:
        return None, grad_w, grad_b
    flipped = params.weights[::-1, ::-1].transpose(0, 1, 3, 2).reshape(9 * cout, -1)
    grad_x = _patches(grad_out) @ flipped
    return grad_x.reshape(*grad_out.shape[:3], -1), grad_w, grad_b


def _pool_windows(x: np.ndarray):
    """The four strided (B, 5, 5, C) views of the 2x2 windows, first-winner order."""
    return [x[:, di:10:2, dj:10:2] for di, dj in _POOL_OFFSETS]


def _pool(x: np.ndarray) -> np.ndarray:
    """2x2 max pool, stride 2, floor; (B, 11, 11, C) -> (B, 5, 5, C), last row/col unused."""
    a, b, c, d = _pool_windows(x)
    return np.maximum(np.maximum(a, b), np.maximum(c, d))


def _pool_grads(x: np.ndarray, pooled: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Send each window's gradient to its first winner (ties: see _POOL_OFFSETS)."""
    grad = np.zeros_like(x)
    free = np.ones(pooled.shape, dtype=bool)
    for (di, dj), window in zip(_POOL_OFFSETS, _pool_windows(x)):
        wins = free & (window == pooled)
        grad[:, di:10:2, dj:10:2] = np.where(wins, grad_out, 0)
        free &= ~wins
    return grad


def _stack(model: GridCnnModel, grids: Sequence[Grid]) -> np.ndarray:
    """Normalized cells of the grids as one (B, 11, 11, 2) array at model precision."""
    cells = np.stack([g.cells for g in grids])
    x = (cells - model.channel_means) / model.channel_stds
    return x.astype(model.conv1.weights.dtype, copy=False)


def forward_grids(
    model: GridCnnModel,
    x: np.ndarray,
    training: bool = False,
    rng: np.random.Generator | None = None,
    keep_cache: bool = False,
):
    """Class probabilities (B, 4) for a stack of normalized grids x (B, 11, 11, 2).

    In training, dropout draws rng.random((B, 160)): per grid the 128
    dense1 values, then the 32 dense2 values, as a grid-by-grid loop would.
    With keep_cache, returns (probabilities, activations) for the backward
    pass.
    """
    if training and rng is None:
        raise ValueError("training-mode forward needs an rng for dropout")
    z1, cols1 = _conv(x, model.conv1)
    a1 = nn.relu(z1)
    z2, cols2 = _conv(a1, model.conv2)
    a2 = nn.relu(z2)
    z3, cols3 = _conv(a2, model.conv3)
    a3 = nn.relu(z3)
    pooled = _pool(a3)
    flat = pooled.reshape(x.shape[0], FLAT_SIZE)
    zd1 = nn.rowwise_linear(flat, model.dense1)
    ad1 = nn.relu(zd1)
    cache: dict = {}
    if training:
        keep = 1.0 - model.dropout
        draws = rng.random((x.shape[0], sum(DENSE_WIDTHS)))
        masks = (draws < keep).astype(x.dtype) / keep
        cache["drop1"], cache["drop2"] = np.split(masks, [DENSE_WIDTHS[0]], axis=1)
        ad1 = ad1 * cache["drop1"]
    zd2 = nn.rowwise_linear(ad1, model.dense2)
    ad2 = nn.relu(zd2)
    if training:
        ad2 = ad2 * cache["drop2"]
    probs = nn.softmax(nn.rowwise_linear(ad2, model.head))
    if not keep_cache:
        return probs
    cache.update(
        cols1=cols1, z1=z1, cols2=cols2, z2=z2, cols3=cols3, z3=z3, a3=a3,
        pooled=pooled, flat=flat, zd1=zd1, ad1=ad1, zd2=zd2, ad2=ad2,
    )
    return probs, cache


def forward(model: GridCnnModel, grid: Grid) -> ClassDistribution:
    """Inference (dropout disabled)."""
    return distributions(forward_grids(model, _stack(model, [grid])))[0]


def predict_batch(model: GridCnnModel, grids: Sequence[Grid]) -> List[ClassDistribution]:
    """forward for every grid, run a chunk of grids at a time."""
    if len(grids) == 0:
        return []
    probs = np.concatenate([
        forward_grids(model, _stack(model, grids[start : start + _CHUNK]))
        for start in range(0, len(grids), _CHUNK)
    ])
    return distributions(probs)


def _backward(
    model: GridCnnModel, cache: dict, d_logits: np.ndarray
) -> Dict[str, np.ndarray]:
    """Parameter gradients of one chunk, given the logit gradients.

    Takes each activation out of the cache at its last use, so a layer's
    patch matrix is freed before the next layer's gradients are built.
    """
    take = cache.pop
    grads: Dict[str, np.ndarray] = {}
    d_ad2, grads["head.weights"], grads["head.bias"] = nn.rowwise_linear_backward(
        take("ad2"), model.head, d_logits
    )
    if "drop2" in cache:
        d_ad2 = d_ad2 * take("drop2")
    d_zd2 = nn.relu_backward(take("zd2"), d_ad2)
    d_ad1, grads["dense2.weights"], grads["dense2.bias"] = nn.rowwise_linear_backward(
        take("ad1"), model.dense2, d_zd2
    )
    if "drop1" in cache:
        d_ad1 = d_ad1 * take("drop1")
    d_zd1 = nn.relu_backward(take("zd1"), d_ad1)
    d_flat, grads["dense1.weights"], grads["dense1.bias"] = nn.rowwise_linear_backward(
        take("flat"), model.dense1, d_zd1
    )
    pooled = take("pooled")
    d_a3 = _pool_grads(take("a3"), pooled, d_flat.reshape(pooled.shape))
    d_z3 = nn.relu_backward(take("z3"), d_a3)
    d_a2, grads["conv3.weights"], grads["conv3.bias"] = _conv_grads(
        take("cols3"), model.conv3, d_z3
    )
    d_z2 = nn.relu_backward(take("z2"), d_a2)
    d_a1, grads["conv2.weights"], grads["conv2.bias"] = _conv_grads(
        take("cols2"), model.conv2, d_z2
    )
    d_z1 = nn.relu_backward(take("z1"), d_a1)
    _, grads["conv1.weights"], grads["conv1.bias"] = _conv_grads(
        take("cols1"), model.conv1, d_z1, need_input_grad=False
    )
    return grads


def loss_and_grads(
    model: GridCnnModel,
    batch: Sequence[Grid],
    labels: Sequence[int],
    training: bool = True,
    rng: np.random.Generator | None = None,
) -> Tuple[float, Dict[str, np.ndarray]]:
    """Mean cross-entropy and parameter gradients over a batch of grids."""
    if len(batch) == 0:
        raise nn.TrainingError("empty training batch")
    dtype = model.conv1.weights.dtype
    labels = np.asarray(labels, dtype=np.intp)
    scale = 1.0 / len(batch)
    grads: Dict[str, np.ndarray] = {}
    probs = []
    for start in range(0, len(batch), _CHUNK):
        stop = start + _CHUNK
        p, cache = forward_grids(
            model, _stack(model, batch[start:stop]), training, rng, keep_cache=True
        )
        probs.append(p)
        d_logits = (nn.softmax_cross_entropy_grad(p, labels[start:stop]) * scale).astype(dtype)
        for name, g in _backward(model, cache, d_logits).items():
            if name in grads:
                grads[name] += g
            else:
                grads[name] = g
    return nn.mean_cross_entropy(np.concatenate(probs), labels), grads


def train_step(
    model: GridCnnModel,
    batch: Sequence[Grid],
    labels: Sequence[int],
    lr: float,
    opt_state: nn.AdamState | None = None,
    rng: np.random.Generator | None = None,
    optimizer: str = "adam",
) -> Tuple[float, nn.AdamState | None]:
    if rng is None:
        rng = np.random.default_rng(0)
    loss, grads = loss_and_grads(model, batch, labels, training=True, rng=rng)
    if not np.isfinite(loss):
        raise nn.TrainingError(f"non-finite training loss {loss}")
    new_params, opt_state = nn.optimizer_step(
        model.params(), grads, lr, opt_state, strategy=optimizer
    )
    model.set_params(new_params)
    return loss, opt_state


def kink_margin(model: GridCnnModel, grid: Grid) -> float:
    """Distance of one grid's (dropout-off) forward pass from ReLU/max kinks."""
    wide = model.astype(np.float64)
    _, cache = forward_grids(wide, _stack(wide, [grid]), keep_cache=True)
    margins = [
        np.abs(cache[z]).min() for z in ("z1", "z2", "z3", "zd1", "zd2")
    ]
    windows = np.sort(np.stack(_pool_windows(cache["a3"]), axis=-1), axis=-1)
    top1, top2 = windows[..., 3], windows[..., 2]
    positive = top1 > 0
    if np.any(positive):
        margins.append(float((top1 - top2)[positive].min()))
    return float(min(margins))


def gradcheck(
    model: GridCnnModel,
    grids: Sequence[Grid],
    labels: Sequence[int],
    h: float = 1e-5,
    max_checks_per_tensor: int | None = None,
    seed: int = 0,
) -> nn.GradCheckReport:
    """Central-difference check of the mean batch loss, dropout disabled, in float64."""
    wide = model.astype(np.float64)
    _, analytic = loss_and_grads(wide, grids, labels, training=False)
    x = _stack(wide, grids)
    labels = np.asarray(labels, dtype=np.intp)

    def loss_fn(_params):
        return nn.mean_cross_entropy(forward_grids(wide, x), labels)

    return nn.finite_diff_gradcheck(
        loss_fn, wide.params(), analytic, h=h,
        max_checks_per_tensor=max_checks_per_tensor, seed=seed,
    )


def random_safe_grid(
    model: GridCnnModel,
    rng: np.random.Generator,
    margin: float = 1e-6,
    max_tries: int = 200,
) -> Tuple[Grid, int]:
    """Random dense grid whose forward pass stays clear of every kink.

    With ~12k convolutional pre-activations the global minimum distance to
    a ReLU kink is small by sheer count, so the guard only rejects
    near-exact hits; whether a checked parameter actually couples to a
    near-kink unit is decided empirically by the seeded checks.
    """
    for _ in range(max_tries):
        cells = rng.standard_normal((GRID_CELLS, GRID_CELLS, 2))
        grid = Grid(cells=cells, occupancy=np.ones((GRID_CELLS, GRID_CELLS), dtype=np.int64))
        if kink_margin(model, grid) > margin:
            return grid, int(rng.integers(0, 4))
    raise RuntimeError(f"no kink-safe grid found in {max_tries} tries")


def gradcheck_random_sample(
    seed: int = 0,
    h: float = 1e-5,
    max_checks_per_tensor: int | None = 64,
) -> nn.GradCheckReport:
    """Seeded model, seeded batch of 3 kink-safe grids, subsampled parameter check.

    A batch of several grids also checks that the batched backward pass
    keeps the grids apart.
    """
    net = build_gridcnn(seed=seed)
    rng = np.random.default_rng([seed, 1])
    grids, labels = zip(*(random_safe_grid(net, rng) for _ in range(3)))
    return gradcheck(
        net, grids, labels, h=h, max_checks_per_tensor=max_checks_per_tensor, seed=seed
    )


def set_channel_stats(model: GridCnnModel, grids: Sequence[Grid]) -> None:
    """Per-channel mean/std over all cells of the given (training) grids."""
    stacked = np.stack([g.cells for g in grids])
    means = stacked.reshape(-1, 2).mean(axis=0)
    stds = np.maximum(stacked.reshape(-1, 2).std(axis=0), 1e-6)
    model.channel_means = means
    model.channel_stds = stds


def serialize(model: GridCnnModel) -> bytes:
    config = {"dropout": model.dropout, "n_classes": N_CLASSES}
    arrays = [
        (name, np.asarray(p, dtype=np.float32)) for name, p in model.params().items()
    ]
    return container.write_container(
        MAGIC, config, (model.channel_means, model.channel_stds), arrays
    )


def deserialize(data: bytes) -> GridCnnModel:
    parsed = container.read_container(data, MAGIC)
    cfg = parsed.config
    if set(cfg) != {"dropout", "n_classes"} or cfg["n_classes"] != N_CLASSES:
        raise container.ContainerError(
            f"grid-CNN config is {cfg}, expected keys 'dropout' and 'n_classes' = {N_CLASSES}"
        )
    dropout = cfg["dropout"]
    if isinstance(dropout, bool) or not isinstance(dropout, (int, float)) or not 0 <= dropout < 1:
        raise container.ContainerError(
            f"grid-CNN dropout is {dropout!r}, expected a number in [0, 1)"
        )
    expected = {}
    for layer, shape in _WEIGHT_SHAPES.items():
        expected.update({f"{layer}.weights": (shape, "f"), f"{layer}.bias": (shape[-1:], "f")})
    container.check_contents(parsed, expected, n_stats=2)
    return GridCnnModel(
        **_layers(parsed.arrays), channel_means=parsed.norm_means,
        channel_stds=parsed.norm_stds, dropout=dropout,
    )
