"""Grid rasterization baseline: bird's-eye grid around the object + 2-D CNN.

Reflections are binned into an 11x11 grid spanning 4m x 4m in the
object's coordinate frame (cells indexed [y, x]): channel 0 accumulates
the RCS sum per cell, channel 1 the mean radial velocity of the
reflections in the cell (0 where empty). The classifier is three
same-padded 3x3 convolutions (16, 32, 64 channels, ReLU), one 2x2 max
pool, and dense layers 1600 -> 128 -> 32 -> 4 with dropout on the two
hidden dense layers during training. 232,628 learnable parameters.

A batch is a stack of normalized grids (B, 11, 11, 2), made by
GridCnnModel.stage, that forward_grids runs through every layer at once;
predict_batch, loss_and_grads and train_step take only such a stack and
feed it _CHUNK grids at a time. A training run stages its grids once and
draws each batch from the stack by index.

The model is an nn.Network over the layer table _WEIGHT_SHAPES (a 3x3
kernel is a (3, 3, in, out) nn.LinearParams), with the channel
statistics as its norm_stats.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass
from typing import Annotated, Dict, Sequence, Tuple

import numpy as np

from . import nn, schema
from .preprocess import NormStats, ObjectSample, reflection_table

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
    for x_obj, y_obj, rcs, _, vr, _ in reflection_table(sample).tolist():
        ix = cell_index(x_obj)
        iy = cell_index(y_obj)
        if 0 <= ix < GRID_CELLS and 0 <= iy < GRID_CELLS:
            rcs_sum[iy, ix] += rcs
            vr_sum[iy, ix] += vr
            occupancy[iy, ix] += 1
    cells = np.zeros((GRID_CELLS, GRID_CELLS, 2), dtype=np.float64)
    cells[:, :, 0] = rcs_sum
    occupied = occupancy > 0
    cells[:, :, 1][occupied] = vr_sum[occupied] / occupancy[occupied]
    return Grid(cells=cells, occupancy=occupancy)


@dataclass
class GridCnnModel(nn.Network):
    conv1: nn.LinearParams
    conv2: nn.LinearParams
    conv3: nn.LinearParams
    dense1: nn.LinearParams
    dense2: nn.LinearParams
    head: nn.LinearParams
    norm_stats: NormStats  # per channel: RCS sum, mean vr
    dropout: float = 0.5

    # With ~12k convolutional pre-activations the least distance to a ReLU
    # kink is small by sheer count, so a gradient-check grid is only
    # refused for near-exact hits; whether a checked parameter couples to
    # a near-kink unit is decided empirically by the seeded checks.
    safe_margin = 1e-6

    def layer_shapes(self) -> nn.LayerShapes:
        return _WEIGHT_SHAPES

    def random_input(self, rng: np.random.Generator) -> Grid:
        """A grid of standard-normal cells, all occupied, for gradient checks."""
        cells = rng.standard_normal((GRID_CELLS, GRID_CELLS, 2))
        return Grid(cells=cells, occupancy=np.ones((GRID_CELLS, GRID_CELLS), dtype=np.int64))

    def kink_margin(self, grid: Grid) -> float:
        """nn.kink_margin of one grid's float64, dropout-off forward pass."""
        wide = self.astype(np.float64)
        _, cache = forward_grids(wide, wide.stage([grid]), keep_cache=True)
        return nn.kink_margin(
            [cache[z] for z in ("z1", "z2", "z3", "zd1", "zd2")],
            [np.stack(_pool_windows(cache["a3"]))],
        )

    def predict(self, grid: Grid) -> nn.ClassDistribution:
        return forward(self, grid)

    def stage(self, grids: Sequence[Grid]) -> np.ndarray:
        """Normalized cells of the grids as one (B, 11, 11, 2) stack at model precision."""
        if len(grids) == 0:
            raise nn.ShapeError("cannot stage an empty list of grids")
        cells = np.stack([g.cells for g in grids])
        x = (cells - self.norm_stats.mean) / self.norm_stats.std
        return x.astype(self.conv1.weights.dtype, copy=False)

    def predict_batch(self, x: np.ndarray) -> np.ndarray:
        """The float64 (B, 4) probabilities of a staged stack, run a chunk of grids at a time.

        Row b holds grid b's probabilities and its argmax (ties -> lowest index)
        is the predicted class, as forward gives them up to float rounding.
        """
        return nn.finite(np.concatenate([
            forward_grids(self, x[start : start + _CHUNK]) for start in range(0, len(x), _CHUNK)
        ]))

    def train_step(self, batch, labels, lr, opt_state, rng=None):
        """train_step on a staged stack, or on a list of grids staged first."""
        if not isinstance(batch, np.ndarray):
            batch = self.stage(batch)
        return train_step(self, batch, labels, lr, opt_state, rng=rng)


def build_gridcnn(seed: int = 0) -> GridCnnModel:
    """Seeded float32 init with dropout 0.5; deterministic for a given seed."""
    return GridCnnModel(
        **nn.init_layers(_WEIGHT_SHAPES, seed), norm_stats=NormStats.identity(2)
    )


# Grids per forward/backward pass. It bounds a step's scratch memory: a
# float32 batch of 64 peaks at 2.9 MiB of allocations in chunks of 4, 4.8 MiB
# in chunks of 8 and 31 MiB all at once, while larger chunks save under 10%
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


def _conv(x: np.ndarray, params: nn.LinearParams) -> Tuple[np.ndarray, np.ndarray]:
    """Same-padded 3x3 convolution of a grid stack; returns (output, patches)."""
    b, h, w, cin = x.shape
    cout = params.bias.shape[0]
    cols = _patches(x)
    out = cols @ params.weights.reshape(9 * cin, cout) + params.bias
    return out.reshape(b, h, w, cout), cols


def _conv_grads(
    cols: np.ndarray, params: nn.LinearParams, grad_out: np.ndarray, grad: nn.LinearParams,
    need_input_grad: bool = True,
) -> np.ndarray | None:
    """Gradient w.r.t. the input (or None); adds the kernel and bias gradients into grad.

    The input gradient is the same-padded convolution of grad_out with the
    kernel rotated by 180 degrees and its channel axes swapped.
    """
    cout = params.bias.shape[0]
    g = grad_out.reshape(-1, cout)
    grad.weights += (cols.T @ g).reshape(params.weights.shape)
    grad.bias += g.sum(axis=0)
    del cols  # the caller passes its last reference: free it before more patches
    if not need_input_grad:
        return None
    flipped = params.weights[::-1, ::-1].transpose(0, 1, 3, 2).reshape(9 * cout, -1)
    grad_x = _patches(grad_out) @ flipped
    return grad_x.reshape(*grad_out.shape[:3], -1)


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


def forward_grids(
    model: GridCnnModel,
    x: np.ndarray,
    rng: np.random.Generator | None = None,
    keep_cache: bool = False,
):
    """Class probabilities (B, 4) for a stack of normalized grids x (B, 11, 11, 2).

    Given an rng (training), dropout draws rng.random((B, 160)): per grid
    the 128 dense1 values, then the 32 dense2 values, as a grid-by-grid
    loop would. With keep_cache, returns (probabilities, activations) for
    the backward pass.
    """
    training = rng is not None
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


def forward(model: GridCnnModel, grid: Grid) -> nn.ClassDistribution:
    """Inference (dropout disabled): predict_batch of a one-grid stack."""
    return nn.distribution(model.predict_batch(model.stage([grid])))


def _backward(
    model: GridCnnModel, cache: dict, d_logits: np.ndarray, slot: Dict[str, nn.LinearParams]
) -> None:
    """Add one chunk's parameter gradients, given its logit gradients, into slot.

    Takes each activation out of the cache at its last use, so a layer's
    patch matrix is freed before the next layer's gradients are built.
    """
    take = cache.pop
    d_ad2 = nn.rowwise_linear_backward(take("ad2"), model.head, d_logits, slot["head"])
    if "drop2" in cache:
        d_ad2 = d_ad2 * take("drop2")
    d_zd2 = nn.relu_backward(take("zd2"), d_ad2)
    d_ad1 = nn.rowwise_linear_backward(take("ad1"), model.dense2, d_zd2, slot["dense2"])
    if "drop1" in cache:
        d_ad1 = d_ad1 * take("drop1")
    d_zd1 = nn.relu_backward(take("zd1"), d_ad1)
    d_flat = nn.rowwise_linear_backward(take("flat"), model.dense1, d_zd1, slot["dense1"])
    pooled = take("pooled")
    d_a3 = _pool_grads(take("a3"), pooled, d_flat.reshape(pooled.shape))
    d_z3 = nn.relu_backward(take("z3"), d_a3)
    d_a2 = _conv_grads(take("cols3"), model.conv3, d_z3, slot["conv3"])
    d_z2 = nn.relu_backward(take("z2"), d_a2)
    d_a1 = _conv_grads(take("cols2"), model.conv2, d_z2, slot["conv2"])
    d_z1 = nn.relu_backward(take("z1"), d_a1)
    _conv_grads(take("cols1"), model.conv1, d_z1, slot["conv1"], need_input_grad=False)


def loss_and_grads(
    model: GridCnnModel,
    batch: np.ndarray,
    labels: Sequence[int],
    rng: np.random.Generator | None = None,
) -> Tuple[float, np.ndarray]:
    """Mean cross-entropy over a staged stack and its gradient, laid out like model.vector.

    Dropout is on, drawn from rng, when an rng is given. Each chunk adds
    its gradients into the one vector, in chunk order.
    """
    if len(batch) == 0:
        raise nn.TrainingError("empty training batch")
    labels = np.asarray(labels, dtype=np.intp)
    scale = 1.0 / len(batch)
    grad = np.zeros_like(model.vector)
    slot = model.layers_of(grad)
    probs = []
    for start in range(0, len(batch), _CHUNK):
        stop = start + _CHUNK
        p, cache = forward_grids(model, batch[start:stop], rng, keep_cache=True)
        probs.append(p)
        d_logits = nn.logit_grads(p, labels[start:stop], scale, model.vector.dtype)
        _backward(model, cache, d_logits, slot)
    return nn.mean_cross_entropy(np.concatenate(probs), labels), grad


def train_step(
    model: GridCnnModel,
    batch: np.ndarray,
    labels: Sequence[int],
    lr: float,
    opt_state: nn.AdamState | None = None,
    rng: np.random.Generator | None = None,
) -> Tuple[float, nn.AdamState]:
    """One Adam step on the mean loss of a staged stack, with dropout if rng is given."""
    return model.update(*loss_and_grads(model, batch, labels, rng=rng), lr, opt_state)


def gradcheck_random_sample(
    seed: int = 0, max_checks_per_tensor: int | None = 64,
) -> nn.GradCheckReport:
    """Seeded model, seeded batch of 3 kink-safe grids, subsampled parameter check.

    A batch of several grids also checks that the batched backward pass
    keeps the grids apart.
    """
    net = build_gridcnn(seed=seed)
    return nn.gradcheck_random_batch(net, 3, loss_and_grads, seed, max_checks_per_tensor)


def set_channel_stats(model: GridCnnModel, grids: Sequence[Grid]) -> None:
    """Per-channel mean/std over all cells of the given (training) grids."""
    model.norm_stats = NormStats.of(np.stack([g.cells for g in grids]).reshape(-1, 2))


@dataclass(frozen=True)
class FileConfig:
    """The config block of a grid-CNN model file."""

    dropout: Annotated[float, schema.Range(0, 1, high_open=True)]
    n_classes: Annotated[int, schema.Range(N_CLASSES, N_CLASSES)]

    def __post_init__(self):
        schema.check(self)


def serialize(model: GridCnnModel) -> bytes:
    return nn.write_network(model, MAGIC, asdict(FileConfig(model.dropout, N_CLASSES)))


def deserialize(data: bytes) -> GridCnnModel:
    cfg, layers, stats = nn.read_network(
        data, MAGIC, FileConfig, "grid-CNN config", lambda _: _WEIGHT_SHAPES
    )
    return GridCnnModel(**layers, norm_stats=stats, dropout=cfg.dropout)
