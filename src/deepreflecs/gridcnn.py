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

The pool reads rows and columns 0-9 of conv3's output, so conv3 is
computed at those 10x10 cells only. The pool takes conv3's
pre-activations and the ReLU follows it, which gives the same outputs,
since ReLU is monotone. A training step sums its weight gradients in
fixed blocks, so its bits do not depend on the BLAS thread count: a conv
kernel's gradient is one product per grid, summed over the grids in
order, and chunk after chunk; a dense layer's is one product over the
whole batch, from inputs and output gradients kept in per-batch buffers.

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
            [np.stack(_pool_windows(nn.relu(cache["z3"])))],
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
# float32 batch of 64 peaks at 3.3 MiB of allocations in chunks of 4, 5.1 MiB
# in chunks of 8 and 30 MiB all at once, while larger chunks save under 10%
# of the step time, since each chunk's patch matrices already fill a GEMM.
_CHUNK = 4

# 2x2 pool window offsets in first-winner order, the tie rule of an argmax
# over the flattened window
_POOL_OFFSETS = ((0, 0), (0, 1), (1, 0), (1, 1))

# rows and columns of conv3's output the pool reads: the 11th of each never
# reaches the loss
_POOLED_CELLS = 10


@functools.lru_cache(maxsize=None)  # one entry per grid shape and output window
def _tap_index(h: int, w: int, rows: int, cols: int) -> np.ndarray:
    """(rows*cols*9,) read-only index into the flattened (h+2)*(w+2) padded cells.

    Entry ((i*cols + j)*3 + ki)*3 + kj is the padded cell under tap (ki, kj)
    of output cell (i, j), for the output cells i < rows and j < cols.
    """
    i, j, ki, kj = np.ix_(range(rows), range(cols), range(3), range(3))
    index = ((i + ki) * (w + 2) + j + kj).reshape(-1)
    index.flags.writeable = False
    return index


def _patches(x: np.ndarray, grid=None, cells=None) -> np.ndarray:
    """(B, h, w, C) -> (B*rows*cols, 9*C) 3x3 patches of a same-padded grid stack.

    The grids are (H, W) = grid (default (h, w)) with x as their top-left
    cells and zeros elsewhere; the patches are those of the output cells
    i < rows, j < cols, (rows, cols) = cells (default (H, W)). Column
    (ki*3 + kj)*C + c holds tap (ki, kj) of channel c, matching a
    (3, 3, C, out) kernel reshaped to (9*C, out). The patches are one take
    of the zero-padded stack over the cached tap index.
    """
    b, h, w, c = x.shape
    gh, gw = grid or (h, w)
    rows, cols = cells or (gh, gw)
    padded = np.zeros((b, (gh + 2) * (gw + 2), c), dtype=x.dtype)
    padded.reshape(b, gh + 2, gw + 2, c)[:, 1 : h + 1, 1 : w + 1] = x
    return np.take(padded, _tap_index(gh, gw, rows, cols), axis=1).reshape(b * rows * cols, 9 * c)


def _conv(x: np.ndarray, params: nn.LinearParams, cells=None) -> Tuple[np.ndarray, np.ndarray]:
    """Same-padded 3x3 convolution of a grid stack; returns (output, patches).

    With cells = (rows, cols), only the output cells i < rows, j < cols
    are computed.
    """
    b, h, w, cin = x.shape
    rows, cols = cells or (h, w)
    cout = params.bias.shape[0]
    patches = _patches(x, cells=cells)
    out = patches @ params.weights.reshape(9 * cin, cout) + params.bias
    return out.reshape(b, rows, cols, cout), patches


def _flipped(params: nn.LinearParams) -> np.ndarray:
    """The (9*out, in) kernel of a convolution's input gradient: rotated by
    180 degrees, its channel axes swapped."""
    cout = params.bias.shape[0]
    return params.weights[::-1, ::-1].transpose(0, 1, 3, 2).reshape(9 * cout, -1)


def _conv_grads(
    patches: np.ndarray, params: nn.LinearParams, grad_out: np.ndarray, grad: nn.LinearParams,
    flipped: np.ndarray | None = None, grid=None,
) -> np.ndarray | None:
    """Add the kernel and bias gradients into grad; given flipped, return the input gradient.

    grad_out (B, rows, cols, out) holds the output gradient at the cells
    the patches are of. The kernel gradient is one product per grid,
    summed over the grids in order, so its bits do not depend on the BLAS
    thread count. The input gradient, on (H, W) = grid (default (rows,
    cols)), is the same-padded convolution of grad_out, zero beyond its
    cells, with flipped (_flipped(params)).
    """
    b, rows, cols, cout = grad_out.shape
    per_grid = patches.reshape(b, rows * cols, -1).transpose(0, 2, 1)
    g = grad_out.reshape(b, rows * cols, cout)
    grad.weights += np.matmul(per_grid, g).sum(axis=0).reshape(params.weights.shape)
    grad.bias += g.reshape(-1, cout).sum(axis=0)
    del patches, per_grid  # the caller passes its last reference: free it before more patches
    if flipped is None:
        return None
    grid = grid or (rows, cols)
    return (_patches(grad_out, grid=grid) @ flipped).reshape(b, *grid, -1)


def _pool_windows(x: np.ndarray):
    """The four strided (B, 5, 5, C) views of the 2x2 windows, first-winner order."""
    return [x[:, di:10:2, dj:10:2] for di, dj in _POOL_OFFSETS]


def _pool(x: np.ndarray) -> np.ndarray:
    """2x2 max pool, stride 2, floor; (B, 10 or 11, 10 or 11, C) -> (B, 5, 5, C).

    An 11th row or column is not read.
    """
    a, b, c, d = _pool_windows(x)
    return np.maximum(np.maximum(a, b), np.maximum(c, d))


def _pool_grads(x: np.ndarray, pooled: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Send each window's gradient to its first winner (ties: see _POOL_OFFSETS).

    x is (B, 10, 10, C), so every cell lies in one window; the others get
    grad_out * 0, as in nn.relu_backward. One comparison finds every
    window's winners, and the later offsets drop a window's winners once
    an earlier offset has won it.
    """
    b, _, _, c = x.shape
    wins = x.reshape(b, 5, 2, 5, 2, c) == pooled[:, :, None, :, None]
    taken = wins[:, :, 0, :, 0].copy()
    for di, dj in _POOL_OFFSETS[1:]:
        win = wins[:, :, di, :, dj]
        win &= ~taken
        taken |= win
    return (grad_out[:, :, None, :, None] * wins).reshape(x.shape)


def forward_grids(
    model: GridCnnModel,
    x: np.ndarray,
    rng: np.random.Generator | None = None,
    keep_cache: bool = False,
):
    """Class probabilities (B, 4) for a stack of normalized grids x (B, 11, 11, 2).

    conv3 is computed only at the 10x10 cells the pool reads, and the pool
    takes its pre-activations, with the ReLU after it: relu(max(z)) stands
    for max(relu(z)), bit for bit. Given an rng (training), dropout draws
    rng.random((B, 160)): per grid the 128 dense1 values, then the 32
    dense2 values, as a grid-by-grid loop would. With keep_cache, returns
    (probabilities, activations) for the backward pass.
    """
    training = rng is not None
    z1, cols1 = _conv(x, model.conv1)
    a1 = nn.relu(z1)
    z2, cols2 = _conv(a1, model.conv2)
    a2 = nn.relu(z2)
    z3, cols3 = _conv(a2, model.conv3, cells=(_POOLED_CELLS, _POOLED_CELLS))
    m3 = _pool(z3)
    flat = nn.relu(m3).reshape(x.shape[0], FLAT_SIZE)
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
        cols1=cols1, z1=z1, cols2=cols2, z2=z2, cols3=cols3, z3=z3, m3=m3,
        flat=flat, zd1=zd1, ad1=ad1, zd2=zd2, ad2=ad2,
    )
    return probs, cache


def forward(model: GridCnnModel, grid: Grid) -> nn.ClassDistribution:
    """Inference (dropout disabled): predict_batch of a one-grid stack."""
    return nn.distribution(model.predict_batch(model.stage([grid])))


def _dense_backward(
    params: nn.LinearParams, x: np.ndarray, grad_out: np.ndarray,
    kept: Tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """A dense layer's input gradient for one chunk.

    x and grad_out go to kept, the chunk's rows of the batch's buffers for
    the layer's one weight product (see loss_and_grads).
    """
    kept[0][...], kept[1][...] = x, grad_out
    # W @ g.T runs at about twice the rate of g @ W.T for dense1
    return (params.weights @ grad_out.T).T


def _backward(
    model: GridCnnModel, cache: dict, d_logits: np.ndarray, slot: Dict[str, nn.LinearParams],
    flipped: Dict[str, np.ndarray], dense: Dict[str, Tuple[np.ndarray, np.ndarray]],
) -> None:
    """Add one chunk's conv gradients, given its logit gradients, into slot.

    dense[layer] is the chunk's rows of the dense layer's buffers (see
    _dense_backward); flipped holds the _flipped conv2 and conv3 kernels.
    Takes each activation out of the cache at its last use, so a layer's
    patch matrix is freed before the next layer's gradients are built.
    """
    take = cache.pop
    d_ad2 = _dense_backward(model.head, take("ad2"), d_logits, dense["head"])
    if "drop2" in cache:
        d_ad2 = d_ad2 * take("drop2")
    d_zd2 = nn.relu_backward(take("zd2"), d_ad2)
    d_ad1 = _dense_backward(model.dense2, take("ad1"), d_zd2, dense["dense2"])
    if "drop1" in cache:
        d_ad1 = d_ad1 * take("drop1")
    d_zd1 = nn.relu_backward(take("zd1"), d_ad1)
    d_flat = _dense_backward(model.dense1, take("flat"), d_zd1, dense["dense1"])
    m3 = take("m3")
    d_m3 = nn.relu_backward(m3, d_flat.reshape(m3.shape))
    d_z3 = _pool_grads(take("z3"), m3, d_m3)
    grid = (GRID_CELLS, GRID_CELLS)
    d_a2 = _conv_grads(take("cols3"), model.conv3, d_z3, slot["conv3"], flipped["conv3"], grid)
    d_z2 = nn.relu_backward(take("z2"), d_a2)
    d_a1 = _conv_grads(take("cols2"), model.conv2, d_z2, slot["conv2"], flipped["conv2"])
    d_z1 = nn.relu_backward(take("z1"), d_a1)
    _conv_grads(take("cols1"), model.conv1, d_z1, slot["conv1"])


def loss_and_grads(
    model: GridCnnModel,
    batch: np.ndarray,
    labels: Sequence[int],
    rng: np.random.Generator | None = None,
) -> Tuple[float, np.ndarray]:
    """Mean cross-entropy over a staged stack and its gradient, laid out like model.vector.

    Dropout is on, drawn from rng, when an rng is given. Each chunk adds
    its conv gradients into the one vector, in chunk order; each dense
    layer's weight gradient is one product over the whole batch. No sum
    depends on the BLAS thread count.
    """
    if len(batch) == 0:
        raise nn.TrainingError("empty training batch")
    labels = np.asarray(labels, dtype=np.intp)
    n, dtype = len(batch), model.vector.dtype
    scale = 1.0 / n
    grad = np.zeros_like(model.vector)
    slot = model.layers_of(grad)
    flipped = {layer: _flipped(getattr(model, layer)) for layer in ("conv2", "conv3")}
    dense = {  # each dense layer's inputs and output gradients
        layer: tuple(np.empty((n, width), dtype) for width in _WEIGHT_SHAPES[layer])
        for layer in ("dense1", "dense2", "head")
    }
    probs = np.empty((n, N_CLASSES))
    for start in range(0, n, _CHUNK):
        rows = slice(start, start + _CHUNK)
        probs[rows], cache = forward_grids(model, batch[rows], rng, keep_cache=True)
        d_logits = nn.logit_grads(probs[rows], labels[rows], scale, dtype)
        chunk = {layer: (inputs[rows], grads[rows]) for layer, (inputs, grads) in dense.items()}
        _backward(model, cache, d_logits, slot, flipped, chunk)
    for layer, (inputs, grads) in dense.items():
        np.matmul(inputs.T, grads, out=slot[layer].weights)
        grads.sum(axis=0, out=slot[layer].bias)
    return nn.mean_cross_entropy(probs, labels), grad


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
