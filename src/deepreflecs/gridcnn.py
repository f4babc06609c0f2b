"""Grid rasterization baseline: bird's-eye grid around the object + 2-D CNN.

Reflections are binned into an 11x11 grid spanning 4m x 4m in the
object's coordinate frame (cells indexed [y, x]): channel 0 accumulates
the RCS sum per cell, channel 1 the mean radial velocity of the
reflections in the cell (0 where empty). The classifier is three
same-padded 3x3 convolutions (16, 32, 64 channels, ReLU), one 2x2 max
pool, and dense layers 1600 -> 128 -> 32 -> 4 with dropout (rate DROPOUT,
0.5) on the two hidden dense layers during training. 232,628 learnable
parameters. A model file records the dropout rate and the class count,
and one that declares another value of either is a ContainerError at load.

A batch is a GridStack of normalized grids (B, 11, 11, 2), made and
checked by GridCnnModel.stage; predict_batch, loss_and_grads (which
checks the labels) and train_step take only such a stack and run its
cells through forward_grids _CHUNK grids at a time. A training run
stages its grids once and draws each batch from the stack by index.

The pool reads rows and columns 0-9 of conv3's output, so conv3 is
computed at those 10x10 cells only. The pool takes conv3's
pre-activations and the ReLU follows it, which gives the same outputs,
since ReLU is monotone. A training step's gradient is a pure function
per chunk (_chunk_grads) plus one reduction in chunk order; every matrix
product is one of nn's, which gives the rule for its bits.

The model is an nn.Network over the layer table _WEIGHT_SHAPES (a 3x3
kernel is a (3, 3, in, out) nn.LinearParams), with the channel
statistics as its norm_stats.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Annotated, Dict, Sequence, Tuple

import numpy as np

from . import nn, schema
from .preprocess import CLASSES, DatasetError, NormStats, ObjectSample, flat_reflection_table

MAGIC = b"GCNN"

GRID_CELLS = 11
GRID_EXTENT = 4.0  # meters, full window width
CELL_SIZE = GRID_EXTENT / GRID_CELLS
_CELLS_SHAPE = (GRID_CELLS, GRID_CELLS, 2)
CONV_CHANNELS = (16, 32, 64)
DENSE_WIDTHS = (128, 32)
FLAT_SIZE = 5 * 5 * CONV_CHANNELS[-1]  # 11 same-padded -> 2x2 pool (floor) -> 5x5
N_CLASSES = len(CLASSES)
DROPOUT = 0.5  # of each hidden dense unit, during training

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


@dataclass(frozen=True)
class GridStack:
    """GridCnnModel.stage's normalized grids (B, 11, 11, 2) at model precision; indexing
    with grid indices (nn.batch_index) gathers those grids, in order, into a new stack."""

    cells: np.ndarray
    dtype = property(lambda self: self.cells.dtype)

    def __post_init__(self):
        if self.cells.shape[1:] != _CELLS_SHAPE:  # also refuses every ndim but 4
            raise nn.ShapeError(f"a GridStack holds cells (B, 11, 11, 2), got {self.cells.shape}")

    def __len__(self) -> int:
        return len(self.cells)

    def __getitem__(self, indices) -> "GridStack":
        return GridStack(self.cells[nn.batch_index(indices, len(self))])


def cell_index(coord: float) -> int:
    """Axis index of an object-frame coordinate; may fall outside [0, 11)."""
    return math.floor((coord + GRID_EXTENT / 2.0) / CELL_SIZE)


def rasterize(sample: ObjectSample) -> Grid:
    """Bin a sample's reflections into the grid; out-of-window ones are dropped.

    Sums flat_reflection_table's reflections, read in sixes, into per-cell
    [rcs, vr, count] lists in reflection order, then writes each occupied cell once.
    """
    bins: Dict[int, list] = {}
    rows = iter(flat_reflection_table(sample))
    for x_obj, y_obj, rcs, _, vr, _ in zip(rows, rows, rows, rows, rows, rows):
        try:
            ix = cell_index(x_obj)
            iy = cell_index(y_obj)
        except (OverflowError, ValueError):  # an inf or NaN coordinate: outside the window
            continue
        if 0 <= ix < GRID_CELLS and 0 <= iy < GRID_CELLS:
            cell = iy * GRID_CELLS + ix
            acc = bins.get(cell)
            if acc is None:
                # 0.0 + value, as a zeroed cell gives: -0.0 sums to 0.0
                bins[cell] = [0.0 + rcs, 0.0 + vr, 1]
            else:
                acc[0] += rcs
                acc[1] += vr
                acc[2] += 1
    cells = np.zeros((GRID_CELLS * GRID_CELLS, 2), dtype=np.float64)
    occupancy = np.zeros(GRID_CELLS * GRID_CELLS, dtype=np.int64)
    for cell, (rcs_sum, vr_sum, n) in bins.items():
        cells[cell] = rcs_sum, vr_sum / n
        occupancy[cell] = n
    return Grid(cells=cells.reshape(GRID_CELLS, GRID_CELLS, 2),
                occupancy=occupancy.reshape(GRID_CELLS, GRID_CELLS))


@dataclass
class GridCnnModel(nn.Network):
    conv1: nn.LinearParams
    conv2: nn.LinearParams
    conv3: nn.LinearParams
    dense1: nn.LinearParams
    dense2: nn.LinearParams
    head: nn.LinearParams
    norm_stats: NormStats  # per channel: RCS sum, mean vr

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
        _, cache = forward_grids(wide, wide.stage([grid]).cells, keep_cache=True)
        return nn.kink_margin(
            [cache[z] for z in ("z1", "z2", "z3", "zd1", "zd2")],
            [np.stack(_pool_windows(nn.relu(cache["z3"])))],
        )

    def predict(self, grid: Grid) -> nn.ClassDistribution:
        return forward(self, grid)

    def stage(self, grids: Sequence[Grid]) -> GridStack:
        """Normalized cells of the grids as one (B, 11, 11, 2) GridStack at model precision.

        Cells of another shape than (11, 11, 2) are a ShapeError naming the
        grid. np.array stacks the checked cells, cheaper than np.stack.
        """
        if len(grids) == 0:
            raise nn.ShapeError("cannot stage an empty list of grids")
        for i, grid in enumerate(grids):
            if grid.cells.shape != _CELLS_SHAPE:
                raise nn.ShapeError(f"grid {i} has cells {grid.cells.shape}, not (11, 11, 2)")
        cells = np.array([g.cells for g in grids])
        x = (cells - self.norm_stats.mean) / self.norm_stats.std
        return GridStack(x.astype(self.vector.dtype, copy=False))

    def predict_batch(self, stack: GridStack) -> np.ndarray:
        """The float64 (B, 4) probabilities of a staged stack, run a chunk of grids at a time.

        Row b holds grid b's probabilities and its argmax (ties -> lowest index)
        is the predicted class, as forward gives them up to float rounding.
        """
        nn.check_staged(stack, GridStack, self.vector.dtype)
        return nn.finite(np.concatenate([forward_grids(self, stack.cells[start : start + _CHUNK])
                                         for start in range(0, len(stack), _CHUNK)]))

    def train_step(self, batch, labels, lr, opt_state, rng=None):
        """train_step on a staged stack, or on a list of grids staged first."""
        if isinstance(batch, list):
            batch = self.stage(batch)
        return train_step(self, batch, labels, lr, opt_state, rng=rng)


def build_gridcnn(seed: int = 0) -> GridCnnModel:
    """Seeded float32 init; deterministic for a given seed."""
    return GridCnnModel(
        **nn.init_layers(_WEIGHT_SHAPES, seed), norm_stats=NormStats.identity(2)
    )


# Grids per forward/backward pass. It bounds a step's scratch memory: a
# float32 batch of 64 peaks at 3.4 MiB of allocations in chunks of 4, 5.1 MiB
# in chunks of 8 and 30 MiB all at once, while larger chunks save under 10%
# of the step time, since each chunk's patch matrices already fill a GEMM.
_CHUNK = 4

# 2x2 pool window offsets in first-winner order, the tie rule of an argmax
# over the flattened window
_POOL_OFFSETS = ((0, 0), (0, 1), (1, 0), (1, 1))

# rows and columns of conv3's output the pool reads: the 11th of each never
# reaches the loss
_POOLED_CELLS = 10


def _tap_index(cells: int) -> np.ndarray:
    """(cells*cells*9,) read-only index into the flattened 13x13 padded cells of a grid.

    Entry ((i*cells + j)*3 + ki)*3 + kj is the padded cell under tap (ki, kj)
    of output cell (i, j), for the output cells i, j < cells.
    """
    i, j, ki, kj = np.ix_(range(cells), range(cells), range(3), range(3))
    index = ((i + ki) * (GRID_CELLS + 2) + j + kj).reshape(-1)
    index.flags.writeable = False
    return index


# the tap indices of all 11x11 output cells and of the 10x10 the pool reads
_TAPS = {GRID_CELLS: _tap_index(GRID_CELLS), _POOLED_CELLS: _tap_index(_POOLED_CELLS)}


def _patches(x: np.ndarray, cells: int = GRID_CELLS) -> np.ndarray:
    """(B, h, w, C) -> (B*cells*cells, 9*C) 3x3 patches of a same-padded 11x11 grid stack.

    The grids hold x (h, w <= 11) in their top-left cells and zeros
    elsewhere; the patches are those of the output cells i, j < cells (11
    or 10, the keys of _TAPS). Column (ki*3 + kj)*C + c holds tap (ki, kj)
    of channel c, matching a (3, 3, C, out) kernel reshaped to (9*C, out).
    The patches are one take of the zero-padded stack over the tap index.
    """
    b, h, w, c = x.shape
    side = GRID_CELLS + 2
    padded = np.zeros((b, side * side, c), dtype=x.dtype)
    padded.reshape(b, side, side, c)[:, 1 : h + 1, 1 : w + 1] = x
    return np.take(padded, _TAPS[cells], axis=1).reshape(b * cells * cells, 9 * c)


def _conv(x: np.ndarray, params: nn.LinearParams, cells: int = GRID_CELLS):
    """Same-padded 3x3 convolution of an 11x11 grid stack at its output
    cells i, j < cells; returns (output, patches)."""
    cout = params.bias.shape[0]
    patches = _patches(x, cells)
    out = nn.rowwise_linear(patches, nn.LinearParams(params.weights.reshape(-1, cout), params.bias))
    return out.reshape(len(x), cells, cells, cout), patches


def _flipped(params: nn.LinearParams) -> np.ndarray:
    """The (in, 9*out) weights whose input gradient is a convolution's: the
    kernel rotated by 180 degrees, its in-channels first."""
    cout = params.bias.shape[0]
    return params.weights[::-1, ::-1].transpose(2, 0, 1, 3).reshape(-1, 9 * cout)


def _conv_grads(patches: np.ndarray, grad_out: np.ndarray, flipped: np.ndarray | None = None):
    """(kernel and bias gradients, input gradient or None without flipped) of a convolution.

    grad_out (B, cells, cells, out) holds the output gradient at the cells
    the patches are of. The kernel gradient is nn.stacked_weight_grad over
    the grids. The input gradient, on the 11x11 grid, is the same-padded
    convolution of grad_out, zero beyond its cells, through flipped
    (_flipped(params)).
    """
    b, rows, cols, cout = grad_out.shape
    g = grad_out.reshape(b, rows * cols, cout)
    kernel = nn.stacked_weight_grad(patches.reshape(b, rows * cols, -1), g)
    part = nn.LinearParams(kernel.reshape(3, 3, -1, cout), g.reshape(-1, cout).sum(axis=0))
    del patches  # the caller passes its last reference: free it before more patches
    if flipped is None:
        return part, None
    return part, nn.input_grad(_patches(grad_out), flipped).reshape(b, GRID_CELLS, GRID_CELLS, -1)


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
    drops: np.ndarray | None = None,
    keep_cache: bool = False,
):
    """Class probabilities (B, 4) for a stack of normalized grids x (B, 11, 11, 2).

    conv3 is computed only at the 10x10 cells the pool reads, and the pool
    takes its pre-activations, with the ReLU after it: relu(max(z)) stands
    for max(relu(z)), bit for bit. Given drops (training), a (B, 160)
    array of dropout multipliers, per grid the 128 of dense1's outputs
    then the 32 of dense2's (see loss_and_grads). With keep_cache, returns
    (probabilities, activations) for the backward pass.
    """
    z1, cols1 = _conv(x, model.conv1)
    a1 = nn.relu(z1)
    z2, cols2 = _conv(a1, model.conv2)
    a2 = nn.relu(z2)
    z3, cols3 = _conv(a2, model.conv3, _POOLED_CELLS)
    m3 = _pool(z3)
    flat = nn.relu(m3).reshape(x.shape[0], FLAT_SIZE)
    zd1 = nn.rowwise_linear(flat, model.dense1)
    ad1 = nn.relu(zd1)
    cache: dict = {}
    if drops is not None:
        cache["drop1"], cache["drop2"] = np.split(drops, [DENSE_WIDTHS[0]], axis=1)
        ad1 = ad1 * cache["drop1"]
    zd2 = nn.rowwise_linear(ad1, model.dense2)
    ad2 = nn.relu(zd2)
    if drops is not None:
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
    """Inference (dropout disabled): forward_grids of a one-grid stack, no chunking."""
    return nn.distribution(nn.finite(forward_grids(model, model.stage([grid]).cells)))


def _chunk_grads(model: GridCnnModel, cells, labels, drops, scale: float, flipped: dict):
    """One chunk's share of loss_and_grads, a pure function of its arguments.

    cells (c, 11, 11, 2), labels and drops (or None) are the chunk's rows
    of the batch's; scale is 1 / batch size; flipped holds the _flipped
    conv2 and conv3 kernels. Returns (probs, conv, dense): the chunk's
    (c, 4) probabilities, each conv layer's kernel and bias gradients over
    the chunk, and each dense layer's inputs and output gradients, a row
    per grid. Takes each activation out of its cache at its last use, so a
    layer's patch matrix is freed before the next layer's gradients are built.
    """
    probs, cache = forward_grids(model, cells, drops, keep_cache=True)
    take = cache.pop
    d_logits = nn.logit_grads(probs, labels, scale, model.vector.dtype)
    dense = {"head": (take("ad2"), d_logits)}
    d_ad2 = nn.input_grad(d_logits, model.head.weights)
    if drops is not None:
        d_ad2 = d_ad2 * take("drop2")
    d_zd2 = nn.relu_backward(take("zd2"), d_ad2)
    dense["dense2"] = take("ad1"), d_zd2
    d_ad1 = nn.input_grad(d_zd2, model.dense2.weights)
    if drops is not None:
        d_ad1 = d_ad1 * take("drop1")
    d_zd1 = nn.relu_backward(take("zd1"), d_ad1)
    dense["dense1"] = take("flat"), d_zd1
    m3 = take("m3")
    d_m3 = nn.relu_backward(m3, nn.input_grad(d_zd1, model.dense1.weights).reshape(m3.shape))
    d_z3 = _pool_grads(take("z3"), m3, d_m3)
    conv = {}
    conv["conv3"], d_a2 = _conv_grads(take("cols3"), d_z3, flipped["conv3"])
    d_z2 = nn.relu_backward(take("z2"), d_a2)
    conv["conv2"], d_a1 = _conv_grads(take("cols2"), d_z2, flipped["conv2"])
    d_z1 = nn.relu_backward(take("z1"), d_a1)
    conv["conv1"], _ = _conv_grads(take("cols1"), d_z1)
    return probs, conv, dense


def loss_and_grads(
    model: GridCnnModel,
    batch: GridStack,
    labels: Sequence[int],
    rng: np.random.Generator | None = None,
) -> Tuple[float, np.ndarray]:
    """Mean cross-entropy over a staged stack and its gradient, laid out like model.vector.

    Dropout is on, drawn from rng for the whole batch at once, when an rng
    is given. The chunks' conv gradients (_chunk_grads) are added into the
    one vector in chunk order; each dense layer's weight gradient is
    nn.add_weight_grad over the batch's rows.
    """
    nn.check_staged(batch, GridStack, model.vector.dtype)
    labels = nn.batch_labels(labels, len(batch))
    n, dtype, keep = len(batch), model.vector.dtype, 1.0 - DROPOUT
    drops = None
    if rng is not None:  # 1 / keep with probability keep, else 0
        drops = (rng.random((n, sum(DENSE_WIDTHS))) < keep).astype(dtype) / keep
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
        probs[rows], conv, chunk = _chunk_grads(
            model, batch.cells[rows], labels[rows], None if drops is None else drops[rows],
            1.0 / n, flipped,
        )
        for layer, part in conv.items():
            slot[layer].weights += part.weights
            slot[layer].bias += part.bias
        for layer, (inputs, grads) in chunk.items():
            dense[layer][0][rows], dense[layer][1][rows] = inputs, grads
        del conv, chunk  # free this chunk's partials before the next chunk's
    for layer, (inputs, grads) in dense.items():
        nn.add_weight_grad(inputs, grads, slot[layer])
    return nn.mean_cross_entropy(probs, labels), grad


def train_step(
    model: GridCnnModel,
    batch: GridStack,
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
    if len(grids) == 0:
        raise DatasetError("cannot compute channel stats from an empty set of grids")
    model.norm_stats = NormStats.of(np.stack([g.cells for g in grids]).reshape(-1, 2))


@dataclass(frozen=True)
class FileConfig:
    """The config block of a grid-CNN model file."""

    dropout: Annotated[float, schema.Range(DROPOUT, DROPOUT)]
    n_classes: Annotated[int, schema.Range(N_CLASSES, N_CLASSES)]

    def __post_init__(self):
        schema.check(self)


def serialize(model: GridCnnModel) -> bytes:
    return nn.write_network(model, MAGIC, asdict(FileConfig(DROPOUT, N_CLASSES)))


def deserialize(data: bytes) -> GridCnnModel:
    _, layers, stats = nn.read_network(
        data, MAGIC, FileConfig, "grid-CNN config", lambda _: _WEIGHT_SHAPES
    )
    return GridCnnModel(**layers, norm_stats=stats)
