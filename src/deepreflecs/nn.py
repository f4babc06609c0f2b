"""Minimal neural-network kernel built on numpy, and the skeleton both networks share.

Row-wise linear maps (weight sharing across list entries), per-segment
and masked global max pooling, the global context layer, softmax
cross-entropy with its flushed logit gradient, the checked class
distribution, and Adam. The reflection network pools pre-activations and
applies the ReLU after the pool (equal outputs, since ReLU is monotone);
the pool backward routes each pooled gradient to its single winning row,
and falls back to the first winner on ties. Every forward layer operation
is a pure function of its inputs; backward passes take the forward inputs
and the upstream gradient and return the input gradient. The Adam step
updates its vector and state in place.

Every matrix product of both networks is formed here, in one of four
functions: rowwise_linear (x @ W), input_grad (g @ W.T, or (W @ g.T).T
for maps with more inputs than g has rows: twice the rate of the plain
form at the grid CNN's dense1), add_weight_grad (x.T @ g, summed in
blocks of rows) and stacked_weight_grad (one product per grid). Each
keeps its operands, so the bits of a weight gradient do not depend on
the BLAS thread count while its blocks stay below OpenBLAS's split point
(see WEIGHT_GRAD_BLOCK); they do depend on the kernel OpenBLAS picks.

Matrices are 2-D ndarrays (a row per list entry, a column per feature); a
batch of lists is one matrix of all their rows plus Segments (None for one
list). The masked kernels (one padded list and its mask) serve only
perfbench's trace list. A network's stage checks its inputs into its
staged type; check_staged admits only that type, batch_index indexes it
and batch_labels checks labels, and no layer re-checks them. Forward code
runs on float32 arrays for speed or on float64 for gradient checks.

Network is the skeleton of the reflection network and the grid CNN, driven
by each one's layer table: one parameter vector that every layer's tensors
view, gradients laid out like it, seeded init, train-step update (one
in-place Adam step of that vector), the central-difference gradient
check (gradcheck nudges the parameters of a float64 copy in place and
differences its mean batch loss) with its kink-safe sample search, and
model-file layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from . import container, schema
from .preprocess import CLASSES, NormStats, class_indices

CROSS_ENTROPY_EPS = 1e-12
# logit-gradient entries below this are zeroed: in float32 they would be
# subnormal, and a product with subnormal operands can run 100x slower
LOGIT_GRAD_FLUSH = 1e-20
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
GRADCHECK_EPS = 1e-8
# central-difference step; an element whose relative error stays above
# GRADCHECK_RETRY_ABOVE is re-checked with the step shrunk 8x, at most
# GRADCHECK_RETRIES times
GRADCHECK_STEP = 1e-5
GRADCHECK_RETRY_ABOVE = 1e-4
GRADCHECK_RETRIES = 2
SAFE_SAMPLE_TRIES = 200
# Multiply-adds (rows x in x out) of one block of a weight gradient, and
# its least rows. Under the SkylakeX kernel of OpenBLAS 0.3.31, a weight
# product first differs between 1 and 2 threads at 449 rows for the grid
# CNN's 1600 x 128 and 128 x 32 maps and at 977 rows for a 32 x 32 map.
# 768 rows of the 32 x 32 conv2 keep a desk batch of 64 objects (196-535
# rows) one block; the row floor keeps a grid-CNN batch of 64 one block.
WEIGHT_GRAD_BLOCK = 768 * 32 * 32
WEIGHT_GRAD_ROWS = 64


class ShapeError(ValueError):
    """An operand's shape, or its count of labels, does not fit the network."""


class EmptyPoolError(ValueError):
    """An input, or a masked list, has no rows to pool."""


class TrainingError(RuntimeError):
    """Optimization cannot continue (non-finite loss or gradient)."""


class NonFiniteError(ArithmeticError):
    """A forward pass gave a class probability that is inf or NaN."""


@dataclass
class ClassDistribution:
    """Class probabilities plus the argmax decision (ties -> lowest index)."""

    probabilities: np.ndarray
    predicted: int


def finite(probs: np.ndarray) -> np.ndarray:
    """A (B, n_classes) probability matrix, once it is checked to be finite.

    A finite but extreme weight or norm statistic can overflow a forward
    pass; such a matrix raises NonFiniteError rather than being read.
    """
    if not np.isfinite(probs).all():
        bad = np.count_nonzero(~np.isfinite(probs).all(axis=1))
        raise NonFiniteError(f"{bad} of {len(probs)} class distributions are not finite")
    return probs


def distribution(probs: np.ndarray) -> ClassDistribution:
    """The ClassDistribution of a one-row probability matrix that finite has checked."""
    return ClassDistribution(probabilities=probs[0], predicted=int(probs[0].argmax()))


@dataclass
class LinearParams:
    """Weights and bias of a linear map, shared across all list entries.

    weights (..., in, out) and bias (out,): (in, out) for a row-wise or
    dense layer, (3, 3, in, out) for a 3x3 kernel. The shapes come from a
    layer table, and container.check_contents holds model files to it.
    """

    weights: np.ndarray
    bias: np.ndarray

    @property
    def in_features(self) -> int:
        return self.weights.shape[-2]


def rowwise_linear(x: np.ndarray, params: LinearParams) -> np.ndarray:
    """Apply the same linear map to every row of x.

    x: (M, in_features) -> (M, out_features). Rows are processed
    independently, so the op is exactly equivariant to row permutations.
    """
    out = x @ params.weights
    return np.add(out, params.bias, out=out)


def input_grad(grad_out: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """grad_out @ weights.T, the input gradient of a linear map with weights (in, out);
    (weights @ grad_out.T).T where the map has more inputs than grad_out has rows."""
    if weights.shape[0] > grad_out.shape[0]:
        return (weights @ grad_out.T).T
    return grad_out @ weights.T


def add_weight_grad(x: np.ndarray, grad_out: np.ndarray, grad: LinearParams) -> None:
    """Add x.T @ grad_out and grad_out's column sums into grad, a layer's gradient slot.

    The product is added one block of rows at a time, in row order: each
    block is max(WEIGHT_GRAD_ROWS, WEIGHT_GRAD_BLOCK // (in * out)) rows.
    """
    rows = max(WEIGHT_GRAD_ROWS, WEIGHT_GRAD_BLOCK // (x.shape[1] * grad_out.shape[1]))
    for start in range(0, x.shape[0], rows):
        grad.weights += x[start : start + rows].T @ grad_out[start : start + rows]
    grad.bias += grad_out.sum(axis=0)


def stacked_weight_grad(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """The weight gradient of one linear map over a stack of matrices x (S, M, in) with
    output gradients (S, M, out): x[s].T @ grad_out[s] summed over s in order."""
    return np.matmul(x.transpose(0, 2, 1), grad_out).sum(axis=0)


def rowwise_linear_backward(
    x: np.ndarray, params: LinearParams, grad_out: np.ndarray, grad: LinearParams,
    need_input_grad: bool = True,
) -> np.ndarray | None:
    """add_weight_grad into grad, then the input gradient of rowwise_linear (or None)."""
    add_weight_grad(x, grad_out, grad)
    return input_grad(grad_out, params.weights) if need_input_grad else None


def relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise max(0, x), into out if given (out=x runs in place)."""
    return np.maximum(x, 0, out=out)


def relu_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    # subgradient at exactly 0 is 0
    return grad_out * (x > 0)


class Segments:
    """A batch of lists stored as consecutive row ranges of one matrix.

    Built only from the lists' lengths, a 1-D list of integers >= 1 (none for
    an empty batch), else a ShapeError: segment b covers lengths[b] rows from
    row starts[b], and ids[r] is the segment of row r.
    """

    def __init__(self, lengths):
        try:
            given = np.asarray(lengths)
        except ValueError:  # a ragged list: kept as objects, which the dtype check refuses
            given = np.asarray(lengths, dtype=object)
        # only integers (and an empty list) are cast, so the dtype check refuses the rest
        lengths = given.astype(np.intp) if given.dtype.kind in "iu" or not given.size else given
        if lengths.ndim != 1 or lengths.dtype != np.intp or lengths.min(initial=1) < 1:
            raise ShapeError(f"segment lengths must be a 1-D list of integers >= 1, got {given!r}")
        self.lengths = lengths
        self.starts = np.cumsum(lengths) - lengths
        self.ids = np.repeat(np.arange(lengths.size), lengths)


def segment_max_pool(x: np.ndarray, segments: Segments | None) -> np.ndarray:
    """Per-feature maximum over each segment's rows: (R, N) -> (B, N), (1, N) for None.

    Segments never mix, so the rows of one list cannot leak into the
    result of another.
    """
    return (x.max(axis=0, keepdims=True) if segments is None
            else np.maximum.reduceat(x, segments.starts, axis=0))


def segment_max_pool_backward(
    x: np.ndarray, segments: Segments, grad_out: np.ndarray, pooled: np.ndarray
) -> np.ndarray:
    """Route each segment's feature gradient to its winning row, at x's precision.

    pooled is the forward result, segment_max_pool(x, segments). Where
    every (segment, feature) maximum has a single winning row, as for
    untied pre-activations, each gradient goes straight to it; on a tie
    (or a NaN) it goes to the first (lowest-index) winner.
    """
    wins = x == pooled[segments.ids]
    # each non-NaN maximum has at least one winner, so one count shows there is exactly one
    if np.count_nonzero(wins) == pooled.size and not np.isnan(pooled).any():
        return np.where(wins, grad_out[segments.ids], 0).astype(x.dtype, copy=False)
    return _first_winner_grad(x, segments, grad_out, pooled)


def _first_winner_grad(
    x: np.ndarray, segments: Segments, grad_out: np.ndarray, pooled: np.ndarray
) -> np.ndarray:
    """segment_max_pool_backward routing to the first winner of every maximum."""
    n_rows = x.shape[0]
    # rows below their segment's maximum can never win; the lowest row
    # index among the others is the first winner
    candidates = np.where(x < pooled[segments.ids], n_rows, np.arange(n_rows)[:, None])
    winners = np.minimum.reduceat(candidates, segments.starts, axis=0)
    grad_x = np.zeros_like(x)
    grad_x[winners, np.arange(x.shape[1])] = grad_out
    return grad_x


def segment_context_layer(x: np.ndarray, segments: Segments | None) -> np.ndarray:
    """Append each segment's pooled feature vector to every row of that segment.

    Row r of the output is concat(x[r], g[ids[r]]) with g the per-segment
    max pool of x (one g for None). Output shape (R, 2N).
    """
    g = segment_max_pool(x, segments)
    out = np.empty((len(x), 2 * x.shape[1]), dtype=x.dtype)
    out[:, : x.shape[1]] = x
    out[:, x.shape[1] :] = g if segments is None else g[segments.ids]
    return out


def segment_context_layer_backward(
    x: np.ndarray, segments: Segments, grad_out: np.ndarray, pooled: np.ndarray
) -> np.ndarray:
    """Identity path for the local half plus pooled path for the global half.

    The global-half gradients of each segment's rows are summed and pushed
    through that segment's pooling backward; pooled is segment_max_pool(x, segments).
    """
    n = x.shape[1]
    grad_global = np.add.reduceat(grad_out[:, n:], segments.starts, axis=0)
    return grad_out[:, :n] + segment_max_pool_backward(x, segments, grad_global, pooled)


def _valid_rows(x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (x.shape[0],):
        raise ShapeError(
            f"mask length {mask.shape} does not match {x.shape[0]} rows"
        )
    if not mask.any():
        raise EmptyPoolError("cannot pool an input whose rows are all masked")
    return mask


def masked_global_max_pool(x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Per-feature maximum over the unmasked rows of x.

    Only valid rows participate in the reduction; padded rows are never
    touched, so their content cannot leak into the result.
    """
    return segment_max_pool(x[_valid_rows(x, mask)], None)[0]


def masked_global_max_pool_backward(
    x: np.ndarray, mask: np.ndarray, grad_out: np.ndarray
) -> np.ndarray:
    """Route each feature's gradient to the first (lowest-index) winning row."""
    rows = np.flatnonzero(_valid_rows(x, mask))
    valid = x[rows]
    grad_x = np.zeros_like(x)
    grad_x[rows] = segment_max_pool_backward(
        valid, Segments([rows.size]), np.asarray(grad_out)[None], valid.max(axis=0, keepdims=True)
    )
    return grad_x


def global_context_layer(x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Append the pooled global feature vector to every list entry.

    The unmasked rows of x are max-pooled into a single global vector g,
    and row i of the output is concat(x[i], g). Masked rows receive g as
    well but stay masked downstream. Output shape (M, 2N).
    """
    g = masked_global_max_pool(x, mask)
    return np.concatenate([x, np.broadcast_to(g, x.shape)], axis=1)


def global_context_layer_backward(
    x: np.ndarray, mask: np.ndarray, grad_out: np.ndarray
) -> np.ndarray:
    """Identity path for the local half plus pooled path for the global half.

    The global-half gradients of all unmasked rows are summed and pushed
    through the pooling backward.
    """
    n = x.shape[1]
    mask = np.asarray(mask, dtype=bool)
    grad_global = grad_out[mask, n:].sum(axis=0)
    return grad_out[:, :n] + masked_global_max_pool_backward(x, mask, grad_global)


def dense(x: np.ndarray, params: LinearParams) -> np.ndarray:
    """Fully connected layer on a single feature vector."""
    x = np.asarray(x)
    if x.ndim != 1 or x.shape[0] != params.in_features:
        raise ShapeError(
            f"input of shape {x.shape} does not match {params.in_features} features"
        )
    return rowwise_linear(x[None], params)[0]


def dense_backward(
    x: np.ndarray, params: LinearParams, grad_out: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    grad = LinearParams(np.zeros_like(params.weights), np.zeros_like(params.bias))
    add_weight_grad(x[None], grad_out[None], grad)
    return input_grad(grad_out[None], params.weights)[0], grad.weights, grad.bias


def softmax(z: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis, computed in float64.

    A 2-D input is a batch of logit rows. The max-shift keeps exp() in
    range for logits up to ~1e3 either way; each result sums to 1 within
    1e-12.
    """
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return np.divide(e, e.sum(axis=-1, keepdims=True), out=e)


def check_staged(batch, kind: type, dtype) -> None:
    """A ShapeError naming what it got for anything but a non-empty kind at dtype."""
    if not (isinstance(batch, kind) and len(batch) and batch.dtype == dtype):
        got = f"{len(batch)} at {batch.dtype}" if isinstance(batch, kind) else type(batch).__name__
        raise ShapeError(f"need a non-empty {kind.__name__} at {np.dtype(dtype)}, got {got}")


def batch_index(indices, size: int) -> np.ndarray:
    """indices as a 1-D, non-empty intp array of positions in [0, size), else a ShapeError."""
    index = np.asarray(indices)  # a slice or scalar is 0-d, booleans and floats not "iu"
    if (index.ndim != 1 or index.size == 0 or index.dtype.kind not in "iu"
            or index.min() < 0 or index.max() >= size):
        raise ShapeError(f"need a 1-D, non-empty index array of integers in [0, {size}), "
                         f"got {index!r}")
    return index.astype(np.intp, copy=False)


def batch_labels(labels, batch_size: int) -> np.ndarray:
    """class_indices of a batch's labels; a count other than batch_size is a ShapeError."""
    labels = class_indices(labels, len(CLASSES), "labels")
    if labels.size != batch_size:
        raise ShapeError(f"{labels.size} labels for a batch of size {batch_size}")
    return labels


def mean_cross_entropy(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean over probability rows of each row's -ln(p[label] + eps)."""
    picked = probs[np.arange(probs.shape[0]), labels]
    return float(-np.log(picked + CROSS_ENTROPY_EPS).mean())


def softmax_cross_entropy_grad(p: np.ndarray, label) -> np.ndarray:
    """Gradient of the cross-entropy of softmax(z) and label w.r.t. the logits z.

    Also takes a batch: probability rows p with one label per row.
    """
    p = np.asarray(p, dtype=np.float64)
    return p - np.eye(p.shape[-1])[label]


def logit_grads(probs: np.ndarray, labels: np.ndarray, scale: float, dtype) -> np.ndarray:
    """scale * softmax_cross_entropy_grad of a batch, cast to dtype after
    zeroing entries below LOGIT_GRAD_FLUSH in magnitude."""
    grads = softmax_cross_entropy_grad(probs, labels) * scale
    grads[np.abs(grads) < LOGIT_GRAD_FLUSH] = 0.0
    return grads.astype(dtype)


@dataclass
class AdamState:
    """First/second moment accumulators, shaped like the parameters, and step counter."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0


def adam_step(params: np.ndarray, grad: np.ndarray, lr: float, state: AdamState) -> None:
    """Adaptive moment estimation with bias correction, in place.

    Updates params and state to p - lr * m_hat / (sqrt(v_hat) + ADAM_EPS),
    with moment decays ADAM_BETA1 and ADAM_BETA2. The update is
    elementwise, so one call on several tensors joined into one vector is
    bitwise one call per tensor.
    """
    state.t += 1
    state.m *= ADAM_BETA1
    state.m += (1.0 - ADAM_BETA1) * grad
    scratch = (1.0 - ADAM_BETA2) * grad
    scratch *= grad
    state.v *= ADAM_BETA2
    state.v += scratch
    denom = np.divide(state.v, 1.0 - ADAM_BETA2**state.t, out=scratch)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    step = state.m / (1.0 - ADAM_BETA1**state.t)
    step *= lr
    step /= denom
    params -= step


# the weight shape of each layer, in order: (fan_in, fan_out) for a linear
# map, (3, 3, in_channels, out_channels) for a 3x3 convolution
LayerShapes = Dict[str, Tuple[int, ...]]


class Network:
    """The parameter vector and train-step update of a network.

    A network is a dataclass with one LinearParams field per layer of its
    layer table, layer_shapes(), and a norm_stats field normalizing the
    first layer's input features. The table fixes the parameter names
    ('<layer>.weights', '<layer>.bias') and their order: in params(), in
    the parameter vector, in a gradient vector and in the model file. Every
    construction, copy and astype included, moves the layers' tensors into
    one new 1-D vector and makes them views of it, so one Adam step updates
    all of them in place. A network also has stage() (a list of inputs ->
    the staged batch every batch function takes), predict_batch() (the
    float64 (B, n_classes) probability matrix of a staged batch) and, for
    gradient checks, random_input(rng), kink_margin(input) and safe_margin
    (see random_safe_sample).
    """

    def __post_init__(self):
        self.vector = np.concatenate([t.ravel() for t in self.params().values()])
        for layer, views in self.layers_of(self.vector).items():
            setattr(self, layer, views)

    def layer_shapes(self) -> LayerShapes:
        raise NotImplementedError

    def layers_of(self, vector: np.ndarray) -> Dict[str, LinearParams]:
        """Views of a vector in the parameter layout, one LinearParams per layer."""
        layers, start = {}, 0
        for layer, shape in self.layer_shapes().items():
            stop = start + math.prod(shape)
            layers[layer] = LinearParams(
                vector[start:stop].reshape(shape), vector[stop : stop + shape[-1]]
            )
            start = stop + shape[-1]
        return layers

    def params(self, vector: np.ndarray | None = None) -> Dict[str, np.ndarray]:
        """Live views of all learnable tensors, keyed by stable names.

        Given a vector in the parameter layout (a gradient), the views are
        of that vector instead.
        """
        layers = vars(self) if vector is None else self.layers_of(vector)
        return {
            f"{layer}.{part}": getattr(layers[layer], part)
            for layer in self.layer_shapes() for part in ("weights", "bias")
        }

    def copy(self):
        """A copy sharing no array with this network."""
        stats = NormStats(self.norm_stats.mean.copy(), self.norm_stats.std.copy())
        return replace(self, norm_stats=stats)

    def astype(self, dtype):
        """Same network at a different parameter precision (e.g. float64)."""
        return replace(self, **self.layers_of(self.vector.astype(dtype)))

    def update(
        self, loss: float, grad: np.ndarray, lr: float, opt_state: AdamState | None,
    ) -> Tuple[float, AdamState]:
        """A train step after its loss and gradient vector; returns (loss, new opt_state).

        A non-finite loss or gradient raises TrainingError, which names the
        first tensor in table order holding a non-finite gradient; otherwise
        the gradient takes one adam_step of the vector in place, from fresh
        moments when opt_state is None.
        """
        if not np.isfinite(loss):
            raise TrainingError(f"non-finite training loss {loss}")
        if not np.isfinite(grad).all():
            bad = next(name for name, g in self.params(grad).items() if not np.isfinite(g).all())
            raise TrainingError(f"non-finite gradient for parameter '{bad}'")
        if opt_state is None:
            opt_state = AdamState(np.zeros_like(self.vector), np.zeros_like(self.vector))
        adam_step(self.vector, grad, lr, opt_state)
        return loss, opt_state


def init_layers(shapes: LayerShapes, seed: int) -> Dict[str, LinearParams]:
    """Seeded float32 uniform fan-in/fan-out init of each layer in table order, zero biases.

    A 3x3 kernel's fans are its nine cells times its in- and out-channels.
    """
    rng = np.random.default_rng(seed)
    layers = {}
    for layer, shape in shapes.items():
        limit = math.sqrt(6.0 / (math.prod(shape[:-2]) * sum(shape[-2:])))
        weights = rng.uniform(-limit, limit, size=shape).astype(np.float32)
        layers[layer] = LinearParams(weights, np.zeros(shape[-1], dtype=np.float32))
    return layers


@dataclass
class GradCheckReport:
    """Outcome of a central-difference gradient check.

    per_parameter_errors holds one (name, analytic, numeric, relative
    error) entry per checked element, named '<layer>.<part>[i,j]'.
    """

    max_relative_error: float
    per_parameter_errors: List[Tuple[str, float, float, float]]


def _pool_tie_margin(activations: np.ndarray) -> float:
    """Smallest gap between the two largest positive values along axis 0.

    Positions pinned at zero by the ReLU are safe (covered by the
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


def kink_margin(pre_activations: Sequence[np.ndarray], pool_inputs: Sequence[np.ndarray]) -> float:
    """Least |pre-activation| of any ReLU and tie margin of any pool (its values on axis 0).

    Gradient checks need this distance from the nearest kink to be well above
    the finite-difference step, or the perturbed losses straddle a kink.
    """
    margins = [np.abs(z).min() for z in pre_activations]
    margins += [_pool_tie_margin(a) for a in pool_inputs]
    return float(min(margins))


def random_safe_sample(net: Network, rng: np.random.Generator) -> tuple:
    """(input, label): the first net.random_input(rng) clear of every kink.

    Clear means net.kink_margin(input) > net.safe_margin; RuntimeError after
    SAFE_SAMPLE_TRIES inputs that are not. The label, uniform over the
    classes (the last layer's width), is drawn after it.
    """
    for _ in range(SAFE_SAMPLE_TRIES):
        inp = net.random_input(rng)
        if net.kink_margin(inp) > net.safe_margin:
            n_classes = list(net.layer_shapes().values())[-1][-1]
            return inp, int(rng.integers(0, n_classes))
    raise RuntimeError(f"no kink-safe sample found in {SAFE_SAMPLE_TRIES} tries")


def gradcheck(
    net: Network, batch: Sequence, labels: Sequence[int], loss_and_grads: Callable,
    max_checks_per_tensor: int | None = None, seed: int = 0,
) -> GradCheckReport:
    """Central-difference check of a network's mean batch loss, in float64.

    loss_and_grads(net, staged batch, labels) gives the analytic gradient
    vector (with dropout off). Each checked element of a float64 copy of
    net is nudged in place by +/- h = GRADCHECK_STEP, and the mean
    cross-entropy of predict_batch on the same staged batch is differenced;
    relative error is |a - n| / max(|a|, |n|, GRADCHECK_EPS).

    Tensors are checked in sorted-name order. One larger than
    max_checks_per_tensor checks only that many elements, drawn without
    replacement from an rng seeded with seed and checked in index order;
    None checks every element.

    Central differencing is only valid where the loss is smooth on
    [p-h, p+h]. When an element's error exceeds GRADCHECK_RETRY_ABOVE, the
    step is shrunk (8x, up to GRADCHECK_RETRIES times) to clear any
    ReLU/max kink inside the interval: a straddled kink converges away
    under smaller h, a wrong analytic gradient does not.
    """
    wide = net.astype(np.float64)
    staged = wide.stage(batch)
    analytic = wide.params(loss_and_grads(wide, staged, labels)[1])
    rng = np.random.default_rng(seed)

    def nudged_loss(flat: np.ndarray, i: int, value: float) -> float:
        flat[i] = value
        return mean_cross_entropy(wide.predict_batch(staged), labels)

    errors = []
    for name, p in sorted(wide.params().items()):
        flat = p.reshape(-1)  # a view of wide.vector
        indices = np.arange(flat.size)
        if max_checks_per_tensor is not None and flat.size > max_checks_per_tensor:
            indices = np.sort(rng.choice(flat.size, size=max_checks_per_tensor, replace=False))
        for i in indices:
            a = float(analytic[name].flat[i])
            original, step = flat[i], GRADCHECK_STEP
            for _ in range(1 + GRADCHECK_RETRIES):
                loss_plus = nudged_loss(flat, i, original + step)
                n = (loss_plus - nudged_loss(flat, i, original - step)) / (2.0 * step)
                rel = abs(a - n) / max(abs(a), abs(n), GRADCHECK_EPS)
                if rel <= GRADCHECK_RETRY_ABOVE:
                    break
                step /= 8.0
            flat[i] = original
            subscript = ",".join(str(d) for d in np.unravel_index(i, p.shape))
            errors.append((f"{name}[{subscript}]", a, n, rel))
    return GradCheckReport(max((e[3] for e in errors), default=0.0), errors)


def gradcheck_random_batch(
    net: Network, n_samples: int, loss_and_grads: Callable, seed: int = 0,
    max_checks_per_tensor: int | None = None,
) -> GradCheckReport:
    """gradcheck on n_samples random_safe_sample draws from an rng seeded [seed, 1]."""
    rng = np.random.default_rng([seed, 1])
    batch, labels = zip(*(random_safe_sample(net, rng) for _ in range(n_samples)))
    return gradcheck(net, batch, labels, loss_and_grads, max_checks_per_tensor, seed)


def write_network(net: Network, magic: bytes, config: dict) -> bytes:
    """A network's model file: config, float64 norm stats, float32 parameters."""
    arrays = [(name, np.asarray(p, dtype=np.float32)) for name, p in net.params().items()]
    return container.write_container(
        magic, config, (net.norm_stats.mean, net.norm_stats.std), arrays
    )


def read_network(
    data: bytes, magic: bytes, config_cls: type, what: str, layer_shapes: Callable
) -> Tuple[object, Dict[str, LinearParams], NormStats]:
    """(config, layers, norm stats) of a model file; container.ContainerError if it is bad.

    The config block is a config_cls (named what in errors), the arrays
    those of the table layer_shapes(config), the norm stats one per input
    feature of the first layer.
    """
    parsed = container.read_container(data, magic)
    config = schema.build(config_cls, parsed.config, what, error=container.ContainerError)
    shapes = layer_shapes(config)
    expected = {}
    for layer, shape in shapes.items():
        expected.update({f"{layer}.weights": (shape, "f"), f"{layer}.bias": (shape[-1:], "f")})
    container.check_contents(parsed, expected, n_stats=next(iter(shapes.values()))[-2])
    arrays = parsed.arrays
    layers = {
        layer: LinearParams(arrays[f"{layer}.weights"], arrays[f"{layer}.bias"]) for layer in shapes
    }
    try:  # copies, so that the network keeps no view of the file bytes alive
        return config, layers, NormStats(parsed.norm_means.copy(), parsed.norm_stds.copy())
    except ValueError as exc:
        raise container.ContainerError(f"norm-stats block: {exc}") from exc
