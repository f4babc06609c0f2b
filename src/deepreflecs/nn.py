"""Minimal neural-network kernel built on numpy.

Row-wise linear maps (weight sharing across list entries), per-segment
and masked global max pooling, the global context layer, softmax
cross-entropy, two optimizers, and a central-difference gradient checker.
Every operation is a pure function of its inputs; backward passes take
the forward inputs and the upstream gradient and return downstream
gradients.

Matrices are plain 2-D ndarrays (one row per list entry, one column per
feature). A batch of lists is one matrix of all their rows plus Segments
(where each list starts); a single padded list is a matrix plus a 1-D
boolean mask (True = real entry, False = padding). Forward code is
precision-agnostic: run it on float32 arrays for speed or float64 for
gradient checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Tuple

import numpy as np

CROSS_ENTROPY_EPS = 1e-12
GRADCHECK_EPS = 1e-8


class ShapeError(ValueError):
    """Operand shapes do not satisfy the layer contract."""


class EmptyPoolError(ValueError):
    """A masked reduction was asked to pool zero valid rows."""


class TrainingError(RuntimeError):
    """Optimization cannot continue (non-finite loss or gradient)."""


class NonFiniteError(ArithmeticError):
    """A forward pass gave a class probability that is inf or NaN."""


@dataclass
class LinearParams:
    """Weights and bias of a linear map, shared across all list entries.

    weights has shape (in_features, out_features), bias (out_features,).
    """

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights)
        self.bias = np.asarray(self.bias)
        if self.weights.ndim != 2 or self.bias.ndim != 1:
            raise ShapeError("weights must be 2-D and bias 1-D")
        if self.weights.shape[1] != self.bias.shape[0]:
            raise ShapeError(
                f"bias length {self.bias.shape[0]} does not match "
                f"{self.weights.shape[1]} output features"
            )

    @property
    def in_features(self) -> int:
        return self.weights.shape[0]

    @property
    def out_features(self) -> int:
        return self.weights.shape[1]

    def size(self) -> int:
        """Number of learnable scalars (weight elements plus bias elements)."""
        return self.weights.size + self.bias.size

    def astype(self, dtype) -> "LinearParams":
        return LinearParams(self.weights.astype(dtype), self.bias.astype(dtype))

    def copy(self) -> "LinearParams":
        return LinearParams(self.weights.copy(), self.bias.copy())


def rowwise_linear(x: np.ndarray, params: LinearParams) -> np.ndarray:
    """Apply the same linear map to every row of x.

    x: (M, in_features) -> (M, out_features). Rows are processed
    independently, so the op is exactly equivariant to row permutations.
    """
    x = np.asarray(x)
    if x.ndim != 2:
        raise ShapeError(f"expected a 2-D input, got shape {x.shape}")
    if x.shape[1] != params.in_features:
        raise ShapeError(
            f"input has {x.shape[1]} features, layer expects {params.in_features}"
        )
    return x @ params.weights + params.bias


def rowwise_linear_backward(
    x: np.ndarray, params: LinearParams, grad_out: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of rowwise_linear w.r.t. input, weights and bias."""
    grad_x = grad_out @ params.weights.T
    grad_w = x.T @ grad_out
    grad_b = grad_out.sum(axis=0)
    return grad_x, grad_w, grad_b


def relu(x: np.ndarray) -> np.ndarray:
    """Elementwise max(0, x)."""
    return np.maximum(x, 0)


def relu_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    # subgradient at exactly 0 is 0
    return grad_out * (x > 0)


class Segments(NamedTuple):
    """A batch of lists stored as consecutive row ranges of one matrix.

    Segment b covers rows starts[b] up to (not including) starts[b + 1],
    the last one runs to the final row; ids[r] is the segment of row r.
    Every segment holds at least one row.
    """

    starts: np.ndarray  # (B,) intp, starts[0] == 0, strictly increasing
    ids: np.ndarray     # (R,) intp

    @classmethod
    def from_lengths(cls, lengths) -> "Segments":
        lengths = np.asarray(lengths, dtype=np.intp)
        if lengths.ndim != 1 or lengths.size == 0:
            raise ShapeError("need a 1-D, non-empty list of segment lengths")
        if lengths.min() < 1:
            raise EmptyPoolError("cannot pool a segment with no rows")
        return cls(np.cumsum(lengths) - lengths, np.repeat(np.arange(lengths.size), lengths))

    @classmethod
    def single(cls, n_rows: int) -> "Segments":
        """All n_rows rows as one segment (cheaper than from_lengths([n_rows]))."""
        if n_rows < 1:
            raise EmptyPoolError("cannot pool a segment with no rows")
        return cls(np.zeros(1, dtype=np.intp), np.zeros(n_rows, dtype=np.intp))


def segment_max_pool(x: np.ndarray, segments: Segments) -> np.ndarray:
    """Per-feature maximum over each segment's rows: (R, N) -> (B, N).

    Segments never mix, so the rows of one list cannot leak into the
    result of another.
    """
    return np.maximum.reduceat(x, segments.starts, axis=0)


def segment_max_pool_backward(
    x: np.ndarray, segments: Segments, grad_out: np.ndarray, pooled: np.ndarray | None = None
) -> np.ndarray:
    """Route each segment's feature gradient to its first (lowest-index) winning row.

    pooled is the forward result; pass it to save recomputing it.
    """
    if pooled is None:
        pooled = segment_max_pool(x, segments)
    n_rows = x.shape[0]
    # rows below their segment's maximum can never win; the lowest row
    # index among the others is the first winner
    candidates = np.where(x < pooled[segments.ids], n_rows, np.arange(n_rows)[:, None])
    winners = np.minimum.reduceat(candidates, segments.starts, axis=0)
    grad_x = np.zeros_like(x)
    grad_x[winners, np.arange(x.shape[1])] = grad_out
    return grad_x


def segment_context_layer(x: np.ndarray, segments: Segments) -> np.ndarray:
    """Append each segment's pooled feature vector to every row of that segment.

    Row r of the output is concat(x[r], g[ids[r]]) with g the per-segment
    max pool of x. Output shape (R, 2N).
    """
    g = segment_max_pool(x, segments)
    return np.concatenate([x, g[segments.ids]], axis=1)


def segment_context_layer_backward(
    x: np.ndarray, segments: Segments, grad_out: np.ndarray, pooled: np.ndarray | None = None
) -> np.ndarray:
    """Identity path for the local half plus pooled path for the global half.

    The global-half gradients of each segment's rows are summed and pushed
    through that segment's pooling backward (pooled as there).
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
    valid = x[_valid_rows(x, mask)]
    return segment_max_pool(valid, Segments.single(valid.shape[0]))[0]


def masked_global_max_pool_backward(
    x: np.ndarray, mask: np.ndarray, grad_out: np.ndarray
) -> np.ndarray:
    """Route each feature's gradient to the first (lowest-index) winning row."""
    rows = np.flatnonzero(_valid_rows(x, mask))
    grad_x = np.zeros_like(x)
    grad_x[rows] = segment_max_pool_backward(
        x[rows], Segments.single(rows.size), np.asarray(grad_out)[None]
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
    return x @ params.weights + params.bias


def dense_backward(
    x: np.ndarray, params: LinearParams, grad_out: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    grad_x = params.weights @ grad_out
    grad_w = np.outer(x, grad_out)
    return grad_x, grad_w, grad_out.copy()


def softmax(z: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis, computed in float64.

    A 2-D input is a batch of logit rows. The max-shift keeps exp() in
    range for logits up to ~1e3 either way; each result sums to 1 within
    1e-12.
    """
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy(p: np.ndarray, label: int) -> float:
    """Negative log-likelihood of the labelled class, -ln(p[label] + eps)."""
    return float(-np.log(p[label] + CROSS_ENTROPY_EPS))


def mean_cross_entropy(probs: np.ndarray, labels: np.ndarray) -> float:
    """cross_entropy averaged over a batch of probability rows."""
    picked = probs[np.arange(probs.shape[0]), labels]
    return float(-np.log(picked + CROSS_ENTROPY_EPS).mean())


def softmax_cross_entropy_grad(p: np.ndarray, label) -> np.ndarray:
    """Gradient of cross_entropy(softmax(z), label) w.r.t. the logits z.

    Also takes a batch: probability rows p with one label per row.
    """
    p = np.asarray(p, dtype=np.float64)
    return p - np.eye(p.shape[-1])[label]


def _check_finite_grads(grads: Dict[str, np.ndarray]) -> None:
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient for parameter '{name}'")


def sgd_step(
    params: Dict[str, np.ndarray], grads: Dict[str, np.ndarray], lr: float
) -> Dict[str, np.ndarray]:
    """Plain gradient descent: p <- p - lr * g."""
    _check_finite_grads(grads)
    return {name: p - lr * grads[name] for name, p in params.items()}


@dataclass
class AdamState:
    """First/second moment accumulators and step counter."""

    m: Dict[str, np.ndarray]
    v: Dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def zeros_like(cls, params: Dict[str, np.ndarray]) -> "AdamState":
        return cls(
            m={name: np.zeros_like(p) for name, p in params.items()},
            v={name: np.zeros_like(p) for name, p in params.items()},
            t=0,
        )


def adam_step(
    params: Dict[str, np.ndarray],
    grads: Dict[str, np.ndarray],
    lr: float,
    state: AdamState | None = None,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> Tuple[Dict[str, np.ndarray], AdamState]:
    """Adaptive moment estimation with bias correction.

    Returns the updated parameters and the new optimizer state; the inputs
    are left untouched, so the update is deterministic and replayable.
    """
    _check_finite_grads(grads)
    if state is None:
        state = AdamState.zeros_like(params)
    t = state.t + 1
    new_params: Dict[str, np.ndarray] = {}
    new_m: Dict[str, np.ndarray] = {}
    new_v: Dict[str, np.ndarray] = {}
    for name, p in params.items():
        g = grads[name]
        # p - lr * m_hat / (sqrt(v_hat) + eps), bit for bit, computed in
        # place: three scratch arrays per tensor instead of eleven
        m = beta1 * state.m[name]
        m += (1.0 - beta1) * g
        v = (1.0 - beta2) * g
        v *= g
        v += beta2 * state.v[name]
        denom = v / (1.0 - beta2**t)
        np.sqrt(denom, out=denom)
        denom += eps
        step = m / (1.0 - beta1**t)
        step *= lr
        step /= denom
        del denom
        new_params[name] = np.subtract(p, step, out=step)
        new_m[name] = m
        new_v[name] = v
    return new_params, AdamState(new_m, new_v, t)


def optimizer_step(
    params: Dict[str, np.ndarray],
    grads: Dict[str, np.ndarray],
    lr: float,
    state: AdamState | None = None,
    strategy: str = "adam",
) -> Tuple[Dict[str, np.ndarray], AdamState | None]:
    """Dispatch to one of the two update strategies ('adam' or 'sgd')."""
    if strategy == "adam":
        return adam_step(params, grads, lr, state)
    if strategy == "sgd":
        return sgd_step(params, grads, lr), None
    raise ValueError(f"unknown optimizer strategy '{strategy}'")


def flat_optimizer_step(
    params: Dict[str, np.ndarray],
    grads: Dict[str, np.ndarray],
    lr: float,
    state: AdamState | None = None,
    strategy: str = "adam",
) -> Tuple[Dict[str, np.ndarray], AdamState | None]:
    """optimizer_step over all tensors joined into one flat vector.

    Both updates are elementwise, so the new parameters are bitwise those
    of optimizer_step tensor by tensor, at a fixed number of numpy calls
    however many tensors there are. The returned parameters are views
    into one vector; the state keeps its moments under the single key
    'flat', so it only continues a run of flat steps.
    """
    flat_grad = np.concatenate([grads[name].ravel() for name in params])
    if not np.isfinite(flat_grad).all():
        _check_finite_grads(grads)  # raises, naming the tensor
    flat = np.concatenate([p.ravel() for p in params.values()])
    new, state = optimizer_step({"flat": flat}, {"flat": flat_grad}, lr, state, strategy)
    out: Dict[str, np.ndarray] = {}
    offset = 0
    for name, p in params.items():
        out[name] = new["flat"][offset : offset + p.size].reshape(p.shape)
        offset += p.size
    return out, state


@dataclass
class GradCheckReport:
    """Outcome of a central-difference gradient check."""

    max_relative_error: float
    per_parameter_errors: List[Tuple[str, float, float, float]] = field(
        default_factory=list
    )
    kink_retries: int = 0

    def worst(self, k: int = 10) -> List[Tuple[str, float, float, float]]:
        return sorted(self.per_parameter_errors, key=lambda e: -e[3])[:k]


def finite_diff_gradcheck(
    loss_fn: Callable[[Dict[str, np.ndarray]], float],
    params: Dict[str, np.ndarray],
    analytic_grads: Dict[str, np.ndarray],
    h: float = 1e-5,
    max_checks_per_tensor: int | None = None,
    seed: int = 0,
    retry_threshold: float = 1e-4,
    max_retries: int = 2,
) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    loss_fn maps the parameter dict to a scalar loss and is re-evaluated
    with each checked element nudged by +/- h. Parameters should be
    float64; relative error is |a - n| / max(|a|, |n|, 1e-8).

    Central differencing is only valid where the loss is smooth on
    [p-h, p+h]. When an element's error exceeds retry_threshold, the step
    is shrunk (8x, up to max_retries) to clear any ReLU/max kink inside
    the interval: a straddled kink converges away under smaller h, a wrong
    analytic gradient does not.

    Args:
        max_checks_per_tensor: if set, check only a seeded random subset of
            each tensor's elements (for large models); None checks all.
    """
    rng = np.random.default_rng(seed)
    errors: List[Tuple[str, float, float, float]] = []
    retries_used = 0

    def central(flat: np.ndarray, i: int, step: float) -> float:
        original = flat[i]
        flat[i] = original + step
        loss_plus = loss_fn(params)
        flat[i] = original - step
        loss_minus = loss_fn(params)
        flat[i] = original
        return (loss_plus - loss_minus) / (2.0 * step)

    def rel_error(analytic: float, numeric: float) -> float:
        return abs(analytic - numeric) / max(abs(analytic), abs(numeric), GRADCHECK_EPS)

    for name in sorted(params):
        p = params[name]
        flat = p.reshape(-1)
        analytic_flat = np.asarray(analytic_grads[name]).reshape(-1)
        if max_checks_per_tensor is not None and flat.size > max_checks_per_tensor:
            indices = np.sort(
                rng.choice(flat.size, size=max_checks_per_tensor, replace=False)
            )
        else:
            indices = np.arange(flat.size)
        for i in indices:
            analytic = float(analytic_flat[i])
            step = h
            numeric = central(flat, i, step)
            rel = rel_error(analytic, numeric)
            for _ in range(max_retries):
                if rel <= retry_threshold:
                    break
                step /= 8.0
                numeric = central(flat, i, step)
                rel = rel_error(analytic, numeric)
                retries_used += 1
            subscript = ",".join(str(d) for d in np.unravel_index(i, p.shape))
            errors.append((f"{name}[{subscript}]", analytic, numeric, rel))
    worst = max((e[3] for e in errors), default=0.0)
    return GradCheckReport(
        max_relative_error=worst,
        per_parameter_errors=errors,
        kink_retries=retries_used,
    )
