"""Handcrafted per-object features plus a from-scratch random forest.

The 13 features summarize one reflection list: sensor velocity
resolution, reflection count, presence of a stationary reflection, mean
azimuth/RCS/range, the summed object extent in object-frame x and y, and
interval/variance/std of both range and radial velocity. Variances use
the population (1/M) convention and std is the square root of the
variance.

Trees split on Gini impurity over a random sqrt-sized feature subset per
node, grow to purity on bootstrap draws, and are stacked into one node
table; prediction walks all trees at once and takes a majority vote of
per-tree leaf-majority classes, ties broken toward the lowest class index.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass
from typing import Annotated, List, Sequence, Tuple

import numpy as np

from . import container, schema
from .preprocess import CLASSES, ObjectSample, reflection_table

MAGIC = b"FRST"

FEATURE_NAMES = (
    "velocity_resolution",
    "num_reflections",
    "has_stationary",
    "mean_azimuth",
    "mean_rcs",
    "mean_range",
    "extent_sum",
    "range_interval",
    "range_variance",
    "range_std",
    "vr_interval",
    "vr_variance",
    "vr_std",
)
N_HANDCRAFTED = len(FEATURE_NAMES)


@dataclass(frozen=True)
class FeatureConfig:
    """Sensor constants entering the handcrafted feature vector."""

    velocity_resolution: float = 0.1
    stationary_threshold: float = 0.1


def extract_handcrafted(
    sample: ObjectSample, config: FeatureConfig = FeatureConfig()
) -> np.ndarray:
    """13-vector of handcrafted features for one sample (see FEATURE_NAMES)."""
    # one contiguous row per column [x_obj, y_obj, rcs, range, vr, azimuth]:
    # each reduction then sums a row in the same pairwise order as a 1-D array
    columns = np.ascontiguousarray(reflection_table(sample).T)
    high = columns.max(axis=1)
    low = columns.min(axis=1)
    mean = columns.mean(axis=1)
    variance = columns.var(axis=1)  # population convention
    interval = high - low
    range_variance = float(variance[3])
    vr_variance = float(variance[4])
    return np.array(
        [
            config.velocity_resolution,
            float(len(sample.reflections)),
            1.0 if np.any(np.abs(columns[4]) < config.stationary_threshold) else 0.0,
            float(mean[5]),  # signed mean azimuth
            float(mean[2]),
            float(mean[3]),
            float(interval[0] + interval[1]),
            float(interval[3]),
            range_variance,
            math.sqrt(range_variance),
            float(interval[4]),
            vr_variance,
            math.sqrt(vr_variance),
        ]
    )


def extract_features(
    samples: Sequence[ObjectSample], config: FeatureConfig = FeatureConfig()
) -> np.ndarray:
    """(N, 13) handcrafted features; (0, 13) for no samples."""
    rows = [extract_handcrafted(s, config) for s in samples]
    return np.stack(rows) if rows else np.empty((0, N_HANDCRAFTED))


@dataclass
class Tree:
    """One decision tree as flat node arrays (node 0 is the root).

    feature[i] == -1 marks a leaf; counts[i] holds the class histogram of
    the training samples that reached node i.
    """

    feature: np.ndarray    # int32
    threshold: np.ndarray  # float64
    left: np.ndarray       # int32
    right: np.ndarray      # int32
    counts: np.ndarray     # (n_nodes, n_classes) int64
    n_oob: int = 0         # out-of-bag sample count of the bootstrap draw

    def predict_one(self, x: np.ndarray) -> int:
        node = 0
        while self.feature[node] >= 0:
            if x[self.feature[node]] < self.threshold[node]:
                node = self.left[node]
            else:
                node = self.right[node]
        return int(np.argmax(self.counts[node]))  # ties -> lowest class index


BLOCK = 256  # samples walked together; bounds the (block x n_trees) walk arrays
_TABLE = ("roots", "feature", "threshold", "left", "right", "counts")  # ForestModel field order


@dataclass
class ForestModel:
    """All trees as one table of Tree's node columns; tree t owns rows roots[t] to roots[t + 1]."""

    roots: np.ndarray      # (n_trees,) int32
    feature: np.ndarray    # (n_nodes,) int32, -1 at leaves
    threshold: np.ndarray  # float64
    left: np.ndarray       # int32, an absolute row
    right: np.ndarray      # int32, an absolute row
    counts: np.ndarray     # (n_nodes, n_classes) int64
    n_oob: Tuple[int, ...]  # out-of-bag sample count of each tree
    feature_config: FeatureConfig
    n_classes: int
    seed: int

    def predict(self, x: np.ndarray) -> int:
        return int(self.predict_batch(np.asarray(x)[None])[0])

    def predict_batch(self, features: np.ndarray) -> np.ndarray:
        """Majority vote of the trees' leaf-majority classes, ties to the lowest class.

        Each block of samples walks every tree at once, one depth level per
        step; a walk that reaches a leaf stays there and drops out.
        """
        features = np.asarray(features, dtype=np.float64)
        n_trees, n_classes = self.roots.size, self.n_classes
        out = np.empty(len(features), dtype=np.int64)
        for start in range(0, len(features), BLOCK):
            x = features[start : start + BLOCK]
            node = np.tile(self.roots, len(x))  # walk i: sample i // n_trees, tree i % n_trees
            walking = np.arange(node.size)
            while walking.size:
                at = node.take(walking)
                feature = self.feature.take(at)
                internal = feature >= 0
                walking, at, feature = walking[internal], at[internal], feature[internal]
                goes_left = x[walking // n_trees, feature] < self.threshold.take(at)  # NaN: right
                node[walking] = np.where(goes_left, self.left.take(at), self.right.take(at))
            votes = self.counts[node].argmax(axis=1) + np.arange(node.size) // n_trees * n_classes
            tally = np.bincount(votes, minlength=len(x) * n_classes).reshape(len(x), n_classes)
            out[start : start + len(x)] = tally.argmax(axis=1)
        return out


def _gini_split_score(
    values: np.ndarray, labels: np.ndarray, n_classes: int
) -> Tuple[float, float] | None:
    """Best threshold on one feature by weighted Gini; None if unsplittable."""
    order = np.argsort(values, kind="stable")
    v, y = values[order], labels[order]
    n = v.size
    onehot = np.zeros((n, n_classes), dtype=np.float64)
    onehot[np.arange(n), y] = 1.0
    left_counts = np.cumsum(onehot, axis=0)       # counts after taking i+1 items
    total = left_counts[-1]
    # candidate cut after position i only where the value actually changes
    cuts = np.nonzero(v[:-1] < v[1:])[0]
    if cuts.size == 0:
        return None
    nl = (cuts + 1).astype(np.float64)
    nr = n - nl
    lc = left_counts[cuts]
    rc = total - lc
    gini_l = 1.0 - ((lc / nl[:, None]) ** 2).sum(axis=1)
    gini_r = 1.0 - ((rc / nr[:, None]) ** 2).sum(axis=1)
    score = (nl * gini_l + nr * gini_r) / n
    best = int(np.argmin(score))
    threshold = 0.5 * (v[cuts[best]] + v[cuts[best] + 1])
    return float(score[best]), threshold


def _grow_tree(
    features: np.ndarray, labels: np.ndarray, n_classes: int,
    rng: np.random.Generator, n_candidates: int,
) -> Tree:
    feature_col: List[int] = []
    threshold_col: List[float] = []
    left_col: List[int] = []
    right_col: List[int] = []
    counts_col: List[np.ndarray] = []

    def new_node(idx: np.ndarray) -> int:
        node = len(feature_col)
        feature_col.append(-1)
        threshold_col.append(0.0)
        left_col.append(-1)
        right_col.append(-1)
        counts_col.append(np.bincount(labels[idx], minlength=n_classes))
        return node

    root = new_node(np.arange(labels.size))
    stack: List[Tuple[int, np.ndarray]] = [(root, np.arange(labels.size))]
    while stack:
        node, idx = stack.pop()
        node_labels = labels[idx]
        if np.all(node_labels == node_labels[0]):
            continue  # pure leaf
        chosen = np.sort(rng.choice(features.shape[1], size=n_candidates, replace=False))
        best: Tuple[float, int, float] | None = None
        for f in chosen:
            scored = _gini_split_score(features[idx, f], node_labels, n_classes)
            if scored is None:
                continue
            score, threshold = scored
            if best is None or score < best[0]:
                best = (score, int(f), threshold)
        if best is None:
            continue  # candidate features constant; impure leaf by majority
        _, f, threshold = best
        goes_left = features[idx, f] < threshold
        left = new_node(idx[goes_left])
        right = new_node(idx[~goes_left])
        feature_col[node], threshold_col[node] = f, threshold
        left_col[node], right_col[node] = left, right
        stack.append((right, idx[~goes_left]))
        stack.append((left, idx[goes_left]))

    return Tree(
        np.array(feature_col, dtype=np.int32), np.array(threshold_col, dtype=np.float64),
        np.array(left_col, dtype=np.int32), np.array(right_col, dtype=np.int32),
        np.stack(counts_col).astype(np.int64),
    )


def fit_forest(
    features: np.ndarray, labels: np.ndarray, n_trees: int = 100, seed: int = 0,
    n_classes: int = len(CLASSES),
) -> ForestModel:
    """Bootstrap-aggregated Gini trees grown to purity; deterministic per seed."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n = labels.size
    if n == 0:
        raise ValueError("cannot fit a forest on an empty dataset")
    if np.unique(labels).size < 2:
        warnings.warn(
            "training data has a single class; the forest will always predict it", stacklevel=2
        )
    n_candidates = max(1, int(math.sqrt(features.shape[1])))
    trees: List[Tree] = []
    for t in range(n_trees):
        rng = np.random.default_rng([seed, t])
        bootstrap = rng.integers(0, n, size=n)
        tree = _grow_tree(features[bootstrap], labels[bootstrap], n_classes, rng, n_candidates)
        tree.n_oob = int(n - np.unique(bootstrap).size)
        trees.append(tree)
    return stack_trees(trees, n_classes, seed)


def stack_trees(trees: Sequence[Tree], n_classes: int, seed: int) -> ForestModel:
    """The forest of these trees, their node arrays stacked into one table."""
    sizes = [tree.feature.size for tree in trees]
    roots = np.cumsum([0] + sizes[:-1]).astype(np.int32)
    feature, threshold, left, right, counts = (
        np.concatenate([getattr(tree, name) for tree in trees]) for name in _TABLE[1:]
    )
    shift = np.where(feature >= 0, np.repeat(roots, sizes), 0)  # a leaf keeps -1
    return ForestModel(
        roots, feature, threshold, left + shift, right + shift, counts,
        tuple(tree.n_oob for tree in trees), FeatureConfig(), n_classes, seed,
    )


def count_nodes(forest: ForestModel) -> int:
    """Total internal plus leaf nodes across all trees, a complexity metric."""
    return int(forest.feature.size)


@dataclass(frozen=True)
class FileConfig:
    """The config block of a forest model file."""

    velocity_resolution: float
    stationary_threshold: float
    n_classes: Annotated[int, schema.Range(1)]
    n_trees: Annotated[int, schema.Range(1)]
    seed: Annotated[int, schema.Range(0)]
    # out-of-bag sample count of each tree; empty reads as zeros
    oob: Annotated[Tuple[int, ...], schema.Range(0)] = ()

    def __post_init__(self):
        schema.check(self)
        if len(self.oob) not in (0, self.n_trees):
            raise schema.ConfigError(f"oob holds {len(self.oob)} counts for {self.n_trees} trees")


def serialize(forest: ForestModel) -> bytes:
    config = FileConfig(
        forest.feature_config.velocity_resolution, forest.feature_config.stationary_threshold,
        forest.n_classes, forest.roots.size, forest.seed, forest.n_oob,
    )
    arrays = [(name, getattr(forest, name)) for name in _TABLE]
    return container.write_container(MAGIC, asdict(config), None, arrays)


def _check_nodes(forest: ForestModel) -> None:
    """Reject a node table that predict_batch could not walk to a leaf.

    Roots must start at row 0 and increase strictly, so every tree has
    nodes. _grow_tree numbers both children after their parent, so
    requiring that of every internal node, inside its own tree, rules out
    cycles: each walk ends at a leaf. A node is a leaf (-1) or splits on
    one of the N_HANDCRAFTED features.
    """
    roots, feature, n = forest.roots, forest.feature, forest.feature.size
    if roots[0] != 0 or (np.diff(roots) <= 0).any() or roots[-1] >= n:
        raise container.ContainerError(f"tree roots must start at 0 and increase below {n}")
    node = np.arange(n)
    tree_of = np.searchsorted(roots, node, side="right") - 1
    children = np.stack([forest.left, forest.right])
    later = ((children > node) & (children < np.append(roots[1:], n)[tree_of])).all(axis=0)
    for bad, problem in (
        ((feature < -1) | (feature >= N_HANDCRAFTED),
         f"a feature index is outside [-1, {N_HANDCRAFTED})"),
        ((feature >= 0) & ~later, "a child pointer does not lead to a later node of its tree"),
    ):
        if bad.any():
            raise container.ContainerError(f"tree {tree_of[np.argmax(bad)]}: {problem}")


def deserialize(data: bytes) -> ForestModel:
    """The forest of a model file; its arrays are read-only views of data."""
    parsed = container.read_container(data, MAGIC)
    cfg = schema.build(FileConfig, parsed.config, "forest config", error=container.ContainerError)
    n = np.size(parsed.arrays.get("feature", []))
    specs = [(cfg.n_trees,), (n,), (n,), (n,), (n,), (n, cfg.n_classes)]
    container.check_contents(parsed, dict(zip(_TABLE, zip(specs, "iifiii"))), n_stats=0)
    forest = ForestModel(
        *(parsed.arrays[name] for name in _TABLE), cfg.oob or (0,) * cfg.n_trees,
        FeatureConfig(cfg.velocity_resolution, cfg.stationary_threshold), cfg.n_classes, cfg.seed,
    )
    _check_nodes(forest)
    return forest
