"""Handcrafted per-object features plus a from-scratch random forest.

The 13 features summarize one reflection list: sensor velocity
resolution, reflection count, presence of a stationary reflection, mean
azimuth/RCS/range, the summed object extent in object-frame x and y, and
interval/variance/std of both range and radial velocity. Variances use
the population (1/M) convention and std is the square root of the
variance.

Trees split on Gini impurity over a random sqrt-sized feature subset per
node, grow to purity, and are fitted on bootstrap draws; prediction is a
majority vote of per-tree leaf-majority classes with ties broken toward
the lowest class index.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from . import container
from .preprocess import CLASSES, ObjectSample, to_object_frame

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
    obj_xy = np.array(
        [to_object_frame(r, sample.pose) for r in sample.reflections]
    )
    rcs = np.array([r.rcs for r in sample.reflections])
    ranges = np.array([r.range_m for r in sample.reflections])
    vr = np.array([r.vr for r in sample.reflections])
    azimuth = np.array([r.azimuth for r in sample.reflections])

    def spread(values: np.ndarray) -> Tuple[float, float, float]:
        interval = float(values.max() - values.min())
        variance = float(values.var())  # population convention
        return interval, variance, math.sqrt(variance)

    range_interval, range_variance, range_std = spread(ranges)
    vr_interval, vr_variance, vr_std = spread(vr)
    extent_sum = float(
        (obj_xy[:, 0].max() - obj_xy[:, 0].min())
        + (obj_xy[:, 1].max() - obj_xy[:, 1].min())
    )
    return np.array(
        [
            config.velocity_resolution,
            float(len(sample.reflections)),
            1.0 if np.any(np.abs(vr) < config.stationary_threshold) else 0.0,
            float(azimuth.mean()),  # signed mean
            float(rcs.mean()),
            float(ranges.mean()),
            extent_sum,
            range_interval,
            range_variance,
            range_std,
            vr_interval,
            vr_variance,
            vr_std,
        ]
    )


def extract_features(
    samples: Sequence[ObjectSample], config: FeatureConfig = FeatureConfig()
) -> np.ndarray:
    return np.stack([extract_handcrafted(s, config) for s in samples])


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

    def n_nodes(self) -> int:
        return int(self.feature.size)

    def predict_one(self, x: np.ndarray) -> int:
        node = 0
        while self.feature[node] >= 0:
            if x[self.feature[node]] < self.threshold[node]:
                node = self.left[node]
            else:
                node = self.right[node]
        return int(np.argmax(self.counts[node]))  # ties -> lowest class index


@dataclass
class ForestModel:
    trees: List[Tree]
    feature_config: FeatureConfig
    n_classes: int
    seed: int

    def predict(self, x: np.ndarray) -> int:
        votes = np.zeros(self.n_classes, dtype=np.int64)
        for tree in self.trees:
            votes[tree.predict_one(x)] += 1
        return int(np.argmax(votes))

    def predict_batch(self, features: np.ndarray) -> np.ndarray:
        return np.array([self.predict(x) for x in features], dtype=np.int64)


def _gini_split_score(
    values: np.ndarray, labels: np.ndarray, n_classes: int
) -> Tuple[float, float] | None:
    """Best threshold on one feature by weighted Gini; None if unsplittable."""
    order = np.argsort(values, kind="stable")
    v = values[order]
    y = labels[order]
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
    features: np.ndarray,
    labels: np.ndarray,
    n_classes: int,
    rng: np.random.Generator,
    n_candidates: int,
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
        feature_col[node] = f
        threshold_col[node] = threshold
        left_col[node] = left
        right_col[node] = right
        stack.append((right, idx[~goes_left]))
        stack.append((left, idx[goes_left]))

    return Tree(
        feature=np.array(feature_col, dtype=np.int32),
        threshold=np.array(threshold_col, dtype=np.float64),
        left=np.array(left_col, dtype=np.int32),
        right=np.array(right_col, dtype=np.int32),
        counts=np.stack(counts_col).astype(np.int64),
    )


def fit_forest(
    features: np.ndarray,
    labels: np.ndarray,
    n_trees: int = 100,
    seed: int = 0,
    feature_config: FeatureConfig = FeatureConfig(),
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
            "training data has a single class; the forest will always predict it",
            stacklevel=2,
        )
    n_candidates = max(1, int(math.sqrt(features.shape[1])))
    trees: List[Tree] = []
    for t in range(n_trees):
        rng = np.random.default_rng([seed, t])
        bootstrap = rng.integers(0, n, size=n)
        tree = _grow_tree(
            features[bootstrap], labels[bootstrap], n_classes, rng, n_candidates
        )
        tree.n_oob = int(n - np.unique(bootstrap).size)
        trees.append(tree)
    return ForestModel(
        trees=trees, feature_config=feature_config, n_classes=n_classes, seed=seed
    )


def count_nodes(forest: ForestModel) -> int:
    """Total internal plus leaf nodes across all trees, a complexity metric."""
    return sum(tree.n_nodes() for tree in forest.trees)


def serialize(forest: ForestModel) -> bytes:
    config = {
        "velocity_resolution": forest.feature_config.velocity_resolution,
        "stationary_threshold": forest.feature_config.stationary_threshold,
        "n_classes": forest.n_classes,
        "n_trees": len(forest.trees),
        "seed": forest.seed,
        "oob": [tree.n_oob for tree in forest.trees],
    }
    arrays: List[Tuple[str, np.ndarray]] = []
    for t, tree in enumerate(forest.trees):
        arrays.append((f"tree{t}.feature", tree.feature))
        arrays.append((f"tree{t}.threshold", tree.threshold))
        arrays.append((f"tree{t}.left", tree.left))
        arrays.append((f"tree{t}.right", tree.right))
        arrays.append((f"tree{t}.counts", tree.counts))
    return container.write_container(MAGIC, config, None, arrays)


_TREE_ARRAYS = ("feature", "threshold", "left", "right", "counts")  # Tree field order
_CONFIG_KEYS = ("n_classes", "n_trees", "seed", "velocity_resolution", "stationary_threshold")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_config(cfg: dict) -> None:
    """Reject a config deserialize could not read: missing keys, bad counts,
    sensor constants that are not finite numbers, or a bad oob list."""
    missing = [key for key in _CONFIG_KEYS if key not in cfg]
    if missing:
        raise container.ContainerError(f"forest config lacks keys {missing}")
    for key in ("n_classes", "n_trees"):
        if not _is_int(cfg[key]) or cfg[key] < 1:
            raise container.ContainerError(
                f"forest config '{key}' is {cfg[key]!r}, expected a positive integer"
            )
    for key in ("velocity_resolution", "stationary_threshold"):
        value = cfg[key]
        number = _is_int(value) or isinstance(value, float)
        # false for NaN, infinities and JSON integers too large for a float
        if not (number and abs(value) <= sys.float_info.max):
            raise container.ContainerError(
                f"forest config '{key}' is {value!r}, expected a finite number"
            )
    oob = cfg.get("oob", [])
    if "oob" in cfg and not (
        isinstance(oob, list) and len(oob) == cfg["n_trees"] and all(map(_is_int, oob))
    ):
        raise container.ContainerError(
            f"forest config 'oob' is not a list of {cfg['n_trees']} integer counts"
        )


def _check_nodes(trees: List[Tree]) -> None:
    """Reject node arrays that Tree.predict_one could not walk to a leaf.

    One vectorized pass over the nodes of all trees. _grow_tree numbers both
    children after their parent, so requiring that of every internal node
    rules out cycles: each walk ends at a leaf. Every split must also read
    one of the N_HANDCRAFTED features.
    """
    sizes = np.array([tree.n_nodes() for tree in trees])
    if (sizes == 0).any():
        raise container.ContainerError(f"tree {np.argmin(sizes)}: the tree has no nodes")
    tree_of = np.repeat(np.arange(len(trees)), sizes)
    ends = sizes[tree_of]
    node = np.arange(tree_of.size) - (np.cumsum(sizes) - sizes)[tree_of]
    feature, left, right = (
        np.concatenate([getattr(tree, name) for tree in trees])
        for name in ("feature", "left", "right")
    )
    internal = feature >= 0
    later = (left > node) & (right > node) & (left < ends) & (right < ends)
    for bad, problem in (
        (feature >= N_HANDCRAFTED, f"a split reads a feature index >= {N_HANDCRAFTED}"),
        (internal & ~later, "a child pointer does not lead to a later node"),
    ):
        if bad.any():
            raise container.ContainerError(f"tree {tree_of[np.argmax(bad)]}: {problem}")


def deserialize(data: bytes) -> ForestModel:
    parsed = container.read_container(data, MAGIC)
    cfg = parsed.config
    _check_config(cfg)
    n_trees, arrays = cfg["n_trees"], parsed.arrays
    if len(arrays) != len(_TREE_ARRAYS) * n_trees:
        raise container.ContainerError(
            f"file holds {len(arrays)} arrays, expected {len(_TREE_ARRAYS)} "
            f"for each of {n_trees} trees"
        )
    expected = {}
    for t in range(n_trees):
        n = np.size(arrays.get(f"tree{t}.feature", []))
        specs = zip([(n,)] * 4 + [(n, cfg["n_classes"])], "ifiii")
        expected.update({f"tree{t}.{name}": spec for name, spec in zip(_TREE_ARRAYS, specs)})
    container.check_contents(
        parsed, expected, n_stats=0,
        label=lambda name: f"tree {name[4 : name.index('.')]}: array '{name}'",
    )
    oob = cfg.get("oob", [0] * n_trees)
    trees = [
        Tree(*(arrays[f"tree{t}.{name}"] for name in _TREE_ARRAYS), n_oob=oob[t])
        for t in range(n_trees)
    ]
    _check_nodes(trees)
    return ForestModel(
        trees=trees,
        feature_config=FeatureConfig(
            velocity_resolution=cfg["velocity_resolution"],
            stationary_threshold=cfg["stationary_threshold"],
        ),
        n_classes=cfg["n_classes"],
        seed=cfg["seed"],
    )
