"""Handcrafted per-object features plus a from-scratch random forest.

The 13 features summarize one reflection list: sensor velocity
resolution, reflection count, presence of a stationary reflection, mean
azimuth/RCS/range, the summed object extent in object-frame x and y, and
interval/variance/std of both range and radial velocity. Variances use
the population (1/M) convention and std is the square root of the
variance. extract_features computes them from the set's object_frame_table
in one numpy pass per group of objects with the same reflection count, bit
for bit as extract_handcrafted does from each object's reflection_table.

Trees split on Gini impurity over a random sqrt-sized feature subset per
node and grow to purity on bootstrap draws. fit_forest grows them in
blocks, the trees of a block in lockstep: each step takes the next
depth-first node of every tree and scores all their candidate features in
one numpy pass over columns sorted once per fit, and the block writes its
trees' rows of the forest's one node table. The trees come out bit for
bit as a grower of one tree and one node at a time makes them
(tests/oracles.py keeps that grower, and stack_trees for per-tree arrays).
predict_batch walks blocks of samples through all trees at once, one
depth level per step; predict walks one sample through a table of each
node's next row. Both take a majority vote of per-tree leaf-majority
classes, ties broken toward the lowest class index.

Every forest votes over the N_CLASSES classes of preprocess.CLASSES: its
node table holds N_CLASSES counts per node, and a model file that declares
another n_classes is a ContainerError at load.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass
from typing import Annotated, NamedTuple, Sequence, Tuple

import numpy as np

from . import container, schema
from .preprocess import CLASSES, ObjectSample, class_indices, object_frame_table, reflection_table

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
N_CLASSES = len(CLASSES)


@dataclass(frozen=True)
class FeatureConfig:
    """Sensor constants entering the handcrafted feature vector."""

    velocity_resolution: float = 0.1
    stationary_threshold: float = 0.1


def _group_features(tables: np.ndarray, config: FeatureConfig) -> np.ndarray:
    """(G, 13) features of G objects with M reflections each, from their (G, M, 6) tables.

    Each column [x_obj, y_obj, rcs, range, vr, azimuth] of each object
    becomes one contiguous length-M row, so every sum adds a row in the
    same pairwise order as a 1-D array of it. Mean and variance are
    np.mean's and np.var's (population convention) steps: a sum over M,
    then the squared deviations summed over M.
    """
    columns = np.ascontiguousarray(tables.transpose(0, 2, 1))
    m = columns.shape[2]
    interval = columns.max(axis=2)
    interval -= columns.min(axis=2)
    mean = columns.sum(axis=2, keepdims=True)
    mean /= m
    deviation = columns[:, 3:5] - mean[:, 3:5]  # range and vr
    np.square(deviation, out=deviation)
    variance = deviation.sum(axis=2)
    variance /= m
    out = np.empty((len(columns), N_HANDCRAFTED))
    out[:, :2] = (config.velocity_resolution, m)
    out[:, 2] = np.logical_or.reduce(np.abs(columns[:, 4]) < config.stationary_threshold, axis=1)
    out[:, 3] = mean[:, 5, 0]  # signed mean azimuth
    out[:, 4:6] = mean[:, 2:4, 0]  # rcs, range
    out[:, 6] = interval[:, 0] + interval[:, 1]
    spread = out[:, 7:].reshape(-1, 2, 3)  # [interval, variance, std] of range, then of vr
    spread[:, :, 0] = interval[:, 3:5]
    spread[:, :, 1] = variance
    np.sqrt(variance, out=spread[:, :, 2])
    return out


def extract_handcrafted(
    sample: ObjectSample, config: FeatureConfig = FeatureConfig()
) -> np.ndarray:
    """13-vector of handcrafted features for one sample (see FEATURE_NAMES)."""
    return _group_features(reflection_table(sample)[None], config)[0]


def extract_features(
    samples: Sequence[ObjectSample], config: FeatureConfig = FeatureConfig()
) -> np.ndarray:
    """(N, 13) handcrafted features, one _group_features pass per reflection count.

    Rows come back in input order; (0, 13) for no samples.
    """
    table, lengths = object_frame_table(samples)
    starts = np.cumsum(lengths) - lengths
    order = np.argsort(lengths, kind="stable")
    out = np.empty((len(lengths), N_HANDCRAFTED))
    for group in np.split(order, np.flatnonzero(np.diff(lengths[order])) + 1) if order.size else ():
        rows = starts[group, None] + np.arange(lengths[group[0]])
        out[group] = _group_features(table[rows], config)
    return out


@dataclass
class Tree:
    """One decision tree as flat node arrays (node 0 is the root); no package code builds one.

    predict_one is the per-tree reference walk tests compare ForestModel's
    walks against, and a span perfbench traces. feature[i] == -1 marks a
    leaf; counts[i] holds the class histogram of the samples that reached node i.
    """

    feature: np.ndarray    # int32
    threshold: np.ndarray  # float64
    left: np.ndarray       # int32
    right: np.ndarray      # int32
    counts: np.ndarray     # (n_nodes, classes)

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
    """All trees as one node table; tree t owns rows roots[t] to roots[t + 1]."""

    roots: np.ndarray      # (n_trees,) int32
    feature: np.ndarray    # (n_nodes,) int32, -1 at leaves
    threshold: np.ndarray  # float64
    left: np.ndarray       # int32, an absolute row
    right: np.ndarray      # int32, an absolute row
    counts: np.ndarray     # (n_nodes, N_CLASSES) int32 (int64 in older files)
    n_oob: Tuple[int, ...]  # out-of-bag sample count of each tree
    feature_config: FeatureConfig
    seed: int
    depth: int             # steps from a root to the deepest leaf, from a checked table

    def _table(self, features) -> np.ndarray:
        """features as a float64 (samples, columns) table with every column the forest splits on."""
        features = np.asarray(features, dtype=np.float64)
        needed = int(self.feature.max(initial=-1)) + 1  # the forest splits on column needed - 1
        if features.ndim != 2 or features.shape[1] < needed:
            raise ValueError(
                f"features have shape {features.shape}; this forest needs a "
                f"(samples, columns) table of at least {needed} columns"
            )
        return features

    def predict(self, x: np.ndarray) -> int:
        """predict_batch of the one row x, walked through a step table of its own.

        step holds the row each node sends x to, -1 at a leaf. All trees
        advance together depth times; a child is always a later row, so
        the maximum with a leaf's -1 keeps a finished walk in place.
        """
        x = self._table(np.asarray(x)[None])[0]
        node = self.roots
        if self.depth:  # an all-leaf forest may be asked about a row of no columns
            step = np.where(x.take(self.feature) < self.threshold, self.left, self.right)
            for _ in range(self.depth):
                node = np.maximum(node, step.take(node))
        votes = self.counts.take(node, axis=0).argmax(axis=1)
        return int(np.bincount(votes, minlength=N_CLASSES).argmax())

    def predict_batch(self, features: np.ndarray) -> np.ndarray:
        """Majority vote of the trees' leaf-majority classes, ties to the lowest class.

        Each block of samples walks every tree at once, one depth level per
        step; a walk that reaches a leaf stays there and drops out.
        """
        features = self._table(features)
        n_trees = self.roots.size
        leaf_class = self.counts.argmax(axis=1)  # ties -> lowest class index
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
            votes = leaf_class.take(node) + np.arange(node.size) // n_trees * N_CLASSES
            tally = np.bincount(votes, minlength=len(x) * N_CLASSES).reshape(len(x), N_CLASSES)
            out[start : start + len(x)] = tally.argmax(axis=1)
        return out


FIT_ELEMENTS = 1 << 15  # (tree, row, feature) elements grown in lockstep; bounds a block's trees


def _check_fit_inputs(features, labels, n_trees: int) -> Tuple[np.ndarray, np.ndarray]:
    """The float64 table and int64 labels fit_forest grows on; ValueError naming what is wrong."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] == 0:
        raise ValueError(f"features must be a (rows, columns) table, got shape {features.shape}")
    labels = class_indices(labels, N_CLASSES, "labels")
    if labels.shape != (len(features),):
        raise ValueError(f"labels have shape {labels.shape} for {len(features)} feature rows")
    if len(features) == 0:
        raise ValueError("cannot fit a forest on an empty dataset")
    if n_trees < 1:
        raise ValueError(f"n_trees must be at least 1, got {n_trees}")
    return features, labels


class _Columns(NamedTuple):
    """Every feature column sorted by (value, row), NaN last, as flat (features, rows) tables.

    Entry f * n + r of row and value is sorted place r of feature f; entry
    f * n + i of place is the sorted place of row i in feature f.
    """

    row: np.ndarray    # int32
    value: np.ndarray  # float64
    place: np.ndarray  # int32, into row and value


def _sort_columns(features: np.ndarray) -> _Columns:
    order = np.argsort(features, axis=0, kind="stable").T
    place = np.empty(order.shape, dtype=np.int32)
    places = np.arange(order.size, dtype=np.int32).reshape(order.shape)
    np.put_along_axis(place, order, places, axis=1)
    value = np.take_along_axis(features.T, order, axis=1)
    return _Columns(order.astype(np.int32).ravel(), value.ravel(), place.ravel())


def _split_nodes(
    columns: _Columns, labels: np.ndarray, members: np.ndarray, start: np.ndarray,
    size: np.ndarray, chosen: np.ndarray,
) -> Tuple[np.ndarray, ...]:
    """The best Gini split of every node, each scored on its own candidate features.

    Node i owns members[start[i] : start[i] + size[i]] and draws the sorted
    features chosen[i]. Each (node, feature) segment is put in sorted-column
    order and scored where its value changes, with the per-node arithmetic:
    class terms (count / size) ** 2 summed in class order, then
    (nl * gini_l + nr * gini_r) / n. A node takes its first lowest score, in
    candidate then cut order, and a threshold strictly above the value
    before the cut and at most the value after it, so `x < threshold` sends
    exactly the rows before the cut left. Returns, for the nodes that split,
    their index, feature, threshold, left size and left and right class
    counts, and rewrites each such node's members sorted on its feature.
    """
    n, k = labels.size, chosen.shape[1]
    seg_size = np.repeat(size, k)  # segment j: node j // k on feature chosen.flat[j]
    seg_end = np.cumsum(seg_size)
    seg_start = seg_end - seg_size
    rows = np.concatenate([
        members[s : s + z] for s, z in zip(start.tolist(), size.tolist()) for _ in range(k)
    ])
    offset = np.repeat(np.arange(seg_size.size, dtype=np.int64) * columns.place.size, seg_size)
    key = offset + columns.place.take(rows + np.repeat(chosen.ravel() * n, seg_size))
    key.sort()  # by (segment, sorted place)
    key -= offset
    del offset
    rows, values = columns.row.take(key), columns.value.take(key)
    del key
    change = values[:-1] < values[1:]
    change[seg_end[:-1] - 1] = False  # no cut between segments
    cut = np.flatnonzero(change)  # a cut after element cut[i]
    del change
    cut_seg = np.searchsorted(seg_end, cut, side="right")
    at_start = seg_start.take(cut_seg)
    before = np.zeros((N_CLASSES, rows.size + 1), dtype=np.int32)  # class counts before each row
    np.equal(labels.take(rows), np.arange(N_CLASSES)[:, None], out=before[:, 1:], casting="unsafe")
    np.cumsum(before, axis=1, out=before)
    total = before.take(seg_end, axis=1) - before.take(seg_start, axis=1)
    left = before.take(cut + 1, axis=1) - before.take(at_start, axis=1)
    del before
    nl = (cut + 1 - at_start).astype(np.float64)
    n_all = seg_size.take(cut_seg).astype(np.float64)
    nr = n_all - nl
    del at_start
    gini_l = 1.0 - ((left / nl) ** 2).sum(axis=0)  # (classes, cuts): added class by class
    right = total.take(cut_seg, axis=1) - left
    gini_r = 1.0 - ((right / nr) ** 2).sum(axis=0)
    del right
    score = (nl * gini_l + nr * gini_r) / n_all
    del gini_l, gini_r, nr, n_all

    first = np.searchsorted(cut, seg_start[::k])  # each node's first cut
    end = np.append(first[1:], cut.size)
    split = np.flatnonzero(first < end)  # the nodes with a cut
    first, end = first[split], end[split]
    lowest = np.minimum.reduceat(score, first) if split.size else score[:0]
    at_min = np.flatnonzero(score == np.repeat(lowest, end - first))
    best = at_min[np.searchsorted(at_min, first)]
    best_seg, best_cut = cut_seg[best], cut[best]
    below, above = values[best_cut], values[best_cut + 1]
    with np.errstate(over="ignore", invalid="ignore"):  # huge or infinite values: above
        mid = 0.5 * (below + above)
    threshold = np.where((below < mid) & (mid <= above), mid, above)
    left_counts = left[:, best].T.astype(np.int64)
    right_counts = total[:, best_seg].T.astype(np.int64) - left_counts
    for s, z, j in zip(start[split].tolist(), size[split].tolist(), seg_start[best_seg].tolist()):
        members[s : s + z] = rows[j : j + z]
    n_left = best_cut + 1 - seg_start[best_seg]
    return split, chosen.ravel()[best_seg], threshold, n_left, left_counts, right_counts


def _grow_block(
    columns: _Columns, labels: np.ndarray, tree_ids: range, seed: int, n_candidates: int,
    first_row: int,
) -> Tuple[np.ndarray, ...]:
    """Trees tree_ids grown in lockstep: each step splits the next depth-first node of every tree.

    Tree t draws its bootstrap and, at each impure node, its candidate
    features from default_rng([seed, t]), in the order growing it alone
    would. members holds the bootstrap rows of tree b at [b * n, (b + 1) * n);
    a node owns a contiguous range of it, its left child the head and its
    right child the tail. A node's children are numbered when it splits.
    Returns the block's rows of the forest table, _TABLE's columns with child
    rows counted from the forest's first row, and each tree's out-of-bag count.
    """
    n, n_trees = labels.size, len(tree_ids)
    n_features = columns.row.size // n
    rngs = [np.random.default_rng([seed, t]) for t in tree_ids]
    members = np.empty(n_trees * n, dtype=np.int32)
    n_oob, root_counts, stacks = [], [], []
    for b, rng in enumerate(rngs):
        bootstrap = rng.integers(0, n, size=n)
        members[b * n : (b + 1) * n] = bootstrap
        n_oob.append(int(n - np.count_nonzero(np.bincount(bootstrap, minlength=n))))
        root_counts.append(np.bincount(labels[bootstrap], minlength=N_CLASSES))
        stacks.append([(0, b * n, n)] if np.count_nonzero(root_counts[-1]) > 1 else [])
    n_nodes = [1] * n_trees
    splits = []  # per step: (tree, node, feature, threshold, left child)
    children = []  # per step: (tree, node, counts)
    while popped := [(b, *stack.pop()) for b, stack in enumerate(stacks) if stack]:
        chosen = np.sort([
            rngs[b].choice(n_features, size=n_candidates, replace=False) for b, *_ in popped
        ], axis=1)
        tree, node, start, size = (np.array(column) for column in zip(*popped))
        split, feature, threshold, n_left, left_counts, right_counts = _split_nodes(
            columns, labels, members, start, size, chosen
        )
        left = []
        for i, taken, left_impure, right_impure in zip(
            split.tolist(), n_left.tolist(),
            (np.count_nonzero(left_counts, axis=1) > 1).tolist(),
            (np.count_nonzero(right_counts, axis=1) > 1).tolist(),
        ):
            b, _, at, count = popped[i]
            left.append(n_nodes[b])
            n_nodes[b] += 2
            if right_impure:
                stacks[b].append((left[-1] + 1, at + taken, count - taken))
            if left_impure:
                stacks[b].append((left[-1], at, taken))
        left = np.array(left, dtype=np.int64)
        splits.append((tree[split], node[split], feature, threshold, left))
        children.append((np.repeat(tree[split], 2), np.stack([left, left + 1], axis=1).ravel(),
                         np.stack([left_counts, right_counts], axis=1).reshape(-1, N_CLASSES)))
    offset = np.cumsum(n_nodes) - n_nodes  # tree b's nodes at [offset[b], offset[b] + n_nodes[b])
    feature = np.full(offset[-1] + n_nodes[-1], -1, dtype=np.int32)
    threshold = np.zeros(feature.size)
    left, right = np.full((2, feature.size), -1, dtype=np.int32)
    counts = np.zeros((feature.size, N_CLASSES), dtype=np.int32)  # none exceeds the rows
    counts[offset] = root_counts
    for b, at, feature_at, threshold_at, left_at in splits:
        row, child = offset[b] + at, first_row + offset[b] + left_at  # child: a forest row
        feature[row], threshold[row] = feature_at, threshold_at
        left[row], right[row] = child, child + 1
    for b, at, counts_at in children:
        counts[offset[b] + at] = counts_at
    roots = (first_row + offset).astype(np.int32)
    return roots, feature, threshold, left, right, counts, np.array(n_oob)


def fit_forest(
    features: np.ndarray, labels: np.ndarray, n_trees: int = 100, seed: int = 0
) -> ForestModel:
    """Bootstrap-aggregated Gini trees grown to purity; deterministic per seed.

    Trees grow in blocks of FIT_ELEMENTS // features.size trees, at least
    one, the trees of a block in lockstep. Each block writes its rows of
    the forest's node table; the block tables are joined once at the end.
    """
    features, labels = _check_fit_inputs(features, labels, n_trees)
    if np.count_nonzero(np.bincount(labels, minlength=N_CLASSES)) < 2:
        warnings.warn(
            "training data has a single class; the forest will always predict it", stacklevel=2
        )
    n_candidates = max(1, int(math.sqrt(features.shape[1])))
    columns = _sort_columns(features)
    per_block = max(1, FIT_ELEMENTS // features.size)
    blocks, n_rows = [], 0
    for first in range(0, n_trees, per_block):
        block = range(first, min(first + per_block, n_trees))
        blocks.append(_grow_block(columns, labels, block, seed, n_candidates, n_rows))
        n_rows += blocks[-1][1].size
    roots, feature, threshold, left, right, counts, n_oob = map(np.concatenate, zip(*blocks))
    return ForestModel(roots, feature, threshold, left, right, counts, tuple(n_oob.tolist()),
                       FeatureConfig(), seed, _depth(roots, feature, left, right))


def _depth(roots, feature, left, right) -> int:
    """Steps from a root to the deepest leaf of a table whose children are later rows."""
    level, depth = roots, 0
    while (level := level[feature.take(level) >= 0]).size:
        level = np.concatenate([left.take(level), right.take(level)])
        depth += 1
    return depth


def count_nodes(forest: ForestModel) -> int:
    """Total internal plus leaf nodes across all trees, a complexity metric."""
    return int(forest.feature.size)


@dataclass(frozen=True)
class FileConfig:
    """The config block of a forest model file; n_classes is always N_CLASSES."""

    velocity_resolution: float
    stationary_threshold: float
    n_classes: Annotated[int, schema.Range(N_CLASSES, N_CLASSES)]
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
        N_CLASSES, forest.roots.size, forest.seed, forest.n_oob,
    )
    arrays = [(name, getattr(forest, name)) for name in _TABLE]
    return container.write_container(MAGIC, asdict(config), None, arrays)


def _check_nodes(roots, feature, left, right) -> None:
    """Reject a node table that predict or predict_batch could not walk to a leaf.

    Roots must start at row 0 and increase strictly, so every tree has
    nodes. fit_forest numbers both children after their parent, so
    requiring that of every internal node, inside its own tree, rules out
    cycles: each walk ends at a leaf. A node is a leaf (-1) or splits on
    one of the N_HANDCRAFTED features, and a leaf's child pointers are -1,
    as predict's step table reads them.
    """
    n = feature.size
    if roots[0] != 0 or (np.diff(roots) <= 0).any() or roots[-1] >= n:
        raise container.ContainerError(f"tree roots must start at 0 and increase below {n}")
    node = np.arange(n)
    tree_of = np.searchsorted(roots, node, side="right") - 1
    children = np.stack([left, right])
    later = ((children > node) & (children < np.append(roots[1:], n)[tree_of])).all(axis=0)
    for bad, problem in (
        ((feature < -1) | (feature >= N_HANDCRAFTED),
         f"a feature index is outside [-1, {N_HANDCRAFTED})"),
        ((feature >= 0) & ~later, "a child pointer does not lead to a later node of its tree"),
        ((feature == -1) & (children != -1).any(axis=0),
         "a leaf has a child pointer other than -1"),
    ):
        if bad.any():
            raise container.ContainerError(f"tree {tree_of[np.argmax(bad)]}: {problem}")


def deserialize(data: bytes) -> ForestModel:
    """The forest of a model file; its arrays are read-only views of data."""
    parsed = container.read_container(data, MAGIC)
    cfg = schema.build(FileConfig, parsed.config, "forest config", error=container.ContainerError)
    n = np.size(parsed.arrays.get("feature", []))
    specs = [(cfg.n_trees,), (n,), (n,), (n,), (n,), (n, N_CLASSES)]
    container.check_contents(parsed, dict(zip(_TABLE, zip(specs, "iifiii"))), n_stats=0)
    roots, feature, threshold, left, right, counts = (parsed.arrays[name] for name in _TABLE)
    _check_nodes(roots, feature, left, right)
    return ForestModel(
        roots, feature, threshold, left, right, counts, cfg.oob or (0,) * cfg.n_trees,
        FeatureConfig(cfg.velocity_resolution, cfg.stationary_threshold), cfg.seed,
        _depth(roots, feature, left, right),
    )
