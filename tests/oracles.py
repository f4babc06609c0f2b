"""Reference computations that tests compare the package against.

The per-reflection object frame, the rows an input keeps when a sample
has more reflections than its pad length, the track generator drawing one
reflection at a time, the forest grown one tree and one node at a time,
the stacking of per-tree node arrays into a forest, the reflection
network with each ReLU before its max pool, a count of the pool
backward's first-winner searches, and the grid CNN with its ReLU before
the pool and every weight gradient summed chunk by chunk.
"""

import contextlib
import math

import numpy as np

from deepreflecs import datagen, forest, gridcnn, nn
from deepreflecs.preprocess import CLASSES, ObjectPose, ObjectSample, Reflection


def to_object_frame(refl, pose):
    """One reflection's world position in the object's coordinate system.

    Subtract the object position, then rotate by -heading so the object's
    heading axis becomes +x. `preprocess.reflection_table` must give these
    floats bit for bit.
    """
    dx = refl.x - pose.x
    dy = refl.y - pose.y
    c = math.cos(pose.heading)
    s = math.sin(pose.heading)
    return c * dx + s * dy, -s * dx + c * dy


def kept_rows(rows, pad_length):
    """The feature rows `preprocess.prepare_input` keeps: all of them, or the
    pad_length of highest RCS (column 2), ties to the earlier row, in their
    original order."""
    if len(rows) <= pad_length:
        return rows
    ranked = sorted(range(len(rows)), key=lambda i: (-rows[i, 2], i))
    return rows[sorted(ranked[:pad_length])]


def sample_of_rows(rows, label="car"):
    """A sample at the origin, heading along +x, whose (M, 5) feature rows
    [x, y, rcs, range, vr] are rows (azimuth 0)."""
    reflections = [Reflection(*map(float, row), 0.0) for row in np.asarray(rows)]
    return ObjectSample("t0", label, ObjectPose(0.0, 0.0, 0.0), reflections)


def object_points(rng, profile, n, length, width):
    """n object-frame reflection positions, the rectangle perimeter one draw at a time."""
    half_l, half_w = length / 2.0, width / 2.0
    pts = np.empty((n, 2))
    if profile.shape == "rectangle":
        pts[0] = (-half_l, rng.uniform(-half_w, half_w))
        pts[1] = (half_l, rng.uniform(-half_w, half_w))
        for i in range(2, n):
            t = rng.uniform(0.0, 2.0 * (length + width))
            if t < length:
                pts[i] = (t - half_l, -half_w)
            elif t < length + width:
                pts[i] = (half_l, t - length - half_w)
            elif t < 2 * length + width:
                pts[i] = (t - 2 * length - width + half_l, half_w)
            else:
                pts[i] = (-half_l, t - 2 * length - 2 * width + half_w)
    elif profile.shape == "ellipse":
        angle = rng.uniform(0.0, 2.0 * math.pi, size=n)
        radius = np.sqrt(rng.uniform(0.0, 1.0, size=n))
        pts[:, 0] = half_l * radius * np.cos(angle)
        pts[:, 1] = half_w * radius * np.sin(angle)
    else:
        pts[:, 0] = rng.uniform(-half_l, half_l, size=n)
        pts[:, 1] = rng.uniform(-half_w, half_w, size=n)
    return pts


def reflection_count(rng, profile, r):
    """One sample's reflection count, clipped to reflections_range with np.clip."""
    lo, hi = profile.reflections_range
    closeness = (datagen.START_RANGE - r) / (datagen.START_RANGE - datagen.STOP_RANGE)
    expected = lo + math.sqrt(max(closeness, 0.0)) * (hi - lo) * rng.uniform(0.7, 1.0)
    return int(np.clip(round(expected), lo, hi))


def generate_track(class_label, track_id, spec):
    """The samples datagen.generate_track must give bit for bit, one reflection at a time,
    from the datagen class profiles and approach ranges."""
    profile = datagen.PROFILES[class_label]
    rng = datagen._track_rng(spec.seed, track_id)

    heading = rng.uniform(-math.pi, math.pi)
    bearing = rng.uniform(-0.25, 0.25)
    length = rng.uniform(*profile.length_range)
    width = rng.uniform(*profile.width_range)
    vr_direction = 1.0 if rng.uniform() < 0.5 else -1.0
    vr_sigma = rng.uniform(*profile.vr_sigma_range) if profile.mover else 0.0
    vr_gain = 2.0 * profile.vr_corr * vr_sigma
    vr_noise_sigma = vr_sigma * math.sqrt(1.0 - profile.vr_corr**2)

    n_samples = int(rng.integers(spec.samples_per_track[0], spec.samples_per_track[1] + 1))
    start = rng.uniform(0.85 * datagen.START_RANGE, datagen.START_RANGE)
    stop = rng.uniform(datagen.STOP_RANGE, datagen.STOP_RANGE + 4.0)
    ranges = np.linspace(start, stop, n_samples)

    cos_h, sin_h = math.cos(heading), math.sin(heading)
    samples = []
    for r in ranges:
        pose = ObjectPose(x=r * math.cos(bearing), y=r * math.sin(bearing), heading=heading)
        n = reflection_count(rng, profile, r)
        pts = object_points(rng, profile, n, length, width)
        pts += rng.normal(0.0, datagen.POSITION_NOISE, size=pts.shape)

        reflections = []
        for x_obj, y_obj in pts:
            xw = pose.x + cos_h * x_obj - sin_h * y_obj
            yw = pose.y + sin_h * x_obj + cos_h * y_obj
            rcs = rng.normal(profile.rcs_mean, profile.rcs_spread)
            if profile.mover:
                if profile.vr_pattern == "wheels":
                    vr = vr_direction * vr_gain * (x_obj / (length / 2.0))
                    vr += rng.normal(0.0, vr_noise_sigma)
                else:  # limbs
                    sign = 1.0 if rng.uniform() < 0.5 else -1.0
                    vr = sign * vr_sigma * rng.uniform(*profile.vr_limb_range)
            elif profile.vr_noise > 0.0:
                vr = rng.normal(0.0, profile.vr_noise)
            else:
                vr = rng.uniform(-0.15, 0.15)
            reflections.append(Reflection(
                x=float(xw), y=float(yw), rcs=float(rcs), range_m=float(math.hypot(xw, yw)),
                vr=float(vr), azimuth=float(math.atan2(yw, xw)),
            ))
        samples.append(ObjectSample(track_id, class_label, pose, reflections))
    return samples


def generate_dataset(spec):
    """datagen.generate_dataset over the reference generate_track."""
    samples = []
    for class_label in CLASSES:
        for i in range(spec.tracks_per_class.get(class_label, 0)):
            samples.extend(generate_track(class_label, f"{class_label}-{i:04d}", spec))
    return samples


def gini_split_score(values, labels, n_classes):
    """Best (score, threshold) of one feature by weighted Gini; None if unsplittable.

    The threshold is the midpoint of the two values around the cut, or the
    upper value where the midpoint does not lie strictly above the lower
    one and at most at the upper one (adjacent doubles, overflow).
    """
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
    below, above = v[cuts[best]], v[cuts[best] + 1]
    with np.errstate(over="ignore", invalid="ignore"):
        threshold = 0.5 * (below + above)
    if not below < threshold <= above:
        threshold = above
    return float(score[best]), threshold


def grow_tree(features, labels, n_classes, rng, n_candidates):
    """One tree grown node by node, depth first, left child before right."""
    feature_col, threshold_col, left_col, right_col, counts_col = [], [], [], [], []

    def new_node(idx):
        node = len(feature_col)
        feature_col.append(-1)
        threshold_col.append(0.0)
        left_col.append(-1)
        right_col.append(-1)
        counts_col.append(np.bincount(labels[idx], minlength=n_classes))
        return node

    root = new_node(np.arange(labels.size))
    stack = [(root, np.arange(labels.size))]
    while stack:
        node, idx = stack.pop()
        node_labels = labels[idx]
        if np.all(node_labels == node_labels[0]):
            continue  # pure leaf
        chosen = np.sort(rng.choice(features.shape[1], size=n_candidates, replace=False))
        best = None
        for f in chosen:
            scored = gini_split_score(features[idx, f], node_labels, n_classes)
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

    return forest.Tree(
        np.array(feature_col, dtype=np.int32), np.array(threshold_col, dtype=np.float64),
        np.array(left_col, dtype=np.int32), np.array(right_col, dtype=np.int32),
        np.stack(counts_col).astype(np.int64),
    )


def fit_forest(features, labels, n_trees=100, seed=0):
    """The forest forest.fit_forest must give bit for bit, one tree and one node at a time."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n = labels.size
    n_candidates = max(1, int(math.sqrt(features.shape[1])))
    trees, n_oob = [], []
    for t in range(n_trees):
        rng = np.random.default_rng([seed, t])
        bootstrap = rng.integers(0, n, size=n)
        tree = grow_tree(
            features[bootstrap], labels[bootstrap], forest.N_CLASSES, rng, n_candidates
        )
        trees.append(tree)
        n_oob.append(int(n - np.unique(bootstrap).size))
    return stack_trees(trees, seed, n_oob)


def tree_depth(tree):
    """Steps from the root to the deepest leaf of a tree whose children follow their parent."""
    depth = np.zeros(tree.feature.size, dtype=np.int64)
    for node in np.flatnonzero(tree.feature >= 0):
        depth[tree.left[node]] = depth[tree.right[node]] = depth[node] + 1
    return int(depth.max())


def stack_trees(trees, seed, n_oob=None):
    """The forest of these trees, their node arrays stacked into one table.

    Each tree's child rows shift by the row its root lands on, and a
    leaf keeps -1. Counts are stored as int32 and widened with zero
    columns to forest.N_CLASSES, as fit_forest stores them; a trailing
    zero column changes no node's majority class. n_oob defaults to zeros.
    """
    sizes = [tree.feature.size for tree in trees]
    roots = np.cumsum([0] + sizes[:-1]).astype(np.int32)
    feature, threshold, left, right, counts = (
        np.concatenate([getattr(tree, name) for tree in trees])
        for name in ("feature", "threshold", "left", "right", "counts")
    )
    shift = np.where(feature >= 0, np.repeat(roots, sizes), 0)
    wide = np.zeros((len(counts), forest.N_CLASSES), dtype=np.int32)
    wide[:, : counts.shape[1]] = counts
    return forest.ForestModel(
        roots, feature, threshold, left + shift, right + shift, wide,
        tuple(n_oob or [0] * len(trees)), forest.FeatureConfig(), seed,
        max(tree_depth(tree) for tree in trees),
    )


@contextlib.contextmanager
def first_winner_searches():
    """A list that gains one entry per first-winner search of a pool backward."""
    calls, search = [], nn._first_winner_grad
    nn._first_winner_grad = lambda *a: calls.append(1) or search(*a)
    try:
        yield calls
    finally:
        nn._first_winner_grad = search


def reflectnet_forward_rows(net, batch, keep_cache=False):
    """model.forward_rows with each ReLU applied before its max pool.

    Max pools post-ReLU rows, so a segment whose pre-activations are all
    at or below zero ties at zero and routes its gradient to its first row.
    """
    segments = batch.segments
    z1 = nn.rowwise_linear(batch.rows, net.conv1)
    h1 = nn.relu(z1)
    h = nn.segment_context_layer(h1, segments) if net.config.use_gcl else h1
    z2 = nn.rowwise_linear(h, net.conv2)
    h2 = nn.relu(z2)
    pooled = nn.segment_max_pool(h2, segments)
    probs = nn.softmax(nn.rowwise_linear(pooled, net.head))
    if not keep_cache:
        return probs
    return probs, {"z1": z1, "h1": h1, "h": h, "z2": z2, "h2": h2, "pooled": pooled}


def reflectnet_loss_and_grads(net, batch, labels):
    """model.loss_and_grads over reflectnet_forward_rows: ReLU backward after each pool's."""
    segments = batch.segments
    probs, cache = reflectnet_forward_rows(net, batch, keep_cache=True)
    labels = np.asarray(labels, dtype=np.intp)
    d_logits = nn.logit_grads(probs, labels, 1.0 / len(batch), net.vector.dtype)
    grad = np.zeros_like(net.vector)
    slot = net.layers_of(grad)
    d_pooled = nn.rowwise_linear_backward(cache["pooled"], net.head, d_logits, slot["head"])
    # the first-winner search for every pool, independent of the single-winner path
    d_h2 = nn._first_winner_grad(cache["h2"], segments, d_pooled, cache["pooled"])
    d_z2 = nn.relu_backward(cache["z2"], d_h2)
    d_h = nn.rowwise_linear_backward(cache["h"], net.conv2, d_z2, slot["conv2"])
    if net.config.use_gcl:
        width = net.config.width1
        g = cache["h"][segments.starts, width:]
        d_global = np.add.reduceat(d_h[:, width:], segments.starts, axis=0)
        d_h1 = d_h[:, :width] + nn._first_winner_grad(cache["h1"], segments, d_global, g)
    else:
        d_h1 = d_h
    d_z1 = nn.relu_backward(cache["z1"], d_h1)
    nn.rowwise_linear_backward(batch.rows, net.conv1, d_z1, slot["conv1"], need_input_grad=False)
    return nn.mean_cross_entropy(probs, labels), grad


def gridcnn_dropout(net, rng, n):
    """The (n, 160) dropout multipliers gridcnn.loss_and_grads draws from rng for n grids:
    per grid 1 / keep for each of rng.random's draws below keep = 1 - DROPOUT, else 0."""
    keep = 1.0 - gridcnn.DROPOUT
    draws = rng.random((n, sum(gridcnn.DENSE_WIDTHS)))
    return (draws < keep).astype(net.vector.dtype) / keep


def gridcnn_forward_grids(net, x, rng=None, keep_cache=False, pool_first=False):
    """gridcnn.forward_grids with each ReLU before the pool and conv3 at all 11x11 cells.

    Dropout is drawn from rng, as gridcnn_dropout does. With pool_first,
    the pool takes conv3's pre-activations and the ReLU follows it
    (gridcnn._pool either way), and nothing else changes.
    """
    def conv(inp, params):
        b, h, w, cin = inp.shape
        cols = gridcnn._patches(inp)
        out = cols @ params.weights.reshape(9 * cin, -1) + params.bias
        return out.reshape(b, h, w, -1), cols

    z1, cols1 = conv(x, net.conv1)
    z2, cols2 = conv(nn.relu(z1), net.conv2)
    z3, cols3 = conv(nn.relu(z2), net.conv3)
    a3 = z3 if pool_first else nn.relu(z3)
    pooled = gridcnn._pool(a3)
    flat = (nn.relu(pooled) if pool_first else pooled).reshape(x.shape[0], gridcnn.FLAT_SIZE)
    zd1 = nn.rowwise_linear(flat, net.dense1)
    ad1 = nn.relu(zd1)
    cache = {}
    if rng is not None:
        masks = gridcnn_dropout(net, rng, x.shape[0])
        cache["drop1"], cache["drop2"] = np.split(masks, [gridcnn.DENSE_WIDTHS[0]], axis=1)
        ad1 = ad1 * cache["drop1"]
    zd2 = nn.rowwise_linear(ad1, net.dense2)
    ad2 = nn.relu(zd2)
    if rng is not None:
        ad2 = ad2 * cache["drop2"]
    probs = nn.softmax(nn.rowwise_linear(ad2, net.head))
    if not keep_cache:
        return probs
    cache.update(
        cols1=cols1, z1=z1, cols2=cols2, z2=z2, cols3=cols3, z3=z3, a3=a3,
        pooled=pooled, flat=flat, zd1=zd1, ad1=ad1, zd2=zd2, ad2=ad2,
    )
    return probs, cache


def first_winner_pool_grads(x, pooled, grad_out):
    """2x2 pool backward of an (B, 10 or 11, ..., C) stack, one window offset at a time.

    Each window's gradient goes to its first winner in gridcnn._POOL_OFFSETS
    order; a window with no winner (a NaN maximum) sends none.
    """
    grad = np.zeros_like(x)
    free = np.ones(pooled.shape, dtype=bool)
    for (di, dj), window in zip(gridcnn._POOL_OFFSETS, gridcnn._pool_windows(x)):
        wins = free & (window == pooled)
        grad[:, di:10:2, dj:10:2] = np.where(wins, grad_out, 0)
        free &= ~wins
    return grad


def gridcnn_loss_and_grads(net, batch, labels, rng=None, pool_first=False):
    """gridcnn.loss_and_grads of a GridStack over gridcnn_forward_grids, chunk by chunk.

    Every layer's weight gradient is added per chunk (one x.T @ g
    product), input gradients are g @ W.T and the flipped kernels are
    made per chunk. With pool_first, the pool backward is
    gridcnn._pool_grads on conv3's pre-activations, after the ReLU's;
    otherwise first_winner_pool_grads after ReLU's.
    """
    labels = np.asarray(labels, dtype=np.intp)
    scale = 1.0 / len(batch)
    grad = np.zeros_like(net.vector)
    slot = net.layers_of(grad)

    def conv_grads(cols, params, grad_out, grad, need_input_grad=True):
        cout = params.bias.shape[0]
        g = grad_out.reshape(-1, cout)
        grad.weights += (cols.T @ g).reshape(params.weights.shape)
        grad.bias += g.sum(axis=0)
        if not need_input_grad:
            return None
        flipped = params.weights[::-1, ::-1].transpose(0, 1, 3, 2).reshape(9 * cout, -1)
        return (gridcnn._patches(grad_out) @ flipped).reshape(*grad_out.shape[:3], -1)

    def dense_grads(x, params, grad_out, grad):
        grad.weights += x.T @ grad_out
        grad.bias += grad_out.sum(axis=0)
        return grad_out @ params.weights.T

    probs = []
    for start in range(0, len(batch), gridcnn._CHUNK):
        stop = start + gridcnn._CHUNK
        p, cache = gridcnn_forward_grids(
            net, batch.cells[start:stop], rng, keep_cache=True, pool_first=pool_first
        )
        probs.append(p)
        d_logits = nn.logit_grads(p, labels[start:stop], scale, net.vector.dtype)
        d_ad2 = dense_grads(cache["ad2"], net.head, d_logits, slot["head"])
        if "drop2" in cache:
            d_ad2 = d_ad2 * cache["drop2"]
        d_zd2 = nn.relu_backward(cache["zd2"], d_ad2)
        d_ad1 = dense_grads(cache["ad1"], net.dense2, d_zd2, slot["dense2"])
        if "drop1" in cache:
            d_ad1 = d_ad1 * cache["drop1"]
        d_zd1 = nn.relu_backward(cache["zd1"], d_ad1)
        d_flat = dense_grads(cache["flat"], net.dense1, d_zd1, slot["dense1"])
        d_flat = d_flat.reshape(cache["pooled"].shape)
        if pool_first:
            d_m3 = nn.relu_backward(cache["pooled"], d_flat)
            d_z3 = np.zeros_like(cache["z3"])
            d_z3[:, :10, :10] = gridcnn._pool_grads(
                np.ascontiguousarray(cache["z3"][:, :10, :10]), cache["pooled"], d_m3
            )
        else:
            d_a3 = first_winner_pool_grads(cache["a3"], cache["pooled"], d_flat)
            d_z3 = nn.relu_backward(cache["z3"], d_a3)
        d_a2 = conv_grads(cache["cols3"], net.conv3, d_z3, slot["conv3"])
        d_z2 = nn.relu_backward(cache["z2"], d_a2)
        d_a1 = conv_grads(cache["cols2"], net.conv2, d_z2, slot["conv2"])
        d_z1 = nn.relu_backward(cache["z1"], d_a1)
        conv_grads(cache["cols1"], net.conv1, d_z1, slot["conv1"], need_input_grad=False)
    return nn.mean_cross_entropy(np.concatenate(probs), labels), grad
