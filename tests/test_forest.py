"""Tests for the handcrafted features and the from-scratch random forest."""

import math
import re

import numpy as np
import pytest

from deepreflecs import container, datagen, evaluate, forest, preprocess
from deepreflecs.preprocess import ObjectPose, ObjectSample, Reflection
import oracles


def make_sample(rows, label="car"):
    """rows: iterable of (x, y, rcs, range, vr, azimuth) tuples."""
    return ObjectSample(
        track_id="t0",
        class_label=label,
        pose=ObjectPose(0, 0, 0),
        reflections=[
            Reflection(x=r[0], y=r[1], rcs=r[2], range_m=r[3], vr=r[4], azimuth=r[5])
            for r in rows
        ],
    )


class TestHandcraftedFeatures:
    def test_single_reflection_degenerate_spreads(self):
        sample = make_sample([(1.0, 2.0, 5.0, 10.0, 0.5, 0.1)])
        f = forest.extract_handcrafted(sample)
        assert f.shape == (13,)
        assert f[1] == 1.0  # num_reflections
        assert f[6] == 0.0  # extent_sum
        np.testing.assert_array_equal(f[7:13], 0.0)

    def test_two_ranges_population_convention(self):
        sample = make_sample(
            [(0, 0, 0, 10.0, 0, 0), (1, 0, 0, 12.0, 0, 0)]
        )
        f = forest.extract_handcrafted(sample)
        assert f[7] == pytest.approx(2.0)   # range_interval = max - min
        assert f[8] == pytest.approx(1.0)   # population variance
        assert f[9] == pytest.approx(1.0)   # std

    def test_stationary_flag(self):
        sample = make_sample([(0, 0, 0, 1, 0.05, 0), (0, 0, 0, 1, 3.0, 0)])
        assert forest.extract_handcrafted(sample)[2] == 1.0
        moving = make_sample([(0, 0, 0, 1, 0.5, 0), (0, 0, 0, 1, 3.0, 0)])
        assert forest.extract_handcrafted(moving)[2] == 0.0

    def test_velocity_resolution_copied_from_config(self):
        sample = make_sample([(0, 0, 0, 1, 0, 0)])
        f = forest.extract_handcrafted(sample, forest.FeatureConfig(velocity_resolution=0.25))
        assert f[0] == 0.25

    def test_extent_sum_in_object_frame(self):
        sample = ObjectSample(
            track_id="t",
            class_label="car",
            pose=ObjectPose(0, 0, math.pi / 2),  # object axis along world +y
            reflections=[
                Reflection(x=0, y=0, rcs=0, range_m=1, vr=0, azimuth=0),
                Reflection(x=0, y=4, rcs=0, range_m=1, vr=0, azimuth=0),
                Reflection(x=1, y=0, rcs=0, range_m=1, vr=0, azimuth=0),
            ],
        )
        f = forest.extract_handcrafted(sample)
        assert f[6] == pytest.approx(5.0)  # 4m along object x plus 1m along y

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        rows = [tuple(rng.normal(size=6)) for _ in range(8)]
        rows = [(x, y, r, abs(rg), v, a) for x, y, r, rg, v, a in rows]
        a = forest.extract_handcrafted(make_sample(rows))
        b = forest.extract_handcrafted(make_sample(rows[::-1]))
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)

    def test_variance_equals_std_squared(self):
        rng = np.random.default_rng(1)
        rows = [
            (rng.normal(), rng.normal(), rng.normal(), abs(rng.normal(10, 3)),
             rng.normal(), rng.normal())
            for _ in range(11)
        ]
        f = forest.extract_handcrafted(make_sample(rows))
        assert f[8] == pytest.approx(f[9] ** 2, rel=1e-9)
        assert f[11] == pytest.approx(f[12] ** 2, rel=1e-9)


class TestForestFit:
    def test_two_point_problem_gets_perfect_training_accuracy(self):
        # oracle: a single threshold between the two 1-D points exists
        x = np.array([[0.0], [1.0]])
        y = np.array([0, 1])
        thresholds = [0.5 * (x[0, 0] + x[1, 0])]
        assert any(
            (x[:, 0] < t).tolist() == [True, False] for t in thresholds
        )
        fitted = forest.fit_forest(x, y, n_trees=25, seed=0)
        np.testing.assert_array_equal(fitted.predict_batch(x), y)

    def test_single_class_degenerate_forest_warns(self):
        x = np.arange(10, dtype=float).reshape(-1, 1)
        y = np.zeros(10, dtype=int)
        with pytest.warns(UserWarning, match="single class"):
            fitted = forest.fit_forest(x, y, n_trees=5, seed=0)
        assert set(fitted.predict_batch(x)) == {0}

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(60, 5))
        y = rng.integers(0, 3, size=60)
        a = forest.fit_forest(x, y, n_trees=10, seed=7)
        b = forest.fit_forest(x, y, n_trees=10, seed=7)
        for name in TABLE:
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        c = forest.fit_forest(x, y, n_trees=10, seed=8)
        assert not np.array_equal(a.feature, c.feature)

    def test_out_of_bag_fraction_near_1_over_e(self):
        rng = np.random.default_rng(3)
        n = 2000
        x = rng.normal(size=(n, 3))
        y = rng.integers(0, 2, size=n)
        fitted = forest.fit_forest(x, y, n_trees=30, seed=1)
        fractions = [n_oob / n for n_oob in fitted.n_oob]
        assert abs(np.mean(fractions) - 1.0 / math.e) < 0.05

    def test_separable_gaussians_high_accuracy(self):
        rng = np.random.default_rng(4)
        x0 = rng.normal(0, 1, size=(150, 4))
        x1 = rng.normal(5, 1, size=(150, 4))
        x = np.vstack([x0, x1])
        y = np.array([0] * 150 + [1] * 150)
        fitted = forest.fit_forest(x, y, n_trees=20, seed=2)
        test0 = rng.normal(0, 1, size=(50, 4))
        test1 = rng.normal(5, 1, size=(50, 4))
        preds = fitted.predict_batch(np.vstack([test0, test1]))
        accuracy = np.mean(preds == np.array([0] * 50 + [1] * 50))
        assert accuracy > 0.95


TABLE = ("roots", "feature", "threshold", "left", "right", "counts")


def trees_of(fitted):
    """Each tree of a forest's node table as a Tree, its child rows counted from its root."""
    ends = np.append(fitted.roots[1:], fitted.feature.size)
    for start, end in zip(fitted.roots, ends):
        rows = slice(start, end)
        yield forest.Tree(
            fitted.feature[rows], fitted.threshold[rows], fitted.left[rows] - start,
            fitted.right[rows] - start, fitted.counts[rows],
        )


def reference_votes(fitted, features):
    """(samples, classes) count of the trees whose Tree.predict_one gives each class."""
    trees = list(trees_of(fitted))
    return np.array([
        np.bincount([tree.predict_one(x) for tree in trees], minlength=forest.N_CLASSES)
        for x in features
    ]).reshape(len(features), forest.N_CLASSES)


def reference_predictions(fitted, features):
    """Majority vote of Tree.predict_one per sample, ties to the lowest class."""
    votes = reference_votes(fitted, features)
    return np.array(
        [np.flatnonzero(row == row.max())[0] for row in votes], dtype=np.int64
    ).reshape(len(features))


def assert_walk_matches_reference(fitted, features):
    """predict_batch and predict of the forest and of its loaded file equal the reference."""
    expected = reference_predictions(fitted, features)
    loaded = forest.deserialize(forest.serialize(fitted))
    for model in (fitted, loaded):
        got = model.predict_batch(features)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, expected)
        assert [model.predict(x) for x in features] == expected.tolist()


def make_stump():
    return forest.Tree(
        feature=np.array([0, -1, -1], dtype=np.int32),
        threshold=np.array([0.5, 0.0, 0.0]),
        left=np.array([1, -1, -1], dtype=np.int32),
        right=np.array([2, -1, -1], dtype=np.int32),
        counts=np.array([[1, 1], [1, 0], [0, 1]], dtype=np.int64),
    )


class TestCountNodes:
    def test_stump_has_three_nodes(self):
        stump_forest = oracles.stack_trees([make_stump()], seed=0)
        assert forest.count_nodes(stump_forest) == 3

    def test_hundred_stumps(self):
        stump_forest = oracles.stack_trees([make_stump() for _ in range(100)], seed=0)
        assert forest.count_nodes(stump_forest) == 300
        np.testing.assert_array_equal(stump_forest.roots, np.arange(0, 300, 3))
        np.testing.assert_array_equal(stump_forest.left[3:6], [4, -1, -1])
        np.testing.assert_array_equal(stump_forest.right[3:6], [5, -1, -1])

    def test_node_count_nondecreasing_on_nested_sets(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(400, 6))
        y = rng.integers(0, 4, size=400)
        counts = []
        for n in (100, 200, 400):
            fitted = forest.fit_forest(x[:n], y[:n], n_trees=10, seed=3)
            counts.append(forest.count_nodes(fitted))
        assert counts[0] <= counts[1] <= counts[2]


class TestForestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(80, 5))
        y = rng.integers(0, 4, size=80)
        fitted = forest.fit_forest(x, y, n_trees=8, seed=9)
        restored = forest.deserialize(forest.serialize(fitted))
        assert restored.counts.shape == (fitted.feature.size, forest.N_CLASSES)
        assert restored.seed == fitted.seed
        assert restored.feature_config == fitted.feature_config
        assert restored.n_oob == fitted.n_oob
        for name in TABLE:
            read, made = getattr(restored, name), getattr(fitted, name)
            assert read.dtype == made.dtype
            np.testing.assert_array_equal(read, made)
        np.testing.assert_array_equal(
            fitted.predict_batch(x), restored.predict_batch(x)
        )

    def test_file_round_trip(self, tmp_path):
        # a model file is read back by the magic dispatch of `deepreflecs eval`
        x = np.array([[0.0], [1.0], [2.0]])
        y = np.array([0, 1, 1])
        fitted = forest.fit_forest(x, y, n_trees=3, seed=0)
        path = tmp_path / "forest.frst"
        path.write_bytes(forest.serialize(fitted))
        blob = path.read_bytes()
        restored = evaluate.method_for(blob).deserialize(blob)
        np.testing.assert_array_equal(
            fitted.predict_batch(x), restored.predict_batch(x)
        )

    @pytest.mark.parametrize(
        "name, edit, match",
        [
            ("left", lambda a, r: np.where(np.arange(a.size) == 0, 0, a), "tree 0: a child"),
            ("right", lambda a, r: np.where(a > 0, a.size, a), "tree 0: a child"),
            ("counts", lambda a, r: a[:, :-1], "'counts' has shape"),
            ("counts", lambda a, r: a.astype(np.float64), "'counts' has dtype"),
            ("feature", lambda a, r: a.astype(np.float64), "'feature' has dtype"),
            ("threshold", lambda a, r: a[:-1], "'threshold' has shape"),
            ("feature", lambda a, r: np.where(a >= 0, forest.N_HANDCRAFTED, a), "tree 0: a feature"),
            ("threshold", lambda a, r: np.full_like(a, np.nan), "not finite"),
            ("feature", lambda a, r: np.where(a < 0, -2, a), "tree 0: a feature"),
            ("roots", lambda a, r: a + 1, "roots must start at 0"),
            ("roots", lambda a, r: np.zeros_like(a), "roots must start at 0"),
            ("roots", lambda a, r: np.array([0, r["feature"].size], a.dtype), "roots must start"),
            ("roots", lambda a, r: a[:1], "'roots' has shape"),
            ("right", lambda a, r: np.where(np.arange(a.size) == 0, r["roots"][1], a),
             "tree 0: a child"),
            ("left", lambda a, r: np.where(a == -1, 0, a), "tree 0: a leaf has a child"),
            ("right", lambda a, r: np.where(a == -1, a.size - 1, a), "tree 0: a leaf has a child"),
        ],
        ids=["child-points-back", "child-past-end", "counts-shape", "counts-dtype",
             "feature-dtype", "threshold-shape", "feature-index-13", "nan-threshold",
             "feature-index-below-leaf", "roots-not-from-0", "roots-not-increasing",
             "root-past-the-table", "roots-size-not-n-trees", "child-in-next-tree",
             "leaf-left-not-minus-1", "leaf-right-in-the-table"],
    )
    def test_malformed_tree_is_container_error(self, name, edit, match):
        x = np.arange(6, dtype=np.float64)[:, None]
        fitted = forest.fit_forest(x, np.array([0, 1, 2, 0, 1, 2]), n_trees=2, seed=0)
        parsed = container.read_container(forest.serialize(fitted), forest.MAGIC)
        assert (parsed.arrays["feature"][parsed.arrays["roots"]] >= 0).all()  # internal roots
        # parsed arrays are read-only views of the file: edit copies
        arrays = {key: array.copy() for key, array in parsed.arrays.items()}
        arrays[name] = edit(arrays[name], arrays)
        blob = container.write_container(forest.MAGIC, parsed.config, None, list(arrays.items()))
        with pytest.raises(container.ContainerError, match=match):
            forest.deserialize(blob)

    def test_int64_counts_file_loads_and_predicts_alike(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(80, 5))
        fitted = forest.fit_forest(x, rng.integers(0, 4, size=80), n_trees=6, seed=1)
        assert fitted.counts.dtype == np.int32
        parsed = container.read_container(forest.serialize(fitted), forest.MAGIC)
        arrays = {**parsed.arrays, "counts": parsed.arrays["counts"].astype(np.int64)}
        blob = container.write_container(forest.MAGIC, parsed.config, None, list(arrays.items()))
        loaded = forest.deserialize(blob)
        assert loaded.counts.dtype == np.int64 and loaded.depth == fitted.depth
        np.testing.assert_array_equal(loaded.counts, fitted.counts)
        assert_walk_matches_reference(loaded, rng.normal(size=(100, 5)))

    def test_per_tree_layout_file_is_container_error_naming_the_table(self):
        x = np.arange(6, dtype=np.float64)[:, None]
        fitted = forest.fit_forest(x, np.array([0, 1, 2, 0, 1, 2]), n_trees=2, seed=0)
        arrays = [
            (f"tree{t}.{name}", getattr(tree, name))
            for t, tree in enumerate(trees_of(fitted))
            for name in ("feature", "threshold", "left", "right", "counts")
        ]
        config = container.read_container(forest.serialize(fitted), forest.MAGIC).config
        blob = container.write_container(forest.MAGIC, config, None, arrays)
        with pytest.raises(container.ContainerError, match="tree0") as err:
            forest.deserialize(blob)
        assert all(f"'{name}'" in str(err.value) for name in TABLE)

    def test_deserialize_keeps_views_of_the_file(self, desk_forests):
        import tracemalloc

        fitted, x = desk_forests[0]
        blob = forest.serialize(fitted)
        assert len(blob) > 100_000
        tracemalloc.start()
        try:
            loaded = forest.deserialize(blob)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept < 16_000
        np.testing.assert_array_equal(loaded.predict_batch(x), fitted.predict_batch(x))

    @pytest.mark.parametrize(
        "edit",
        [
            lambda cfg: {},
            lambda cfg: {k: v for k, v in cfg.items() if k != "seed"},
            lambda cfg: {**cfg, "n_trees": "2"},
            lambda cfg: {**cfg, "n_trees": 1.5},
            lambda cfg: {**cfg, "oob": cfg["oob"][:1]},
            lambda cfg: {**cfg, "oob": None},
            lambda cfg: {**cfg, "velocity_resolution": "x"},
            lambda cfg: {**cfg, "velocity_resolution": []},
            lambda cfg: {**cfg, "stationary_threshold": "x"},
            lambda cfg: {**cfg, "stationary_threshold": []},
            lambda cfg: {**cfg, "velocity_resolution": 10**400},
        ],
        ids=["empty-config", "missing-seed", "n-trees-string", "n-trees-float", "oob-short",
             "oob-null", "velocity-resolution-string", "velocity-resolution-list",
             "stationary-threshold-string", "stationary-threshold-list",
             "velocity-resolution-huge-int"],
    )
    def test_bad_config_is_container_error(self, edit):
        x = np.arange(6, dtype=np.float64)[:, None]
        fitted = forest.fit_forest(x, np.array([0, 1, 2, 0, 1, 2]), n_trees=2, seed=0)
        parsed = container.read_container(forest.serialize(fitted), forest.MAGIC)
        blob = container.write_container(
            forest.MAGIC, edit(dict(parsed.config)), None, list(parsed.arrays.items())
        )
        with pytest.raises(container.ContainerError):
            forest.deserialize(blob)


@pytest.fixture(scope="module")
def desk_data():
    """Per seed 0, 1 and 2: the features of every desk sample, and of the train split with labels."""
    out = {}
    for seed in (0, 1, 2):
        samples = datagen.generate_dataset(datagen.desk_genspec(seed))
        train = preprocess.trackwise_split(samples, seed=seed)[0]
        labels = np.array([sample.class_index for sample in train])
        out[seed] = forest.extract_features(samples), forest.extract_features(train), labels
    return out


@pytest.fixture(scope="module")
def desk_forests(desk_data):
    """Per seed 0, 1 and 2: the desk forest of that seed and the features of every sample."""
    out = {}
    for seed, (features, train_features, train_labels) in desk_data.items():
        out[seed] = forest.fit_forest(train_features, train_labels, seed=seed), features
    return out


def stump(feature, threshold, left_counts, right_counts):
    return forest.Tree(
        feature=np.array([feature, -1, -1], dtype=np.int32),
        threshold=np.array([threshold, 0.0, 0.0]),
        left=np.array([1, -1, -1], dtype=np.int32),
        right=np.array([2, -1, -1], dtype=np.int32),
        counts=np.array([[0] * len(left_counts), left_counts, right_counts], dtype=np.int64),
    )


def chain(depth):
    """A chain of depth splits on column 0.

    Split i sends x < i + 0.5 to a leaf of class i % 3; x past every split ends at class 2.
    """
    n = 2 * depth + 1
    split = np.arange(0, n - 1, 2)
    feature = np.full(n, -1, dtype=np.int32)
    feature[split] = 0
    threshold = np.zeros(n)
    threshold[split] = np.arange(depth) + 0.5
    left, right = np.full(n, -1, dtype=np.int32), np.full(n, -1, dtype=np.int32)
    left[split], right[split] = split + 1, split + 2
    counts = np.zeros((n, 3), dtype=np.int64)
    counts[split + 1, np.arange(depth) % 3] = 1
    counts[-1, -1] = 1
    return forest.Tree(feature, threshold, left, right, counts)


def leaf(counts):
    return forest.Tree(
        feature=np.array([-1], dtype=np.int32), threshold=np.zeros(1),
        left=np.array([-1], dtype=np.int32), right=np.array([-1], dtype=np.int32),
        counts=np.array([counts], dtype=np.int64),
    )


class TestStackedWalk:
    """predict_batch and predict against their per-sample reference, Tree.predict_one.

    predict_batch walks blocks of rows through every tree at once, one level
    per step; predict walks one row through a step table of each node's next row.
    """

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_desk_forest_matches_the_reference_on_every_sample(self, desk_forests, seed):
        fitted, features = desk_forests[seed]
        assert len(features) > 1300
        assert_walk_matches_reference(fitted, features)

    @pytest.mark.parametrize("n_classes", [2, 3, 4])
    @pytest.mark.parametrize("n_trees", [2, 4])
    def test_vote_ties_go_to_the_lowest_class(self, n_trees, n_classes):
        rng = np.random.default_rng([n_trees, n_classes])
        x = rng.normal(size=(60, 3))
        fitted = forest.fit_forest(x, rng.integers(0, n_classes, size=60), n_trees=n_trees, seed=1)
        queries = rng.normal(size=(300, 3))
        votes = reference_votes(fitted, queries)
        assert ((votes == votes.max(axis=1, keepdims=True)).sum(axis=1) > 1).any()
        assert_walk_matches_reference(fitted, queries)

    def test_tied_stumps(self):
        # x < 0.5: classes 2 and 1 tie; otherwise 0 and 2 tie; a leaf tied 2:2 votes class 1
        trees = [stump(0, 0.5, [0, 0, 3], [1, 0, 0]), stump(0, 0.5, [0, 3, 0], [0, 2, 2])]
        fitted = oracles.stack_trees(trees, seed=0)
        x = np.array([[0.0], [1.0]])
        np.testing.assert_array_equal(fitted.predict_batch(x), [1, 0])
        assert_walk_matches_reference(fitted, x)

    def test_single_class_forest(self):
        x = np.random.default_rng(8).normal(size=(30, forest.N_HANDCRAFTED))
        with pytest.warns(UserWarning, match="single class"):
            fitted = forest.fit_forest(x, np.full(30, 2), n_trees=5, seed=0)
        assert fitted.feature.size == 5 and (fitted.feature == -1).all()
        np.testing.assert_array_equal(fitted.predict_batch(x), 2)
        assert_walk_matches_reference(fitted, x)

    def test_batch_longer_than_a_block(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(200, 4))
        fitted = forest.fit_forest(x, rng.integers(0, 4, size=200), n_trees=7, seed=3)
        queries = rng.normal(size=(2 * forest.BLOCK + 37, 4))
        assert_walk_matches_reference(fitted, queries)
        blockwise = np.concatenate([
            fitted.predict_batch(queries[start : start + 100]) for start in range(0, len(queries), 100)
        ])
        np.testing.assert_array_equal(fitted.predict_batch(queries), blockwise)

    def test_non_finite_features_go_right(self):
        fitted = oracles.stack_trees([stump(0, 0.5, [3, 0], [0, 3])], seed=0)
        x = np.array([[np.nan], [np.inf], [-np.inf], [0.0], [0.5]])
        np.testing.assert_array_equal(fitted.predict_batch(x), [1, 1, 0, 0, 1])
        assert_walk_matches_reference(fitted, x)

        rng = np.random.default_rng(10)
        train = rng.normal(size=(120, forest.N_HANDCRAFTED))
        fitted = forest.fit_forest(train, rng.integers(0, 4, size=120), n_trees=9, seed=4)
        queries = rng.normal(size=(300, forest.N_HANDCRAFTED))
        queries[rng.random(queries.shape) < 0.3] = np.nan
        queries[rng.random(queries.shape) < 0.1] = np.inf
        queries[rng.random(queries.shape) < 0.1] = -np.inf
        assert_walk_matches_reference(fitted, queries)

    def test_malformed_feature_table_is_value_error_naming_it(self, desk_forests):
        fitted, _ = desk_forests[0]
        needed = int(fitted.feature.max()) + 1
        assert needed > 5
        for call, x in [
            (fitted.predict, np.zeros(5)),  # predicted as the table (1, 5)
            (fitted.predict_batch, np.zeros(needed)),
            (fitted.predict_batch, np.zeros((4, needed - 1))),
            (fitted.predict_batch, np.zeros((2, 1, needed))),
        ]:
            shape = np.shape(x) if call == fitted.predict_batch else (1, 5)
            with pytest.raises(ValueError, match=re.escape(f"{shape}") + f".* {needed} columns"):
                call(x)
        wide = np.zeros((2, needed + 3))  # more columns than the forest splits on are fine
        expected = fitted.predict_batch(wide[:, :needed])
        np.testing.assert_array_equal(fitted.predict_batch(wide), expected)

    @pytest.mark.parametrize(
        "call, x",
        [
            ("predict_batch", [[0.0] * forest.N_HANDCRAFTED, [1.0]]),
            ("predict", [[0.0], [1.0, 2.0]]),
            ("predict_batch", [["a"] * forest.N_HANDCRAFTED]),
            ("predict_batch", [["1.0"] * forest.N_HANDCRAFTED]),
            ("predict", ["a"] * forest.N_HANDCRAFTED),
        ],
        ids=["ragged-batch", "ragged-row", "strings", "numeric-strings", "string-row"],
    )
    def test_a_ragged_or_string_table_is_value_error_naming_features(self, desk_forests, call, x):
        fitted, _ = desk_forests[0]
        with pytest.raises(ValueError, match="^features must be a \\(rows, columns\\) table"):
            getattr(fitted, call)(x)

    def test_empty_batch_is_an_empty_int64_array(self, desk_forests):
        fitted, _ = desk_forests[0]
        got = fitted.predict_batch(np.empty((0, forest.N_HANDCRAFTED)))
        assert got.shape == (0,) and got.dtype == np.int64

    def test_tree_deeper_than_20_levels(self):
        fitted = oracles.stack_trees([chain(25), chain(3), chain(22)], seed=0)
        loaded = forest.deserialize(forest.serialize(fitted))
        assert fitted.depth == loaded.depth == 25
        queries = np.arange(-1.0, 27.0)[:, None] + np.array([0.0, 0.25, 0.5, 0.75])[:, None, None]
        assert_walk_matches_reference(fitted, queries.reshape(-1, 1))

    def test_all_leaf_forest_has_depth_0_and_takes_rows_of_no_columns(self):
        fitted = oracles.stack_trees([leaf([0, 2, 1]), leaf([1, 0, 3]), leaf([0, 4, 4])], seed=0)
        loaded = forest.deserialize(forest.serialize(fitted))
        for model in (fitted, loaded):
            assert model.depth == 0
            assert model.predict(np.zeros(0)) == 1
            np.testing.assert_array_equal(model.predict_batch(np.zeros((2, 0))), [1, 1])
        assert_walk_matches_reference(fitted, np.zeros((3, 2)))

    def test_predict_does_not_call_predict_batch(self, desk_forests, monkeypatch):
        fitted, features = desk_forests[0]
        expected = fitted.predict_batch(features[:200])

        def refuse(self, features):
            raise AssertionError("predict_batch called")

        monkeypatch.setattr(forest.ForestModel, "predict_batch", refuse)
        assert [fitted.predict(x) for x in features[:200]] == expected.tolist()

    def test_predict_keeps_no_memory_on_a_loaded_forest(self, desk_forests):
        import tracemalloc

        fitted, features = desk_forests[0]
        blob = forest.serialize(fitted)
        tracemalloc.start()
        try:
            loaded = forest.deserialize(blob)
            got = [loaded.predict(x) for x in features[:20]]
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept < 16_000
        assert got == fitted.predict_batch(features[:20]).tolist()

    def test_predicting_one_desk_row_peaks_under_128_kib(self, desk_forests):
        import tracemalloc

        fitted, features = desk_forests[0]
        loaded = forest.deserialize(forest.serialize(fitted))
        tracemalloc.start()
        try:
            got = loaded.predict(features[0])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 128 * 2**10  # the step table of 5,362 nodes and its operands
        assert got == fitted.predict_batch(features[:1])[0]

    def test_predicting_1400_rows_peaks_under_2_mb(self, desk_forests):
        import tracemalloc

        fitted, features = desk_forests[0]
        loaded = forest.deserialize(forest.serialize(fitted))
        rows = features[:1400]
        assert len(rows) == 1400
        tracemalloc.start()
        try:
            got = loaded.predict_batch(rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20
        np.testing.assert_array_equal(got, fitted.predict_batch(rows))


def awkward_table(seed, n_rows=60, n_features=5, n_classes=4):
    """Ties, duplicate rows, NaN, +-inf, an integer-valued last column; with 3+ columns a constant."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n_rows, n_features)).round(1)
    x[:, -1] = rng.integers(0, 3, size=n_rows)
    x[rng.random(x.shape) < 0.1] = np.nan
    x[rng.random(x.shape) < 0.05] = np.inf
    x[rng.random(x.shape) < 0.05] = -np.inf
    if n_features > 2:
        x[:, 0] = 2.5
    x[n_rows // 2 : n_rows // 2 + 6] = x[:6]
    return x, rng.integers(0, n_classes, size=n_rows)


def assert_matches_reference(features, labels, **kwargs):
    """fit_forest writes the file of the one-tree, one-node-at-a-time reference grower."""
    fitted = forest.fit_forest(features, labels, **kwargs)
    expected = oracles.fit_forest(features, labels, **kwargs)
    assert forest.serialize(fitted) == forest.serialize(expected)
    return fitted


def assert_children_hold_rows(fitted):
    """Every internal node's children both hold rows, and together hold the node's."""
    internal = np.flatnonzero(fitted.feature >= 0)
    left, right = fitted.counts[fitted.left[internal]], fitted.counts[fitted.right[internal]]
    assert (left.sum(axis=1) > 0).all() and (right.sum(axis=1) > 0).all()
    np.testing.assert_array_equal(left + right, fitted.counts[internal])


class TestLockstepGrower:
    """fit_forest grows blocks of trees in lockstep; oracles.fit_forest is its reference."""

    def test_fitting_the_desk_train_split_peaks_under_4_mb(self, desk_data):
        import tracemalloc

        _, features, labels = desk_data[0]
        tracemalloc.start()
        try:
            fitted = forest.fit_forest(features, labels, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert forest.count_nodes(fitted) == 5362

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_desk_forest_matches_the_reference(self, desk_data, desk_forests, seed):
        _, features, labels = desk_data[seed]
        expected = oracles.fit_forest(features, labels, seed=seed)
        assert forest.serialize(desk_forests[seed][0]) == forest.serialize(expected)
        assert_children_hold_rows(desk_forests[seed][0])

    @pytest.mark.parametrize("n_classes", [2, 3, 4])
    @pytest.mark.parametrize("n_features", [1, 2, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_awkward_tables_match_the_reference(self, seed, n_features, n_classes):
        x, y = awkward_table(seed, n_features=n_features, n_classes=n_classes)
        fitted = assert_matches_reference(x, y, n_trees=6, seed=seed)
        assert_children_hold_rows(fitted)

    def test_one_and_two_rows_match_the_reference(self):
        x = np.array([[0.0, 1.0], [1.0, 1.0]])
        with pytest.warns(UserWarning, match="single class"):
            assert_matches_reference(x[:1], [1], n_trees=4, seed=3)
        assert_matches_reference(x, [0, 1], n_trees=4, seed=3)

    def test_single_class_matches_the_reference_and_warns(self):
        x, _ = awkward_table(4)
        with pytest.warns(UserWarning, match="single class"):
            assert_matches_reference(x, np.full(len(x), 3), n_trees=3, seed=0)

    @pytest.mark.parametrize("per_block, n_trees", [(3, 1), (3, 3), (3, 4), (3, 7), (1, 3)])
    def test_block_edges_match_the_reference(self, monkeypatch, per_block, n_trees):
        x, y = awkward_table(5)
        monkeypatch.setattr(forest, "FIT_ELEMENTS", per_block * x.size + x.size - 1)
        fitted = assert_matches_reference(x, y, n_trees=n_trees, seed=2)
        assert fitted.roots.size == n_trees

    @pytest.mark.parametrize(
        "low, high",
        [(1.0, np.nextafter(1.0, 2.0)), (1e308, 1.7e308), (-np.inf, 0.0), (-np.inf, np.inf)],
        ids=["adjacent-doubles", "midpoint-overflows", "minus-inf", "both-infinite"],
    )
    def test_threshold_parts_the_two_values(self, low, high):
        # the midpoint of these rounds to low or leaves [low, high]; high is the threshold
        x = np.array([[low], [low], [high], [high]]).repeat(3, axis=1)
        y = np.array([0, 0, 1, 1])
        fitted = assert_matches_reference(x, y, n_trees=5, seed=0)
        assert_children_hold_rows(fitted)
        internal = fitted.feature >= 0
        assert internal.any() and (fitted.threshold[internal] == high).all()
        np.testing.assert_array_equal(fitted.predict_batch(x), y)


@pytest.mark.parametrize(
    "features, labels, match",
    [
        (np.arange(4.0), [0, 1, 0, 1], "features must be a \\(rows, columns\\) table"),
        (np.zeros((4, 0)), [0, 1, 0, 1], "features must be a \\(rows, columns\\) table"),
        (np.zeros((4, 2)), [0, 1, 0], "labels have shape \\(3,\\) for 4 feature rows"),
        (np.zeros((4, 2)), [[0, 1, 0, 1]],
         "labels must be a list of class indices, got shape \\(1, 4\\)"),
        (np.zeros((0, 2)), [], "empty dataset"),
        (np.zeros((4, 2)), [0, 1, 2.5, 1], "labels must be a list of class indices"),
        (np.zeros((4, 2)), [0, 1, np.nan, 1], "labels must be a list of class indices"),
        (np.zeros((4, 2)), ["a", "b", "a", "b"], "labels must be a list of class indices"),
        (np.zeros((4, 2)), [0, 1, 4, 1], "labels must lie in \\[0, 4\\), got 0 to 4"),
        (np.zeros((4, 2)), [0, -1, 2, 1], "labels must lie in \\[0, 4\\), got -1 to 2"),
        (np.zeros((2, 2)), [[0], [1, 2]], "labels must be a list of class indices, got a ragged"),
        ([[0.0], [1.0, 2.0]], [0, 1], "features must be a \\(rows, columns\\) table, got a ragged"),
        ([["a", "b"], ["c", "d"]], [0, 1], "features must be a .* table of numbers"),
        ([["1", "2"], ["3", "4"]], [0, 1], "features must be a .* table of numbers"),
    ],
    ids=["one-dimensional", "no-columns", "fewer-labels", "label-table", "empty",
         "fractional-label", "nan-label", "string-labels", "label-past-classes",
         "negative-label", "ragged-labels", "ragged-features", "string-features",
         "numeric-string-features"],
)
def test_bad_fit_input_is_value_error_naming_it(features, labels, match):
    with pytest.raises(ValueError, match=match):
        forest.fit_forest(features, labels, n_trees=2)


def test_no_trees_is_value_error():
    with pytest.raises(ValueError, match="n_trees must be at least 1"):
        forest.fit_forest(np.zeros((4, 2)), [0, 1, 0, 1], n_trees=0)
