"""Tests for the handcrafted features and the from-scratch random forest."""

import math

import numpy as np
import pytest

from deepreflecs import container, datagen, evaluate, forest, preprocess
from deepreflecs.preprocess import ObjectPose, ObjectSample, Reflection


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
        fitted = forest.fit_forest(x, y, n_trees=25, seed=0, n_classes=2)
        np.testing.assert_array_equal(fitted.predict_batch(x), y)

    def test_single_class_degenerate_forest_warns(self):
        x = np.arange(10, dtype=float).reshape(-1, 1)
        y = np.zeros(10, dtype=int)
        with pytest.warns(UserWarning, match="single class"):
            fitted = forest.fit_forest(x, y, n_trees=5, seed=0, n_classes=4)
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
        fitted = forest.fit_forest(x, y, n_trees=30, seed=1, n_classes=2)
        fractions = [n_oob / n for n_oob in fitted.n_oob]
        assert abs(np.mean(fractions) - 1.0 / math.e) < 0.05

    def test_separable_gaussians_high_accuracy(self):
        rng = np.random.default_rng(4)
        x0 = rng.normal(0, 1, size=(150, 4))
        x1 = rng.normal(5, 1, size=(150, 4))
        x = np.vstack([x0, x1])
        y = np.array([0] * 150 + [1] * 150)
        fitted = forest.fit_forest(x, y, n_trees=20, seed=2, n_classes=2)
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
        np.bincount([tree.predict_one(x) for tree in trees], minlength=fitted.n_classes)
        for x in features
    ]).reshape(len(features), fitted.n_classes)


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
        stump_forest = forest.stack_trees([make_stump()], n_classes=2, seed=0)
        assert forest.count_nodes(stump_forest) == 3

    def test_hundred_stumps(self):
        stump_forest = forest.stack_trees([make_stump() for _ in range(100)], n_classes=2, seed=0)
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
        assert restored.n_classes == fitted.n_classes
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
        fitted = forest.fit_forest(x, y, n_trees=3, seed=0, n_classes=2)
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
        ],
        ids=["child-points-back", "child-past-end", "counts-shape", "counts-dtype",
             "feature-dtype", "threshold-shape", "feature-index-13", "nan-threshold",
             "feature-index-below-leaf", "roots-not-from-0", "roots-not-increasing",
             "root-past-the-table", "roots-size-not-n-trees", "child-in-next-tree"],
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
def desk_forests():
    """Per seed 0, 1 and 2: the desk forest of that seed and the features of every sample."""
    out = {}
    for seed in (0, 1, 2):
        samples = datagen.generate_dataset(datagen.desk_genspec(seed))
        train = preprocess.trackwise_split(samples, seed=seed)[0]
        labels = [sample.class_index for sample in train]
        fitted = forest.fit_forest(forest.extract_features(train), labels, seed=seed)
        out[seed] = fitted, forest.extract_features(samples)
    return out


def stump(feature, threshold, left_counts, right_counts):
    return forest.Tree(
        feature=np.array([feature, -1, -1], dtype=np.int32),
        threshold=np.array([threshold, 0.0, 0.0]),
        left=np.array([1, -1, -1], dtype=np.int32),
        right=np.array([2, -1, -1], dtype=np.int32),
        counts=np.array([[0] * len(left_counts), left_counts, right_counts], dtype=np.int64),
    )


class TestStackedWalk:
    """predict_batch walks every tree at once; Tree.predict_one is its per-sample reference."""

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
        fitted = forest.fit_forest(
            x, rng.integers(0, n_classes, size=60), n_trees=n_trees, seed=1, n_classes=n_classes
        )
        queries = rng.normal(size=(300, 3))
        votes = reference_votes(fitted, queries)
        assert ((votes == votes.max(axis=1, keepdims=True)).sum(axis=1) > 1).any()
        assert_walk_matches_reference(fitted, queries)

    def test_tied_stumps(self):
        # x < 0.5: classes 2 and 1 tie; otherwise 0 and 2 tie; a leaf tied 2:2 votes class 1
        trees = [stump(0, 0.5, [0, 0, 3], [1, 0, 0]), stump(0, 0.5, [0, 3, 0], [0, 2, 2])]
        fitted = forest.stack_trees(trees, n_classes=3, seed=0)
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

    @pytest.mark.filterwarnings("ignore:training data has a single class")
    @pytest.mark.parametrize("n_classes", [1, 6])
    def test_file_declaring_any_class_count(self, n_classes):
        rng = np.random.default_rng(n_classes)
        x = rng.normal(size=(90, forest.N_HANDCRAFTED))
        fitted = forest.fit_forest(x, np.arange(90) % n_classes, n_trees=6, seed=2,
                                   n_classes=n_classes)
        loaded = forest.deserialize(forest.serialize(fitted))
        assert loaded.n_classes == n_classes and loaded.counts.shape[1] == n_classes
        assert_walk_matches_reference(fitted, rng.normal(size=(200, forest.N_HANDCRAFTED)))

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
        fitted = forest.stack_trees([stump(0, 0.5, [3, 0], [0, 3])], n_classes=2, seed=0)
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

    def test_empty_batch_is_an_empty_int64_array(self, desk_forests):
        fitted, _ = desk_forests[0]
        got = fitted.predict_batch(np.empty((0, forest.N_HANDCRAFTED)))
        assert got.shape == (0,) and got.dtype == np.int64

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
