"""Tests for the handcrafted features and the from-scratch random forest."""

import math

import numpy as np
import pytest

from deepreflecs import container, forest
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
        for ta, tb in zip(a.trees, b.trees):
            np.testing.assert_array_equal(ta.feature, tb.feature)
            np.testing.assert_array_equal(ta.threshold, tb.threshold)
        c = forest.fit_forest(x, y, n_trees=10, seed=8)
        assert any(
            not np.array_equal(ta.feature, tc.feature)
            for ta, tc in zip(a.trees, c.trees)
        )

    def test_out_of_bag_fraction_near_1_over_e(self):
        rng = np.random.default_rng(3)
        n = 2000
        x = rng.normal(size=(n, 3))
        y = rng.integers(0, 2, size=n)
        fitted = forest.fit_forest(x, y, n_trees=30, seed=1, n_classes=2)
        fractions = [t.n_oob / n for t in fitted.trees]
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
        stump_forest = forest.ForestModel(
            trees=[make_stump()], feature_config=forest.FeatureConfig(),
            n_classes=2, seed=0,
        )
        assert forest.count_nodes(stump_forest) == 3

    def test_hundred_stumps(self):
        stump_forest = forest.ForestModel(
            trees=[make_stump() for _ in range(100)],
            feature_config=forest.FeatureConfig(), n_classes=2, seed=0,
        )
        assert forest.count_nodes(stump_forest) == 300

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
        for ta, tb in zip(fitted.trees, restored.trees):
            np.testing.assert_array_equal(ta.feature, tb.feature)
            np.testing.assert_array_equal(ta.threshold, tb.threshold)
            np.testing.assert_array_equal(ta.counts, tb.counts)
            assert ta.n_oob == tb.n_oob
        np.testing.assert_array_equal(
            fitted.predict_batch(x), restored.predict_batch(x)
        )

    def test_file_round_trip(self, tmp_path):
        x = np.array([[0.0], [1.0], [2.0]])
        y = np.array([0, 1, 1])
        fitted = forest.fit_forest(x, y, n_trees=3, seed=0, n_classes=2)
        path = tmp_path / "forest.frst"
        forest.save_forest(fitted, str(path))
        restored = forest.load_forest(str(path))
        np.testing.assert_array_equal(
            fitted.predict_batch(x), restored.predict_batch(x)
        )

    @pytest.mark.parametrize(
        "name, edit",
        [
            ("left", lambda a: np.where(np.arange(a.size) == 0, 0, a)),
            ("right", lambda a: np.where(a > 0, a.size, a)),
            ("counts", lambda a: a[:, :-1]),
            ("counts", lambda a: a.astype(np.float64)),
            ("feature", lambda a: a.astype(np.float64)),
            ("threshold", lambda a: a[:-1]),
        ],
        ids=["child-points-back", "child-past-end", "counts-shape", "counts-dtype",
             "feature-dtype", "threshold-shape"],
    )
    def test_malformed_tree_is_container_error(self, name, edit):
        x = np.arange(6, dtype=np.float64)[:, None]
        fitted = forest.fit_forest(x, np.array([0, 1, 2, 0, 1, 2]), n_trees=1, seed=0)
        parsed = container.read_container(forest.serialize(fitted), forest.MAGIC)
        assert parsed.arrays["tree0.feature"][0] >= 0  # the root must be internal
        arrays = dict(parsed.arrays)
        arrays[f"tree0.{name}"] = edit(arrays[f"tree0.{name}"])
        blob = container.write_container(forest.MAGIC, parsed.config, None, list(arrays.items()))
        with pytest.raises(container.ContainerError, match="tree 0"):
            forest.deserialize(blob)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda cfg: {},
            lambda cfg: {k: v for k, v in cfg.items() if k != "seed"},
            lambda cfg: {**cfg, "n_trees": "2"},
            lambda cfg: {**cfg, "n_trees": 1.5},
            lambda cfg: {**cfg, "oob": cfg["oob"][:1]},
        ],
        ids=["empty-config", "missing-seed", "n-trees-string", "n-trees-float", "oob-short"],
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
