"""Tests for the grid rasterizer and the 2-D CNN baseline."""

import math

import numpy as np
import pytest

from deepreflecs import container, gridcnn, nn
from deepreflecs.preprocess import ObjectPose, ObjectSample, Reflection


def sample_at(points, pose=ObjectPose(0, 0, 0), rcs=None, vr=None):
    """points: object-frame coordinates when pose is the identity."""
    rcs = rcs or [1.0] * len(points)
    vr = vr or [0.0] * len(points)
    return ObjectSample(
        track_id="t",
        class_label="car",
        pose=pose,
        reflections=[
            Reflection(x=p[0], y=p[1], rcs=c, range_m=math.hypot(*p), vr=v, azimuth=0.0)
            for p, c, v in zip(points, rcs, vr)
        ],
    )


class TestRasterize:
    def test_center_reflection_hits_center_cell(self):
        grid = gridcnn.rasterize(sample_at([(0.0, 0.0)], rcs=[4.5], vr=[-0.5]))
        assert grid.occupancy[5, 5] == 1
        assert grid.occupancy.sum() == 1
        assert grid.cells[5, 5, 0] == pytest.approx(4.5)
        assert grid.cells[5, 5, 1] == pytest.approx(-0.5)

    def test_edge_coordinate_column_index(self):
        assert gridcnn.cell_index(1.9) == 10
        grid = gridcnn.rasterize(sample_at([(1.9, 0.0)]))
        assert grid.occupancy[5, 10] == 1

    def test_out_of_window_dropped(self):
        grid = gridcnn.rasterize(sample_at([(2.5, 0.0)]))
        assert grid.occupancy.sum() == 0
        np.testing.assert_array_equal(grid.cells, 0.0)

    def test_boundary_exactly_two_meters_dropped(self):
        grid = gridcnn.rasterize(sample_at([(2.0, 0.0)]))
        assert grid.occupancy.sum() == 0

    def test_rcs_sums_and_vr_means(self):
        grid = gridcnn.rasterize(
            sample_at([(0.0, 0.0), (0.05, 0.05)], rcs=[1.0, 2.0], vr=[1.0, 2.0])
        )
        assert grid.occupancy[5, 5] == 2
        assert grid.cells[5, 5, 0] == pytest.approx(3.0)   # sum
        assert grid.cells[5, 5, 1] == pytest.approx(1.5)   # mean

    def test_empty_cells_zero_velocity(self):
        grid = gridcnn.rasterize(sample_at([(0.0, 0.0)], vr=[5.0]))
        assert grid.cells[0, 0, 1] == 0.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        points = [tuple(p) for p in rng.uniform(-1.9, 1.9, size=(30, 2))]
        rcs = list(rng.normal(size=30))
        vr = list(rng.normal(size=30))
        a = gridcnn.rasterize(sample_at(points, rcs=rcs, vr=vr))
        order = rng.permutation(30)
        b = gridcnn.rasterize(
            sample_at(
                [points[i] for i in order],
                rcs=[rcs[i] for i in order],
                vr=[vr[i] for i in order],
            )
        )
        np.testing.assert_allclose(a.cells, b.cells, atol=1e-12)
        np.testing.assert_array_equal(a.occupancy, b.occupancy)

    def test_object_frame_used(self):
        pose = ObjectPose(10.0, 0.0, 0.0)
        sample = sample_at([(10.0, 0.0)], pose=pose)
        grid = gridcnn.rasterize(sample)
        assert grid.occupancy[5, 5] == 1


class TestArchitecture:
    def test_total_parameter_count(self):
        assert gridcnn.count_params(gridcnn.build_gridcnn()) == 232628

    def test_conv1_parameter_count(self):
        net = gridcnn.build_gridcnn()
        assert net.conv1.size() == 3 * 3 * 2 * 16 + 16 == 304

    def test_flatten_size(self):
        assert gridcnn.FLAT_SIZE == 1600
        net = gridcnn.build_gridcnn()
        assert net.dense1.weights.shape == (1600, 128)

    def test_same_padding_shape_law(self):
        net = gridcnn.build_gridcnn().astype(np.float64)
        x = np.random.default_rng(0).normal(size=(11, 11, 2))
        out, _ = gridcnn._conv_forward(x, net.conv1)
        assert out.shape == (11, 11, 16)
        pooled, _ = gridcnn._pool_forward(nn.relu(out))
        assert pooled.shape == (5, 5, 16)

    def test_build_deterministic(self):
        a = gridcnn.build_gridcnn(seed=3)
        b = gridcnn.build_gridcnn(seed=3)
        for name, p in a.params().items():
            assert np.array_equal(p, b.params()[name])


class TestConvOracle:
    def test_against_direct_convolution(self):
        # independent oracle: quadruple loop over output positions and taps
        rng = np.random.default_rng(1)
        x = rng.normal(size=(5, 5, 2))
        w = rng.normal(size=(3, 3, 2, 4))
        b = rng.normal(size=4)
        padded = np.pad(x, ((1, 1), (1, 1), (0, 0)))
        expected = np.zeros((5, 5, 4))
        for i in range(5):
            for j in range(5):
                for o in range(4):
                    acc = 0.0
                    for ki in range(3):
                        for kj in range(3):
                            for c in range(2):
                                acc += padded[i + ki, j + kj, c] * w[ki, kj, c, o]
                    expected[i, j, o] = acc + b[o]
        h, w_ = x.shape[:2]
        cols = gridcnn._im2col(x)
        out = (cols @ w.reshape(18, 4) + b).reshape(h, w_, 4)
        np.testing.assert_allclose(out, expected, atol=1e-12)


class TestForwardAndTraining:
    def test_inference_deterministic(self):
        net = gridcnn.build_gridcnn(seed=1)
        rng = np.random.default_rng(2)
        grid = gridcnn.Grid(
            cells=rng.normal(size=(11, 11, 2)),
            occupancy=np.ones((11, 11), dtype=np.int64),
        )
        a = gridcnn.forward(net, grid).probabilities
        b = gridcnn.forward(net, grid).probabilities
        assert np.array_equal(a, b)

    def test_zero_grid_zero_model_uniform(self):
        net = gridcnn.build_gridcnn(seed=0)
        for p in net.params().values():
            p[...] = 0.0
        grid = gridcnn.Grid(
            cells=np.zeros((11, 11, 2)), occupancy=np.zeros((11, 11), dtype=np.int64)
        )
        out = gridcnn.forward(net, grid)
        np.testing.assert_allclose(out.probabilities, [0.25] * 4, atol=1e-15)

    def test_gradcheck_end_to_end(self):
        report = gridcnn.gradcheck_random_sample(seed=0, max_checks_per_tensor=32)
        assert report.max_relative_error < 1e-4

    def test_training_reduces_loss(self):
        net = gridcnn.build_gridcnn(seed=4)
        rng = np.random.default_rng(5)
        grids = [
            gridcnn.Grid(
                cells=rng.normal(loc=float(label), size=(11, 11, 2)),
                occupancy=np.ones((11, 11), dtype=np.int64),
            )
            for label in (0, 1, 2, 3)
        ]
        labels = [0, 1, 2, 3]

        def inference_loss():
            return sum(
                nn.cross_entropy(gridcnn.forward(net, g).probabilities, y)
                for g, y in zip(grids, labels)
            ) / len(grids)

        before = inference_loss()
        state = None
        for _ in range(60):
            _, state = gridcnn.train_step(net, grids, labels, 0.005, state, rng=rng)
        after = inference_loss()
        assert after < before * 0.2
        assert all(
            gridcnn.forward(net, g).predicted == y for g, y in zip(grids, labels)
        )

    def test_dropout_only_in_training(self):
        net = gridcnn.build_gridcnn(seed=6)
        rng = np.random.default_rng(7)
        grid = gridcnn.Grid(
            cells=rng.normal(size=(11, 11, 2)),
            occupancy=np.ones((11, 11), dtype=np.int64),
        )
        wide = net.astype(np.float64)
        train_a = gridcnn._forward_cache(wide, grid, training=True, rng=np.random.default_rng(1))
        train_b = gridcnn._forward_cache(wide, grid, training=True, rng=np.random.default_rng(2))
        assert not np.array_equal(train_a["probs"], train_b["probs"])
        with pytest.raises(ValueError):
            gridcnn._forward_cache(wide, grid, training=True, rng=None)


class TestGridCnnSerialization:
    def test_round_trip_bitwise(self):
        net = gridcnn.build_gridcnn(seed=8)
        net.channel_means = np.array([1.5, -0.25])
        net.channel_stds = np.array([3.0, 0.5])
        restored = gridcnn.deserialize(gridcnn.serialize(net))
        for name, p in net.params().items():
            assert np.array_equal(p, restored.params()[name])
        np.testing.assert_array_equal(restored.channel_means, net.channel_means)
        np.testing.assert_array_equal(restored.channel_stds, net.channel_stds)
        assert restored.dropout == net.dropout

    @pytest.mark.parametrize(
        "config", [{"dropout": 0.5, "n_classes": 4, "bogus": 1}, [0.5, 4]],
        ids=["unknown-key", "json-list"],
    )
    def test_bad_config_is_container_error(self, config):
        parsed = container.read_container(
            gridcnn.serialize(gridcnn.build_gridcnn()), gridcnn.MAGIC
        )
        blob = container.write_container(
            gridcnn.MAGIC, config, (parsed.norm_means, parsed.norm_stds),
            list(parsed.arrays.items()),
        )
        with pytest.raises(container.ContainerError):
            gridcnn.deserialize(blob)

    def test_distinct_magic(self):
        from deepreflecs import model as reflectnet

        blob = gridcnn.serialize(gridcnn.build_gridcnn())
        assert blob[:4] == b"GCNN"
        with pytest.raises(container.MagicError):
            reflectnet.deserialize(blob)
