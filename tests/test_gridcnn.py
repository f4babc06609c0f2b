"""Tests for the grid rasterizer and the 2-D CNN baseline."""

import math
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from deepreflecs import container, datagen, gridcnn, nn
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
        x = np.random.default_rng(0).normal(size=(3, 11, 11, 2))
        out, cols = gridcnn._conv(x, net.conv1)
        assert out.shape == (3, 11, 11, 16)
        assert cols.shape == (3 * 11 * 11, 9 * 2)
        pooled = gridcnn._pool(nn.relu(out))
        assert pooled.shape == (3, 5, 5, 16)

    def test_build_deterministic(self):
        a = gridcnn.build_gridcnn(seed=3)
        b = gridcnn.build_gridcnn(seed=3)
        for name, p in a.params().items():
            assert np.array_equal(p, b.params()[name])


def direct_convolution(x, w, b):
    """Independent oracle: a loop over output positions and taps of one grid."""
    h, w_, cin = x.shape
    padded = np.pad(x, ((1, 1), (1, 1), (0, 0)))
    out = np.zeros((h, w_, w.shape[3]))
    for i in range(h):
        for j in range(w_):
            for o in range(w.shape[3]):
                acc = 0.0
                for ki in range(3):
                    for kj in range(3):
                        for c in range(cin):
                            acc += padded[i + ki, j + kj, c] * w[ki, kj, c, o]
                out[i, j, o] = acc + b[o]
    return out


class TestConvOracle:
    def test_against_direct_convolution(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(3, 5, 5, 2))
        params = gridcnn.ConvParams(rng.normal(size=(3, 3, 2, 4)), rng.normal(size=4))
        out, _ = gridcnn._conv(x, params)
        for k in range(3):
            np.testing.assert_allclose(
                out[k], direct_convolution(x[k], params.weights, params.bias), atol=1e-12
            )

    def test_input_gradient_is_the_adjoint(self):
        # with zero bias the convolution is linear, so <conv(x), g> = <x, dL/dx>
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 11, 11, 3))
        g = rng.normal(size=(2, 11, 11, 5))
        params = gridcnn.ConvParams(rng.normal(size=(3, 3, 3, 5)), np.zeros(5))
        out, cols = gridcnn._conv(x, params)
        grad_x, grad_w, grad_b = gridcnn._conv_grads(cols, params, g)
        assert grad_x.shape == x.shape
        assert np.sum(out * g) == pytest.approx(np.sum(x * grad_x), rel=1e-12)
        np.testing.assert_allclose(grad_b, g.sum(axis=(0, 1, 2)), rtol=1e-12)
        # dL/dw is linear in x as well: <dL/dw, w> = <conv(x), g>
        assert np.sum(grad_w * params.weights) == pytest.approx(np.sum(out * g), rel=1e-12)
        assert gridcnn._conv_grads(cols, params, g, need_input_grad=False)[0] is None


def sliding_window_patches(x):
    """Oracle im2col: one copy of a transposed 3x3 sliding-window view."""
    b, h, w, c = x.shape
    padded = np.zeros((b, h + 2, w + 2, c), dtype=x.dtype)
    padded[:, 1 : h + 1, 1 : w + 1] = x
    windows = sliding_window_view(padded, (3, 3), axis=(1, 2))  # (B, H, W, C, 3, 3)
    return windows.transpose(0, 1, 2, 4, 5, 3).reshape(b * h * w, 9 * c)


class TestPatches:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("c", [1, 2, 16, 64])
    @pytest.mark.parametrize("hw", [(1, 1), (3, 7), (5, 5), (11, 11)])
    @pytest.mark.parametrize("b", [1, 4])
    def test_bitwise_equal_to_sliding_window_oracle(self, b, hw, c, dtype):
        rng = np.random.default_rng([b, *hw, c])
        x = rng.normal(size=(b, *hw, c)).astype(dtype)
        got = gridcnn._patches(x)
        expected = sliding_window_patches(x)
        assert got.dtype == dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    def test_tap_index_is_cached_and_read_only(self):
        index = gridcnn._tap_index(11, 11)
        assert gridcnn._tap_index(11, 11) is index
        assert index.shape == (11 * 11 * 9,) and not index.flags.writeable
        with pytest.raises(ValueError):
            index[0] = 1


def desk_grids(n=17):
    samples = datagen.generate_dataset(datagen.desk_genspec(seed=0))[:n]
    return [gridcnn.rasterize(s) for s in samples], [s.class_index for s in samples]


class TestPatchesInTheNetwork:
    """Every network output is bitwise the same with the oracle im2col."""

    @pytest.fixture(scope="class")
    def desk(self):
        grids, labels = desk_grids()
        net = gridcnn.build_gridcnn(seed=0)
        gridcnn.set_channel_stats(net, grids)
        return net, grids, labels

    def both(self, monkeypatch, run):
        """run() with the cached-index _patches, then with the oracle."""
        got = run()
        with monkeypatch.context() as patched:
            patched.setattr(gridcnn, "_patches", sliding_window_patches)
            expected = run()
        return got, expected

    @pytest.mark.parametrize("training", [False, True])
    def test_forward_grids(self, desk, monkeypatch, training):
        net, grids, _ = desk
        x = gridcnn._stack(net, grids)
        got, expected = self.both(monkeypatch, lambda: gridcnn.forward_grids(
            net, x, training=training, rng=np.random.default_rng(0)
        ))
        assert got.tobytes() == expected.tobytes()

    def test_predict_batch(self, desk, monkeypatch):
        net, grids, _ = desk
        got, expected = self.both(monkeypatch, lambda: np.stack(
            [d.probabilities for d in gridcnn.predict_batch(net, grids)]
        ))
        assert got.tobytes() == expected.tobytes()

    def test_loss_and_grads(self, desk, monkeypatch):
        net, grids, labels = desk
        (loss, grads), (expected_loss, expected_grads) = self.both(
            monkeypatch,
            lambda: gridcnn.loss_and_grads(net, grids, labels, rng=np.random.default_rng(0)),
        )
        assert loss == expected_loss
        assert grads.keys() == expected_grads.keys()
        for name, g in grads.items():
            assert g.tobytes() == expected_grads[name].tobytes(), name


def window_argmax_oracle(x):
    """2x2 pool by an argmax over each flattened window, one window at a time."""
    b, _, _, c = x.shape
    pooled = np.zeros((b, 5, 5, c), dtype=x.dtype)
    winner = np.zeros((b, 5, 5, c, 2), dtype=np.intp)
    for k in range(b):
        for i in range(5):
            for j in range(5):
                for ch in range(c):
                    window = x[k, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2, ch].reshape(-1)
                    first = int(np.argmax(window))  # lowest flat index among ties
                    pooled[k, i, j, ch] = window[first]
                    winner[k, i, j, ch] = (2 * i + first // 2, 2 * j + first % 2)
    return pooled, winner


class TestPool:
    @pytest.mark.parametrize("seed", range(4))
    def test_first_winner_on_ties(self, seed):
        # values in {0, 1, 2} make ties within most windows
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 3, size=(3, 11, 11, 4)).astype(np.float64)
        grad_out = rng.normal(size=(3, 5, 5, 4))
        pooled = gridcnn._pool(x)
        expected, winner = window_argmax_oracle(x)
        np.testing.assert_array_equal(pooled, expected)
        expected_grad = np.zeros_like(x)
        for k, i, j, ch in np.ndindex(grad_out.shape):
            r, c = winner[k, i, j, ch]
            expected_grad[k, r, c, ch] = grad_out[k, i, j, ch]
        np.testing.assert_array_equal(gridcnn._pool_grads(x, pooled, grad_out), expected_grad)

    def test_last_row_and_column_get_no_gradient(self):
        x = np.ones((1, 11, 11, 2))
        grad = gridcnn._pool_grads(x, gridcnn._pool(x), np.ones((1, 5, 5, 2)))
        assert grad[:, 10].sum() == 0 and grad[:, :, 10].sum() == 0
        assert grad.sum() == 5 * 5 * 2  # exactly one winner per window


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
        x = gridcnn._stack(wide, [grid, grid])
        train_a = gridcnn.forward_grids(wide, x, training=True, rng=np.random.default_rng(1))
        train_b = gridcnn.forward_grids(wide, x, training=True, rng=np.random.default_rng(2))
        assert not np.array_equal(train_a, train_b)
        assert not np.array_equal(train_a[0], train_a[1])  # each grid has its own masks
        infer = gridcnn.forward_grids(wide, x)
        np.testing.assert_array_equal(infer[0], infer[1])
        np.testing.assert_allclose(
            infer[0], gridcnn.forward(wide, grid).probabilities, rtol=1e-12
        )
        with pytest.raises(ValueError):
            gridcnn.forward_grids(wide, x, training=True, rng=None)


def random_grids(n, seed):
    rng = np.random.default_rng(seed)
    grids = [
        gridcnn.Grid(
            cells=rng.normal(size=(11, 11, 2)), occupancy=np.ones((11, 11), dtype=np.int64)
        )
        for _ in range(n)
    ]
    return grids, rng.integers(0, 4, size=n)


class TestBatched:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 9, 17])  # 9 and 17 span chunks
    def test_loss_and_grads_match_mean_of_single_grids(self, n, dtype):
        net = gridcnn.build_gridcnn(seed=n).astype(dtype)
        net.dropout = 0.3
        grids, labels = random_grids(n, seed=100 + n)
        loss, grads = gridcnn.loss_and_grads(
            net, grids, labels, rng=np.random.default_rng(n)
        )
        # one generator drawn grid by grid gives the same dropout masks
        rng = np.random.default_rng(n)
        singles = [gridcnn.loss_and_grads(net, [g], [y], rng=rng) for g, y in zip(grids, labels)]
        tol = 1e-5 if dtype == np.float32 else 1e-10
        assert loss == pytest.approx(np.mean([l for l, _ in singles]), rel=tol)
        for name, g in grads.items():
            assert g.dtype == dtype
            expected = np.mean([s[name] for _, s in singles], axis=0)
            np.testing.assert_allclose(
                g, expected, rtol=tol, atol=tol * np.abs(expected).max(), err_msg=name
            )

    def test_gradcheck_three_grid_batch(self):
        net = gridcnn.build_gridcnn(seed=2)
        rng = np.random.default_rng(3)
        grids, labels = zip(*(gridcnn.random_safe_grid(net, rng) for _ in range(3)))
        report = gridcnn.gradcheck(net, grids, labels, max_checks_per_tensor=24, seed=1)
        assert len(report.per_parameter_errors) == 24 * 10 + 16 + 4  # conv1/head bias whole
        assert report.max_relative_error < 1e-4

    @pytest.mark.parametrize("n", [1, 8, 19])
    def test_predict_batch_matches_forward(self, n):
        net = gridcnn.build_gridcnn(seed=9)
        grids, _ = random_grids(n, seed=n)
        batched = net.predict_batch(grids)
        assert len(batched) == n
        for grid, dist in zip(grids, batched):
            single = gridcnn.forward(net, grid)
            assert dist.predicted == single.predicted
            np.testing.assert_allclose(dist.probabilities, single.probabilities, atol=1e-6)

    def test_predict_batch_of_nothing(self):
        assert gridcnn.predict_batch(gridcnn.build_gridcnn(), []) == []

    def test_peak_allocation_of_a_batch_64_step(self):
        # chunks of 4 peak at 3.8 MB, chunks of 8 at 5.7 MB, the whole batch at
        # once at 31 MB; every MB here raises the process's peak RSS
        samples = datagen.generate_dataset(datagen.desk_genspec(seed=0))[:64]
        grids = [gridcnn.rasterize(s) for s in samples]
        net = gridcnn.build_gridcnn(seed=0)
        gridcnn.set_channel_stats(net, grids)
        labels = [s.class_index for s in samples]
        gridcnn.loss_and_grads(net, grids, labels, rng=np.random.default_rng(0))  # warm
        tracemalloc.start()
        try:
            gridcnn.loss_and_grads(net, grids, labels, rng=np.random.default_rng(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20


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
        "config",
        [
            {"dropout": 0.5, "n_classes": 4, "bogus": 1}, [0.5, 4],
            {"dropout": "x", "n_classes": 4}, {"dropout": 1.5, "n_classes": 4},
            {"dropout": 0.5, "n_classes": 7},
        ],
        ids=["unknown-key", "json-list", "dropout-string", "dropout-above-one",
             "n-classes-7"],
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

    @pytest.mark.parametrize(
        "edit",
        [
            lambda parsed: (None, parsed.arrays),
            lambda parsed: ((parsed.norm_means, np.array([1.0, 0.0])), parsed.arrays),
            lambda parsed: (
                (parsed.norm_means, parsed.norm_stds),
                {**parsed.arrays, "dense1.weights": np.full((1600, 128), np.nan, np.float32)},
            ),
        ],
        ids=["no-norm-stats", "zero-channel-std", "nan-weight"],
    )
    def test_bad_blocks_are_container_error(self, edit):
        parsed = container.read_container(
            gridcnn.serialize(gridcnn.build_gridcnn()), gridcnn.MAGIC
        )
        norm_stats, arrays = edit(parsed)
        blob = container.write_container(
            gridcnn.MAGIC, parsed.config, norm_stats, list(arrays.items())
        )
        with pytest.raises(container.ContainerError):
            gridcnn.deserialize(blob)

    def test_distinct_magic(self):
        from deepreflecs import model as reflectnet

        blob = gridcnn.serialize(gridcnn.build_gridcnn())
        assert blob[:4] == b"GCNN"
        with pytest.raises(container.MagicError):
            reflectnet.deserialize(blob)
