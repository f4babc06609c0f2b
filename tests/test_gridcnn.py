"""Tests for the grid rasterizer and the 2-D CNN baseline."""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from hypothesis import given, settings
from hypothesis import strategies as st

from deepreflecs import container, datagen, evaluate, gridcnn, nn, preprocess, trainer
from deepreflecs.preprocess import NormStats, ObjectPose, ObjectSample, Reflection
import oracles
from oracles import to_object_frame


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

    @pytest.mark.parametrize("far", [1.7e308, math.nan])
    def test_coordinate_past_float_range_dropped(self, far):
        # at heading pi/4 the object-frame x of (far, far) overflows to inf
        pose = ObjectPose(1.0, 1.0, math.pi / 4)
        kept = [Reflection(1.2, 0.9, 2.0, 1.5, 0.5, 0.0), Reflection(0.5, 1.5, 3.0, 1.6, -0.5, 0.0)]
        lost = Reflection(far, far, 1.0, 1.0, 0.0, 0.0)
        with_lost = gridcnn.rasterize(ObjectSample("t", "car", pose, [kept[0], lost, kept[1]]))
        without = gridcnn.rasterize(ObjectSample("t", "car", pose, kept))
        assert with_lost.cells.tobytes() == without.cells.tobytes()
        assert np.array_equal(with_lost.occupancy, without.occupancy)
        assert without.occupancy.sum() == 2

    def test_object_frame_used(self):
        pose = ObjectPose(10.0, 0.0, 0.0)
        sample = sample_at([(10.0, 0.0)], pose=pose)
        grid = gridcnn.rasterize(sample)
        assert grid.occupancy[5, 5] == 1


def oracle_grid(sample):
    """(cells, occupancy) binned one reflection at a time through to_object_frame."""
    cells = np.zeros((gridcnn.GRID_CELLS, gridcnn.GRID_CELLS, 2))
    vr_sum = np.zeros((gridcnn.GRID_CELLS, gridcnn.GRID_CELLS))
    occupancy = np.zeros((gridcnn.GRID_CELLS, gridcnn.GRID_CELLS), dtype=np.int64)
    for refl in sample.reflections:
        ix, iy = map(gridcnn.cell_index, to_object_frame(refl, sample.pose))
        if 0 <= ix < gridcnn.GRID_CELLS and 0 <= iy < gridcnn.GRID_CELLS:
            cells[iy, ix, 0] += refl.rcs
            vr_sum[iy, ix] += refl.vr
            occupancy[iy, ix] += 1
    occupied = occupancy > 0
    cells[:, :, 1][occupied] = vr_sum[occupied] / occupancy[occupied]
    return cells, occupancy


def assert_rasterized_as_the_oracle(sample):
    grid = gridcnn.rasterize(sample)
    cells, occupancy = oracle_grid(sample)
    assert grid.cells.dtype == cells.dtype and grid.cells.tobytes() == cells.tobytes()
    assert grid.occupancy.dtype == occupancy.dtype
    assert np.array_equal(grid.occupancy, occupancy)


class TestRasterizeOracle:
    """rasterize against binning each reflection through to_object_frame, bit for bit."""

    def test_desk_objects(self):
        samples = datagen.generate_dataset(datagen.desk_genspec(seed=0))
        assert len(samples) == 1407
        for sample in samples:
            assert_rasterized_as_the_oracle(sample)

    @given(
        heading=st.floats(-7.0, 7.0),
        position=st.tuples(st.floats(-100, 100), st.floats(-100, 100)),
        offsets=st.lists(st.tuples(st.floats(-3, 3), st.floats(-3, 3)), min_size=1, max_size=40),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_random_objects(self, heading, position, offsets, seed):
        # reflections within 3 m of the object: some land outside the 2 m window
        rng = np.random.default_rng(seed)
        rcs, vr = rng.normal(size=(2, len(offsets)))
        sample = sample_at(
            [(position[0] + dx, position[1] + dy) for dx, dy in offsets],
            pose=ObjectPose(*position, heading), rcs=rcs.tolist(), vr=vr.tolist(),
        )
        assert_rasterized_as_the_oracle(sample)


# object-frame coordinates of every cell edge of one axis, 2.0 (outside) included
CELL_EDGES = [-2.0] + [k * gridcnn.CELL_SIZE - 2.0 for k in range(1, 11)] + [2.0]


def edge_object(case):
    """Objects whose grids a per-cell accumulator could get wrong."""
    rng = np.random.default_rng(list(map(ord, case)))
    if case == "negative-zero-alone-in-a-cell":
        # a zeroed cell gives 0.0 + -0.0 = 0.0 in both channels
        return sample_at([(0.0, 0.0), (1.0, 1.0), (1.02, 1.02)],
                         rcs=[-0.0, 2.0, -0.0], vr=[-0.0, 0.5, -0.0])
    if case == "cell-edges":
        points = [(e, 0.0) for e in CELL_EDGES] + [(0.0, e) for e in CELL_EDGES]
        points += [(e, e) for e in CELL_EDGES]
        return sample_at(points, rcs=rng.normal(size=len(points)).tolist(),
                         vr=rng.normal(size=len(points)).tolist())
    if case == "fifty-in-one-cell":
        points = [tuple(p) for p in rng.uniform(-0.15, 0.15, size=(50, 2))]
        assert {tuple(map(gridcnn.cell_index, p)) for p in points} == {(5, 5)}
        return sample_at(points, rcs=rng.normal(size=50).tolist(),
                         vr=rng.normal(size=50).tolist())
    if case == "all-outside":
        points = [(2.0, 0.0), (-2.5, 0.0), (0.0, 2.0), (0.0, -2.01), (3.0, 3.0)]
        return sample_at(points, rcs=[1.0] * 5, vr=[0.5] * 5)
    assert case == "single"
    return sample_at([(-0.7, 1.3)], rcs=[3.25], vr=[-1.5])


class TestRasterizeEdgeObjects:
    @pytest.mark.parametrize("case", [
        "negative-zero-alone-in-a-cell", "cell-edges", "fifty-in-one-cell", "all-outside",
        "single",
    ])
    def test_bitwise_as_the_oracle(self, case):
        assert_rasterized_as_the_oracle(edge_object(case))

    def test_the_edge_objects_are_what_they_name(self):
        grid = gridcnn.rasterize(edge_object("negative-zero-alone-in-a-cell"))
        assert grid.occupancy[5, 5] == 1 and grid.occupancy.sum() == 3
        assert not np.signbit(grid.cells).any()
        # eleven edges of each of the three lines land inside, 2.0 does not
        assert gridcnn.rasterize(edge_object("cell-edges")).occupancy.sum() == 3 * 11
        assert gridcnn.rasterize(edge_object("fifty-in-one-cell")).occupancy[5, 5] == 50
        outside = gridcnn.rasterize(edge_object("all-outside"))
        assert outside.occupancy.sum() == 0 and not outside.cells.any()


def test_overflowing_channel_stats_are_dataset_error():
    grids = [gridcnn.rasterize(sample_at([(0.0, 0.0)], rcs=[rcs])) for rcs in (1e200, 0.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(preprocess.DatasetError, match="column 0"):
            gridcnn.set_channel_stats(gridcnn.build_gridcnn(seed=0), grids)


def test_channel_stats_of_no_grids_are_dataset_error():
    with pytest.raises(preprocess.DatasetError, match="empty set of grids"):
        gridcnn.set_channel_stats(gridcnn.build_gridcnn(seed=0), [])


class TestArchitecture:
    def test_total_parameter_count(self):
        assert gridcnn.build_gridcnn().vector.size == 232628

    def test_conv1_parameter_count(self):
        net = gridcnn.build_gridcnn()
        assert net.conv1.weights.size + net.conv1.bias.size == 3 * 3 * 2 * 16 + 16 == 304

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
        # x fills the top-left 5x5 cells of an 11x11 grid that is zero elsewhere
        rng = np.random.default_rng(1)
        x = rng.normal(size=(3, 5, 5, 2))
        params = nn.LinearParams(rng.normal(size=(3, 3, 2, 4)), rng.normal(size=4))
        out, _ = gridcnn._conv(x, params)
        assert out.shape == (3, 11, 11, 4)
        grids = np.zeros((3, 11, 11, 2))
        grids[:, :5, :5] = x
        for k in range(3):
            np.testing.assert_allclose(
                out[k], direct_convolution(grids[k], params.weights, params.bias), atol=1e-12
            )

    def test_input_gradient_is_the_adjoint(self):
        # with zero bias the convolution is linear, so <conv(x), g> = <x, dL/dx>
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 11, 11, 3))
        g = rng.normal(size=(2, 11, 11, 5))
        params = nn.LinearParams(rng.normal(size=(3, 3, 3, 5)), np.zeros(5))
        out, cols = gridcnn._conv(x, params)
        operands = cols.tobytes(), g.tobytes()
        part, grad_x = gridcnn._conv_grads(cols, g, gridcnn._flipped(params))
        assert grad_x.shape == x.shape
        assert np.sum(out * g) == pytest.approx(np.sum(x * grad_x), rel=1e-12)
        np.testing.assert_allclose(part.bias, g.sum(axis=(0, 1, 2)), rtol=1e-12)
        # dL/dw is linear in x as well: <dL/dw, w> = <conv(x), g>
        assert np.sum(part.weights * params.weights) == pytest.approx(np.sum(out * g), rel=1e-12)
        # it writes into nothing it is given: a second call, without flipped,
        # returns the same kernel and bias gradients and no input gradient
        assert (cols.tobytes(), g.tobytes()) == operands
        again, no_input_grad = gridcnn._conv_grads(cols, g)
        assert no_input_grad is None
        assert again.weights.tobytes() == part.weights.tobytes()
        assert again.bias.tobytes() == part.bias.tobytes()

    def test_read_cells_are_the_full_convolution_and_their_gradient_its_adjoint(self):
        # conv3 runs at the top-left 10x10 cells of an 11x11 grid only
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 11, 11, 3))
        g = rng.normal(size=(2, 10, 10, 5))
        params = nn.LinearParams(rng.normal(size=(3, 3, 3, 5)), np.zeros(5))
        out, cols = gridcnn._conv(x, params, cells=10)
        assert out.shape == (2, 10, 10, 5) and cols.shape == (2 * 10 * 10, 9 * 3)
        np.testing.assert_allclose(out, gridcnn._conv(x, params)[0][:, :10, :10], rtol=1e-12)
        part, grad_x = gridcnn._conv_grads(cols, g, gridcnn._flipped(params))
        assert grad_x.shape == x.shape
        assert np.sum(out * g) == pytest.approx(np.sum(x * grad_x), rel=1e-12)
        assert np.sum(part.weights * params.weights) == pytest.approx(np.sum(out * g), rel=1e-12)
        # the same as the full-grid backward of g with an 11th row and column of zeros
        full_g = np.zeros((2, 11, 11, 5))
        full_g[:, :10, :10] = g
        full, expected_x = gridcnn._conv_grads(
            gridcnn._conv(x, params)[1], full_g, gridcnn._flipped(params)
        )
        np.testing.assert_allclose(grad_x, expected_x, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(part.weights, full.weights, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(part.bias, full.bias, rtol=1e-12)


def sliding_window_patches(x, cells=11):
    """Oracle im2col: one copy of a transposed 3x3 sliding-window view.

    x is the top-left corner of an 11x11 grid that is zero elsewhere; the
    patches are those of the output cells [:cells, :cells].
    """
    b, h, w, c = x.shape
    padded = np.zeros((b, 13, 13, c), dtype=x.dtype)
    padded[:, 1 : h + 1, 1 : w + 1] = x
    windows = sliding_window_view(padded, (3, 3), axis=(1, 2))  # (B, 11, 11, C, 3, 3)
    return windows[:, :cells, :cells].transpose(0, 1, 2, 4, 5, 3).reshape(b * cells**2, 9 * c)


class TestPatches:
    """_patches of inputs at the top-left of the 11x11 grid, zero elsewhere."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("c", [1, 2, 16, 64])
    @pytest.mark.parametrize(
        "hw", [(1, 1), (3, 7), (5, 5), (11, 11)], ids=["1x1", "3x7", "5x5", "11x11"]
    )
    @pytest.mark.parametrize("b", [1, 4])
    def test_bitwise_equal_to_sliding_window_oracle(self, b, hw, c, dtype):
        rng = np.random.default_rng([b, *hw, c])
        x = rng.normal(size=(b, *hw, c)).astype(dtype)
        got = gridcnn._patches(x)
        expected = sliding_window_patches(x)
        assert got.dtype == dtype and got.shape == expected.shape == (b * 11 * 11, 9 * c)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "size, cells",
        [((11, 11), 10), ((10, 10), 11), ((3, 4), 10)],
        ids=["conv3-read-cells", "conv3-input-gradient", "corner-at-the-read-cells"],
    )
    def test_read_cells_bitwise_equal_to_the_oracle(self, size, cells, dtype):
        x = np.random.default_rng(list(size)).normal(size=(3, *size, 4)).astype(dtype)
        got = gridcnn._patches(x, cells)
        expected = sliding_window_patches(x, cells)
        assert got.dtype == dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    def test_the_tap_indices_are_two_read_only_constants(self):
        assert sorted(gridcnn._TAPS) == [10, 11]
        for cells, index in gridcnn._TAPS.items():
            assert index.shape == (cells * cells * 9,) and not index.flags.writeable
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
        x = net.stage(grids).cells
        drops = oracles.gridcnn_dropout(net, np.random.default_rng(0), len(x)) if training else None
        got, expected = self.both(monkeypatch, lambda: gridcnn.forward_grids(net, x, drops))
        assert got.tobytes() == expected.tobytes()

    def test_predict_batch(self, desk, monkeypatch):
        net, grids, _ = desk
        got, expected = self.both(monkeypatch, lambda: net.predict_batch(net.stage(grids)))
        assert got.tobytes() == expected.tobytes()

    def test_loss_and_grads(self, desk, monkeypatch):
        net, grids, labels = desk
        (loss, grad), (expected_loss, expected_grad) = self.both(
            monkeypatch,
            lambda: gridcnn.loss_and_grads(
                net, net.stage(grids), labels, rng=np.random.default_rng(0)
            ),
        )
        assert loss == expected_loss
        assert grad.tobytes() == expected_grad.tobytes()


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
        x = rng.integers(0, 3, size=(3, 10, 10, 4)).astype(np.float64)
        grad_out = rng.normal(size=(3, 5, 5, 4))
        pooled = gridcnn._pool(x)
        expected, winner = window_argmax_oracle(x)
        np.testing.assert_array_equal(pooled, expected)
        expected_grad = np.zeros_like(x)
        for k, i, j, ch in np.ndindex(grad_out.shape):
            r, c = winner[k, i, j, ch]
            expected_grad[k, r, c, ch] = grad_out[k, i, j, ch]
        grad = gridcnn._pool_grads(x, pooled, grad_out)
        np.testing.assert_array_equal(grad, expected_grad)
        np.testing.assert_array_equal(
            grad, oracles.first_winner_pool_grads(x, pooled, grad_out)
        )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("seed", range(4))
    def test_untied_windows_equal_the_window_by_window_search(self, seed, dtype):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(4, 10, 10, 8)).astype(dtype)
        grad_out = rng.normal(size=(4, 5, 5, 8)).astype(dtype)
        pooled = gridcnn._pool(x)
        grad = gridcnn._pool_grads(x, pooled, grad_out)
        # equal as numbers: a cell that loses gets grad_out * 0, which may be -0.0
        assert grad.dtype == dtype
        assert np.array_equal(grad, oracles.first_winner_pool_grads(x, pooled, grad_out))

    def test_a_nan_window_beside_a_tied_window(self):
        # the NaN window has no winner and the tied one two, so the winner
        # count alone would match one winner per window
        x = np.arange(4 * 10 * 10, dtype=np.float64).reshape(1, 10, 10, 4)
        x[0, 0, 0, 0] = np.nan
        x[0, 2:4, 2:4, 1] = 1000.0
        grad_out = np.arange(1, 1 + 5 * 5 * 4, dtype=np.float64).reshape(1, 5, 5, 4)
        pooled = gridcnn._pool(x)
        grad = gridcnn._pool_grads(x, pooled, grad_out)
        expected = oracles.first_winner_pool_grads(x, pooled, grad_out)
        np.testing.assert_array_equal(grad, expected)
        assert grad[0, :2, :2, 0].tolist() == [[0, 0], [0, 0]]
        assert grad[0, 2:4, 2:4, 1].tolist() == [[grad_out[0, 1, 1, 1], 0], [0, 0]]

    @pytest.mark.parametrize("seed", range(4))
    def test_tie_margin_of_the_stacked_windows(self, seed):
        # relu of one-decimal values: ties, zero windows and positive gaps
        rng = np.random.default_rng(seed)
        x = np.maximum(np.round(rng.normal(size=(2, 11, 11, 3)), 1), 0)
        windows = np.sort(np.stack(gridcnn._pool_windows(x), axis=-1), axis=-1)
        top1, top2 = windows[..., 3], windows[..., 2]
        expected = (top1 - top2)[top1 > 0].min()
        assert nn._pool_tie_margin(np.stack(gridcnn._pool_windows(x))) == expected
        assert nn._pool_tie_margin(np.stack(gridcnn._pool_windows(0 * x))) == np.inf

    def test_last_row_and_column_are_not_pooled(self):
        x = np.random.default_rng(5).normal(size=(2, 11, 11, 3))
        assert gridcnn._pool(x).tobytes() == gridcnn._pool(x[:, :10, :10]).tobytes()

    def test_exactly_one_winner_per_tied_window(self):
        x = np.ones((1, 10, 10, 2))
        grad = gridcnn._pool_grads(x, gridcnn._pool(x), np.ones((1, 5, 5, 2)))
        assert grad.sum() == 5 * 5 * 2
        assert grad[:, ::2, ::2].sum() == 5 * 5 * 2  # the first offset wins


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
                nn.mean_cross_entropy(gridcnn.forward(net, g).probabilities[None], [y])
                for g, y in zip(grids, labels)
            ) / len(grids)

        before = inference_loss()
        x, state = net.stage(grids), None
        for _ in range(60):
            _, state = gridcnn.train_step(net, x, labels, 0.005, state, rng=rng)
        after = inference_loss()
        assert after < before * 0.2
        assert all(
            gridcnn.forward(net, g).predicted == y for g, y in zip(grids, labels)
        )

    def test_train_step_is_bitwise_per_tensor_adam(self):
        grids, labels = random_grids(6, seed=11)
        net, per_tensor = gridcnn.build_gridcnn(seed=3), gridcnn.build_gridcnn(seed=3)
        rng, per_tensor_rng = np.random.default_rng(4), np.random.default_rng(4)
        state = None
        per_tensor_states = {
            name: nn.AdamState(np.zeros_like(p), np.zeros_like(p))
            for name, p in per_tensor.params().items()
        }
        for step in range(5):
            lr = 0.01 / (step + 1)
            loss, state = gridcnn.train_step(net, net.stage(grids), labels, lr, state, rng=rng)
            expected, grad = gridcnn.loss_and_grads(
                per_tensor, per_tensor.stage(grids), labels, rng=per_tensor_rng
            )
            grads = per_tensor.params(grad)
            for name, p in per_tensor.params().items():
                nn.adam_step(p, grads[name], lr, per_tensor_states[name])
            assert loss == expected
            for name, p in net.params().items():
                assert p.tobytes() == per_tensor.params()[name].tobytes(), (step, name)

    def test_dropout_only_in_training(self):
        net = gridcnn.build_gridcnn(seed=6)
        rng = np.random.default_rng(7)
        grid = gridcnn.Grid(
            cells=rng.normal(size=(11, 11, 2)),
            occupancy=np.ones((11, 11), dtype=np.int64),
        )
        wide = net.astype(np.float64)
        x = wide.stage([grid, grid])
        train_a = gridcnn.forward_grids(wide, x.cells, oracles.gridcnn_dropout(
            wide, np.random.default_rng(1), 2))
        train_b = gridcnn.forward_grids(wide, x.cells, oracles.gridcnn_dropout(
            wide, np.random.default_rng(2), 2))
        assert not np.array_equal(train_a, train_b)
        assert not np.array_equal(train_a[0], train_a[1])  # each grid has its own masks
        infer = gridcnn.forward_grids(wide, x.cells)
        np.testing.assert_array_equal(infer[0], infer[1])
        np.testing.assert_allclose(
            infer[0], gridcnn.forward(wide, grid).probabilities, rtol=1e-12
        )
        # without an rng the loss is the inference loss: no dropout
        loss, _ = gridcnn.loss_and_grads(wide, x, [0, 1])
        assert loss == nn.mean_cross_entropy(infer, np.array([0, 1]))

    def test_train_step_without_rng_has_no_dropout(self):
        grids, labels = random_grids(5, seed=12)
        net = gridcnn.build_gridcnn(seed=8)
        x = net.stage(grids)
        expected, _ = gridcnn.loss_and_grads(net, x, labels)
        loss, _ = gridcnn.train_step(net, x, labels, 0.01, None)
        assert loss == expected


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
        grids, labels = random_grids(n, seed=100 + n)
        loss, grad = gridcnn.loss_and_grads(
            net, net.stage(grids), labels, rng=np.random.default_rng(n)
        )
        # one generator drawn grid by grid gives the same dropout masks
        rng = np.random.default_rng(n)
        singles = [
            gridcnn.loss_and_grads(net, net.stage([g]), [y], rng=rng)
            for g, y in zip(grids, labels)
        ]
        tol = 1e-5 if dtype == np.float32 else 1e-10
        assert loss == pytest.approx(np.mean([l for l, _ in singles]), rel=tol)
        assert grad.dtype == dtype and grad.shape == net.vector.shape
        mean = net.params(np.mean([s for _, s in singles], axis=0))
        for name, g in net.params(grad).items():
            expected = mean[name]
            np.testing.assert_allclose(
                g, expected, rtol=tol, atol=tol * np.abs(expected).max(), err_msg=name
            )

    def test_gradcheck_three_grid_batch(self):
        net = gridcnn.build_gridcnn(seed=2)
        rng = np.random.default_rng(3)
        grids, labels = zip(*(nn.random_safe_sample(net, rng) for _ in range(3)))
        report = nn.gradcheck(
            net, grids, labels, gridcnn.loss_and_grads, max_checks_per_tensor=24, seed=1
        )
        assert len(report.per_parameter_errors) == 24 * 10 + 16 + 4  # conv1/head bias whole
        assert report.max_relative_error < 1e-4

    @pytest.mark.parametrize("n", [1, 8, 19])
    def test_predict_batch_matches_forward(self, n):
        net = gridcnn.build_gridcnn(seed=9)
        grids, _ = random_grids(n, seed=n)
        batched = net.predict_batch(net.stage(grids))
        assert batched.shape == (n, 4) and batched.dtype == np.float64
        for grid, row in zip(grids, batched):
            single = gridcnn.forward(net, grid)
            assert row.argmax() == single.predicted
            np.testing.assert_allclose(row, single.probabilities, atol=1e-6)
        chunks = [gridcnn.forward_grids(net, net.stage(grids[i : i + gridcnn._CHUNK]).cells)
                  for i in range(0, n, gridcnn._CHUNK)]
        assert batched.tobytes() == np.concatenate(chunks).tobytes()

    def test_staging_nothing_is_shape_error(self):
        with pytest.raises(nn.ShapeError, match="empty list"):
            gridcnn.build_gridcnn().stage([])

    def test_one_grid_forward_is_bitwise_the_batch_row_on_every_desk_grid(self, desk_stacks):
        grids, _ = desk_stacks[0]
        net = gridcnn.build_gridcnn(seed=0)
        gridcnn.set_channel_stats(net, grids)
        for grid in grids:
            got = gridcnn.forward(net, grid)
            expected = net.predict_batch(net.stage([grid]))[0]
            assert got.probabilities.tobytes() == expected.tobytes()
            assert got.predicted == int(expected.argmax())


BAD_CELL_SHAPES = [(10, 10, 2), (12, 12, 2), (13, 13, 2), (9, 9, 2), (11, 11, 3), (11, 11)]


class TestGridShapes:
    """A grid whose cells are not (11, 11, 2) is a ShapeError naming it, on every path."""

    def bad_grid(self, shape):
        return gridcnn.Grid(cells=np.ones(shape), occupancy=np.ones(shape[:2], dtype=np.int64))

    @pytest.mark.parametrize("shape", BAD_CELL_SHAPES, ids=str)
    def test_predict(self, shape):
        with pytest.raises(nn.ShapeError, match=rf"grid 0 has cells {re.escape(str(shape))}"):
            gridcnn.build_gridcnn(seed=0).predict(self.bad_grid(shape))

    @pytest.mark.parametrize("shape", BAD_CELL_SHAPES, ids=str)
    def test_predict_batch_of_a_stack_with_one_bad_grid(self, shape):
        net = gridcnn.build_gridcnn(seed=0)
        grids, _ = random_grids(5, seed=3)
        grids[2] = self.bad_grid(shape)
        with pytest.raises(nn.ShapeError, match=rf"grid 2 has cells {re.escape(str(shape))}"):
            net.predict_batch(net.stage(grids))

    @pytest.mark.parametrize("shape", BAD_CELL_SHAPES, ids=str)
    def test_train_step_with_one_bad_grid(self, shape):
        net = gridcnn.build_gridcnn(seed=0)
        before = net.vector.copy()
        grids, labels = random_grids(6, seed=4)
        grids[5] = self.bad_grid(shape)
        with pytest.raises(nn.ShapeError, match=rf"grid 5 has cells {re.escape(str(shape))}"):
            net.train_step(grids, labels, 0.01, None, rng=np.random.default_rng(0))
        assert net.vector.tobytes() == before.tobytes()

    def test_peak_allocation_of_a_batch_64_step(self):
        # chunks of 4 peak at 3.4 MiB, chunks of 8 at 5.1 MiB, the whole batch
        # at once at 30 MiB; every MiB here raises the process's peak RSS
        net, x, labels = desk_batch_64()
        gridcnn.loss_and_grads(net, x, labels, rng=np.random.default_rng(0))  # warm
        peak = traced_peak(
            lambda: gridcnn.loss_and_grads(net, x, labels, rng=np.random.default_rng(0))
        )
        assert peak < 3.5 * 2**20

    def test_peak_allocation_of_a_steady_batch_64_train_step(self):
        # the optimizer steps the parameter vector in place with the gradient
        # vector loss_and_grads returns, so a whole step allocates little
        # beyond loss_and_grads
        net, x, labels = desk_batch_64()
        rng = np.random.default_rng(0)
        _, state = gridcnn.train_step(net, x, labels, 0.001, None, rng=rng)  # warm
        peak = traced_peak(lambda: gridcnn.train_step(net, x, labels, 0.001, state, rng=rng))
        assert peak < 3.5 * 2**20


def desk_batch_64():
    """A seed-0 net with the channel statistics of 64 desk grids, their staged stack, labels."""
    grids, labels = desk_grids(64)
    net = gridcnn.build_gridcnn(seed=0)
    gridcnn.set_channel_stats(net, grids)
    return net, net.stage(grids), labels


def traced_peak(call):
    """Peak bytes tracemalloc sees allocated during call()."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def desk_stacks():
    """Per seed 0-2: the seed's desk grids and their labels."""
    stacks = {}
    for seed in range(3):
        samples = datagen.generate_dataset(datagen.desk_genspec(seed=seed))
        stacks[seed] = ([gridcnn.rasterize(s) for s in samples],
                        np.array([s.class_index for s in samples]))
    return stacks


def assert_as_the_chunked_oracle(net, x, labels, seed):
    """forward_grids and loss_and_grads against oracles' chunked grid CNN, dropout from seed.

    Probabilities and loss are bitwise equal (NaN where the oracle's are);
    each gradient tensor is within tol of the oracle's, scaled by its
    largest entry, as only the order of the weight-gradient sums changed.
    Returns the loss and gradient.
    """
    for start in range(0, len(x), gridcnn._CHUNK):
        chunk = x.cells[start : start + gridcnn._CHUNK]
        drops = oracles.gridcnn_dropout(net, np.random.default_rng(seed), len(chunk))
        got = gridcnn.forward_grids(net, chunk, drops)
        expected = oracles.gridcnn_forward_grids(net, chunk, rng=np.random.default_rng(seed))
        assert got.tobytes() == expected.tobytes()
    loss, grad = gridcnn.loss_and_grads(net, x, labels, rng=np.random.default_rng(seed))
    expected_loss, expected = oracles.gridcnn_loss_and_grads(
        net, x, labels, rng=np.random.default_rng(seed)
    )
    assert loss == expected_loss or (np.isnan(loss) and np.isnan(expected_loss))
    assert grad.dtype == expected.dtype
    tol = 1e-5 if grad.dtype == np.float32 else 1e-12
    for name, g in net.params(grad).items():
        e = net.params(expected)[name]
        scale = np.nanmax(np.abs(e)) if not np.isnan(e).all() else 0.0
        np.testing.assert_allclose(g, e, rtol=tol, atol=tol * scale, equal_nan=True, err_msg=name)
    return loss, grad


EDGE_STACKS = ["all-zero", "duplicated", "nan-beside-a-tie"]


def edge_stack(desk_stacks, stack, dtype):
    """A seed-3 net with the seed-0 desk channel statistics at dtype, the
    staged edge stack named stack and its labels."""
    grids, _ = desk_stacks[0]
    net = gridcnn.build_gridcnn(seed=3)
    gridcnn.set_channel_stats(net, grids)
    net = net.astype(dtype)
    zero = gridcnn.Grid(np.zeros((11, 11, 2)), np.zeros((11, 11), dtype=np.int64))
    nan = gridcnn.Grid(grids[7].cells.copy(), grids[7].occupancy)
    nan.cells[5, 5, 0] = np.nan
    # empty cells all normalize to one value, so the zero grid's conv3
    # windows tie; the NaN spreads to the NaN grid's cells only
    stack_grids = {
        "all-zero": [zero] * 5,
        "duplicated": [grids[3]] * 6,
        "nan-beside-a-tie": [nan, zero, grids[4]],
    }[stack]
    return net, net.stage(stack_grids), np.arange(len(stack_grids)) % gridcnn.N_CLASSES


class TestAgainstTheChunkedOracle:
    """Pool before the ReLU, conv3 at the 10x10 read cells, dense weight
    products once per batch and weight sums in fixed blocks, against the
    chunked ReLU-then-pool network (oracles.gridcnn_loss_and_grads)."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_desk_batches_fresh_and_after_adam_steps(self, desk_stacks, seed, dtype):
        grids, labels = desk_stacks[seed]
        net = gridcnn.build_gridcnn(seed=seed)
        gridcnn.set_channel_stats(net, grids)
        net = net.astype(dtype)
        staged = net.stage(grids)
        rng = np.random.default_rng(seed)
        opt_state = None
        for step in range(3):  # the first batch meets the fresh network
            draw = rng.integers(0, len(staged), size=64)
            loss, grad = assert_as_the_chunked_oracle(net, staged[draw], labels[draw], step)
            _, opt_state = net.update(loss, grad, 0.003, opt_state)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("stack", EDGE_STACKS)
    def test_edge_stacks(self, desk_stacks, stack, dtype):
        net, x, labels = edge_stack(desk_stacks, stack, dtype)
        assert_as_the_chunked_oracle(net, x, labels, 0)

    def test_desk_grids_tie_in_conv3_windows(self, desk_stacks):
        """Empty cells normalize to one value, so conv3 pre-activations tie
        within windows of grids with an empty margin: on desk data the pool
        backward has to pick first winners, not only single ones."""
        grids, _ = desk_stacks[0]
        net = gridcnn.build_gridcnn(seed=0)
        gridcnn.set_channel_stats(net, grids)
        _, cache = gridcnn.forward_grids(net, net.stage(grids[:64]).cells, keep_cache=True)
        winners = sum(w == cache["m3"] for w in gridcnn._pool_windows(cache["z3"]))
        assert (winners >= 1).all() and (winners > 1).any()

    def test_pool_reorder_alone_keeps_the_model_bytes(self, desk_stacks, monkeypatch):
        """Two epochs of 8 batch-64 steps of the seed-0 desk run train the
        same bytes with the pool before or after conv3's ReLU."""
        samples = datagen.generate_dataset(datagen.desk_genspec(seed=0))
        splits = preprocess.trackwise_split(samples, seed=0)
        config = trainer.TrainConfig(epochs=2, steps_per_epoch=8)
        blobs = []
        for pool_first in (False, True):
            monkeypatch.setattr(
                gridcnn, "loss_and_grads",
                lambda *a, **kw: oracles.gridcnn_loss_and_grads(*a, pool_first=pool_first, **kw),
            )
            best, _ = evaluate._gridcnn_trained(splits, config, None)
            blobs.append(gridcnn.serialize(best))
        assert blobs[0] == blobs[1]


def flipped_kernels(net):
    return {layer: gridcnn._flipped(getattr(net, layer)) for layer in ("conv2", "conv3")}


def reduce_chunk_grads(net, x, labels, rng=None):
    """loss_and_grads rebuilt from one _chunk_grads call per chunk: the conv
    partials added in chunk order, each dense layer's weight gradient one
    product over its concatenated rows."""
    n = len(x)
    drops = None if rng is None else oracles.gridcnn_dropout(net, rng, n)
    grad = np.zeros_like(net.vector)
    slot = net.layers_of(grad)
    probs, rows = [], {}
    for start in range(0, n, gridcnn._CHUNK):
        chunk = slice(start, start + gridcnn._CHUNK)
        p, conv, dense = gridcnn._chunk_grads(
            net, x.cells[chunk], labels[chunk], None if drops is None else drops[chunk],
            1.0 / n, flipped_kernels(net),
        )
        probs.append(p)
        for layer, part in conv.items():
            slot[layer].weights += part.weights
            slot[layer].bias += part.bias
        for layer, pair in dense.items():
            rows.setdefault(layer, []).append(pair)
    for layer, pairs in rows.items():
        inputs, grads = (np.concatenate(side) for side in zip(*pairs))
        slot[layer].weights[...] = inputs.T @ grads
        slot[layer].bias[...] = grads.sum(axis=0)
    return nn.mean_cross_entropy(np.concatenate(probs), labels), grad


def assert_reduction_is_loss_and_grads(net, x, labels, seed):
    """reduce_chunk_grads equals loss_and_grads bitwise, dropout from seed; returns the latter."""
    loss, grad = gridcnn.loss_and_grads(net, x, labels, rng=np.random.default_rng(seed))
    reduced_loss, reduced = reduce_chunk_grads(net, x, labels, np.random.default_rng(seed))
    assert np.float64(reduced_loss).tobytes() == np.float64(loss).tobytes()
    assert reduced.tobytes() == grad.tobytes()
    return loss, grad


def chunk_bytes(out):
    """The bytes of every array _chunk_grads returns, in a fixed order."""
    probs, conv, dense = out
    arrays = [probs]
    arrays += [a for layer in sorted(conv) for a in (conv[layer].weights, conv[layer].bias)]
    arrays += [a for layer in sorted(dense) for a in dense[layer]]
    return [a.tobytes() for a in arrays]


class TestChunkGrads:
    """_chunk_grads is a pure function of its arguments, and one ordered
    reduction of its results is loss_and_grads, bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("dropout", [False, True])
    def test_two_calls_give_equal_bytes_and_change_nothing(self, desk_stacks, dropout, dtype):
        grids, labels = desk_stacks[0]
        net = gridcnn.build_gridcnn(seed=0)
        gridcnn.set_channel_stats(net, grids)
        net = net.astype(dtype)
        cells = net.stage(grids[:4]).cells
        drops = oracles.gridcnn_dropout(net, np.random.default_rng(1), 4) if dropout else None
        flipped = flipped_kernels(net)
        args = (net, cells, labels[:4], drops, 1.0 / 64, flipped)
        given = [net.vector, net.norm_stats.mean, net.norm_stats.std, cells, labels]
        given += [*flipped.values()] + ([drops] if dropout else [])
        before = [a.tobytes() for a in given]
        first = chunk_bytes(gridcnn._chunk_grads(*args))
        assert chunk_bytes(gridcnn._chunk_grads(*args)) == first
        assert [a.tobytes() for a in given] == before
        probs, conv, dense = gridcnn._chunk_grads(*args)
        assert probs.shape == (4, 4) and sorted(conv) == ["conv1", "conv2", "conv3"]
        for layer, part in conv.items():
            assert part.weights.shape == getattr(net, layer).weights.shape, layer
        for layer, (inputs, grads) in dense.items():
            assert (inputs.shape, grads.shape) == ((4, gridcnn._WEIGHT_SHAPES[layer][0]),
                                                   (4, gridcnn._WEIGHT_SHAPES[layer][1])), layer

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reduction_on_desk_batches_fresh_and_after_adam_steps(self, desk_stacks, seed, dtype):
        grids, labels = desk_stacks[seed]
        net = gridcnn.build_gridcnn(seed=seed)
        gridcnn.set_channel_stats(net, grids)
        net = net.astype(dtype)
        staged = net.stage(grids)
        rng = np.random.default_rng(seed)
        opt_state = None
        for step in range(3):
            draw = rng.integers(0, len(staged), size=64)
            loss, grad = assert_reduction_is_loss_and_grads(
                net, staged[draw], labels[draw], step
            )
            _, opt_state = net.update(loss, grad, 0.003, opt_state)
        draw = rng.integers(0, len(staged), size=13)  # a last, partial chunk; no dropout
        loss, grad = gridcnn.loss_and_grads(net, staged[draw], labels[draw])
        reduced_loss, reduced = reduce_chunk_grads(net, staged[draw], labels[draw])
        assert reduced_loss == loss and reduced.tobytes() == grad.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("stack", EDGE_STACKS)
    def test_reduction_on_edge_stacks(self, desk_stacks, stack, dtype):
        net, x, labels = edge_stack(desk_stacks, stack, dtype)
        assert_reduction_is_loss_and_grads(net, x, labels, 0)


class TestStaged:
    """Batches drawn from a staged stack against stacking the same grids again."""

    @pytest.fixture(scope="class")
    def desk(self):
        grids, labels = desk_grids(6)
        net = gridcnn.build_gridcnn(seed=1)
        gridcnn.set_channel_stats(net, grids)
        return net, grids, np.array(labels), net.stage(grids)

    @pytest.mark.parametrize(
        "draw", [[0], [2, 2, 2], [5, 0, 5, 1, 0, 3]],
        ids=["one", "one-grid-thrice", "repeats-across-chunks"],
    )
    def test_batch_gives_bitwise_the_loss_and_grads_of_its_list(self, desk, draw):
        net, grids, labels, staged = desk
        loss, grad = gridcnn.loss_and_grads(
            net, staged[draw], labels[draw], rng=np.random.default_rng(0)
        )
        expected_loss, expected = gridcnn.loss_and_grads(
            net, net.stage([grids[i] for i in draw]), labels[draw], rng=np.random.default_rng(0)
        )
        assert loss == expected_loss
        assert grad.tobytes() == expected.tobytes()

    def test_staged_stack_predicts_bitwise_as_its_list(self, desk):
        net, grids, _, staged = desk
        assert staged.cells.shape == (6, 11, 11, 2) and staged.dtype == np.float32
        draw = [5, 0, 5, 1, 0, 3]
        got = net.predict_batch(staged[draw])
        expected = net.predict_batch(net.stage([grids[i] for i in draw]))
        assert got.shape == expected.shape == (6, 4)
        assert got.tobytes() == expected.tobytes()


class TestGridCnnSerialization:
    def test_round_trip_bitwise(self):
        net = gridcnn.build_gridcnn(seed=8)
        net.norm_stats = NormStats(np.array([1.5, -0.25]), np.array([3.0, 0.5]))
        restored = gridcnn.deserialize(gridcnn.serialize(net))
        for name, p in net.params().items():
            assert np.array_equal(p, restored.params()[name])
        np.testing.assert_array_equal(restored.norm_stats.mean, net.norm_stats.mean)
        np.testing.assert_array_equal(restored.norm_stats.std, net.norm_stats.std)
        parsed = container.read_container(gridcnn.serialize(net), gridcnn.MAGIC)
        assert parsed.config == {"dropout": gridcnn.DROPOUT, "n_classes": gridcnn.N_CLASSES}

    @pytest.mark.parametrize(
        "config, match",
        [
            ({"dropout": 0.5, "n_classes": 4, "bogus": 1}, "bogus"), ([0.5, 4], "JSON list"),
            ({"dropout": "x", "n_classes": 4}, "dropout"),
            ({"dropout": 1.5, "n_classes": 4}, "dropout"),
            ({"dropout": 0.5, "n_classes": 7}, "n_classes"),
            ({"dropout": 0.3, "n_classes": 4},
             re.escape("dropout must be a finite number in [0.5, 0.5], not 0.3")),
        ],
        ids=["unknown-key", "json-list", "dropout-string", "dropout-above-one",
             "n-classes-7", "dropout-0.3"],
    )
    def test_bad_config_is_container_error(self, config, match):
        parsed = container.read_container(
            gridcnn.serialize(gridcnn.build_gridcnn()), gridcnn.MAGIC
        )
        blob = container.write_container(
            gridcnn.MAGIC, config, (parsed.norm_means, parsed.norm_stds),
            list(parsed.arrays.items()),
        )
        with pytest.raises(container.ContainerError, match=match):
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
