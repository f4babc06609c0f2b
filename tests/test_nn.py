"""Unit and property tests for the neural-network kernel."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from deepreflecs import gridcnn, model, nn
from oracles import first_winner_searches


def naive_matmul(x, w, b):
    """Independent oracle: hand matrix multiply with explicit loops."""
    rows, inner = len(x), len(x[0])
    cols = len(w[0])
    out = [[0.0] * cols for _ in range(rows)]
    for i in range(rows):
        for j in range(cols):
            acc = 0.0
            for k in range(inner):
                acc += x[i][k] * w[k][j]
            out[i][j] = acc + b[j]
    return np.array(out)


def linear(w, b):
    return nn.LinearParams(np.array(w, dtype=np.float64), np.array(b, dtype=np.float64))


class TestRowwiseLinear:
    def test_identity(self):
        params = linear(np.eye(2), [0.0, 0.0])
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(nn.rowwise_linear(x, params), x)

    def test_hand_multiply_oracle(self):
        x = [[1.0, 2.0], [3.0, 4.0]]
        w = [[1.0], [1.0]]
        b = [0.5]
        expected = naive_matmul(x, w, b)
        np.testing.assert_allclose(expected, [[3.5], [7.5]])
        np.testing.assert_allclose(
            nn.rowwise_linear(np.array(x), linear(w, b)), expected
        )

    def test_bias_broadcast(self):
        params = linear(np.zeros((2, 3)), [1.0, 2.0, 3.0])
        out = nn.rowwise_linear(np.array([[7.0, -7.0]]), params)
        np.testing.assert_array_equal(out, [[1.0, 2.0, 3.0]])

    def test_backward_adds_into_the_gradient_slot(self):
        rng = np.random.default_rng(3)
        x, grad_out = rng.standard_normal((5, 4)), rng.standard_normal((5, 3))
        params = nn.LinearParams(rng.standard_normal((4, 3)), rng.standard_normal(3))
        start = nn.LinearParams(rng.standard_normal((4, 3)), rng.standard_normal(3))
        grad = nn.LinearParams(start.weights.copy(), start.bias.copy())
        grad_x = nn.rowwise_linear_backward(x, params, grad_out, grad)
        np.testing.assert_allclose(grad_x, naive_matmul(grad_out, params.weights.T, np.zeros(4)))
        np.testing.assert_allclose(
            grad.weights, start.weights + naive_matmul(x.T, grad_out, np.zeros(3))
        )
        np.testing.assert_allclose(grad.bias, start.bias + grad_out.sum(axis=0))
        # without the input gradient a second call still adds the same slot gradients
        first = nn.LinearParams(grad.weights.copy(), grad.bias.copy())
        assert nn.rowwise_linear_backward(x, params, grad_out, grad, need_input_grad=False) is None
        np.testing.assert_allclose(grad.weights, 2 * first.weights - start.weights)
        np.testing.assert_allclose(grad.bias, 2 * first.bias - start.bias)

    @pytest.mark.parametrize("rows", [1, 535, 768])
    def test_a_weight_gradient_of_one_block_is_one_product(self, rows):
        # 768 rows of a 32 x 32 layer are one block: a desk batch keeps its bits
        rng = np.random.default_rng(rows)
        x, grad_out = rng.standard_normal((2, rows, 32)).astype(np.float32)
        grad = nn.LinearParams(np.zeros((32, 32), np.float32), np.zeros(32, np.float32))
        nn.add_weight_grad(x, grad_out, grad)
        assert grad.weights.tobytes() == (x.T @ grad_out).tobytes()

    @pytest.mark.parametrize("rows, width", [(769, 32), (1082, 32), (2000, 32), (700, 64)])
    def test_a_longer_weight_gradient_sums_its_blocks_in_row_order(self, rows, width):
        rng = np.random.default_rng(rows)
        x, grad_out = rng.standard_normal((2, rows, width)).astype(np.float32)
        grad = nn.LinearParams(np.zeros((width, width), np.float32), np.zeros(width, np.float32))
        nn.add_weight_grad(x, grad_out, grad)
        block = nn.WEIGHT_GRAD_BLOCK // (width * width)
        expected = np.zeros((width, width), np.float32)
        for start in range(0, rows, block):
            expected += x[start : start + block].T @ grad_out[start : start + block]
        assert rows > block and grad.weights.tobytes() == expected.tobytes()
        np.testing.assert_allclose(grad.weights, x.T @ grad_out, rtol=1e-4, atol=1e-3)

    @pytest.mark.parametrize("rows, shape, block", [
        (64, (1600, 128), 64), (200, (1600, 128), 64), (600, (128, 32), 192),
    ])
    def test_a_wide_layer_sums_blocks_of_at_least_the_row_floor(self, rows, shape, block):
        # the grid CNN's dense1 and dense2: a batch of 64 grids is one block
        rng = np.random.default_rng(rows)
        x = rng.standard_normal((rows, shape[0])).astype(np.float32)
        grad_out = rng.standard_normal((rows, shape[1])).astype(np.float32)
        grad = nn.LinearParams(np.zeros(shape, np.float32), np.zeros(shape[1], np.float32))
        nn.add_weight_grad(x, grad_out, grad)
        expected = np.zeros(shape, np.float32)
        for start in range(0, rows, block):
            expected += x[start : start + block].T @ grad_out[start : start + block]
        assert grad.weights.tobytes() == expected.tobytes()
        assert grad.bias.tobytes() == grad_out.sum(axis=0).tobytes()

    @pytest.mark.parametrize("rows, n_in", [(1, 4), (3, 4), (4, 4), (9, 4), (4, 1600)])
    def test_input_grad_transposes_its_product_for_more_inputs_than_rows(self, rows, n_in):
        rng = np.random.default_rng(rows)
        grad_out, weights = rng.standard_normal((rows, 3)), rng.standard_normal((n_in, 3))
        form = (weights @ grad_out.T).T if n_in > rows else grad_out @ weights.T
        assert nn.input_grad(grad_out, weights).tobytes() == form.tobytes()
        np.testing.assert_allclose(
            nn.input_grad(grad_out, weights), naive_matmul(grad_out, weights.T, np.zeros(n_in))
        )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_stacked_weight_gradient_sums_one_product_per_matrix_in_order(self, dtype):
        rng = np.random.default_rng(5)
        x, grad_out = rng.standard_normal((5, 121, 18)), rng.standard_normal((5, 121, 16))
        x, grad_out = x.astype(dtype), grad_out.astype(dtype)
        expected = x[0].T @ grad_out[0]
        for s in range(1, 5):
            expected = expected + x[s].T @ grad_out[s]
        assert nn.stacked_weight_grad(x, grad_out).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("product", ["rowwise_linear", "input_grad"])
    def test_permuting_rows_permutes_product_rows_bitwise(self, product, dtype):
        """At conv2's (m, 32) @ (32, 32), for each m in 2-69. This holds on the
        SkylakeX kernel and fails on Haswell's (ROADMAP item 9b)."""
        rng = np.random.default_rng(7)
        params = nn.LinearParams(*(rng.standard_normal(s).astype(dtype) for s in ((32, 32), 32)))
        apply = {"rowwise_linear": lambda x: nn.rowwise_linear(x, params),
                 "input_grad": lambda g: nn.input_grad(g, params.weights)}[product]
        moved = []  # the row counts whose product rows depend on their position
        for m in range(2, 70):
            x, perm = rng.standard_normal((m, 32)).astype(dtype), rng.permutation(m)
            if apply(x)[perm].tobytes() != apply(x[perm]).tobytes():
                moved.append(m)
        assert moved == []

    @given(
        x=arrays(np.float32, (7, 4), elements=st.floats(-10, 10, width=32)),
        perm=st.permutations(range(7)),
    )
    @settings(max_examples=50, deadline=None)
    def test_row_permutation_equivariance_bitwise(self, x, perm):
        rng = np.random.default_rng(0)
        params = nn.LinearParams(
            rng.standard_normal((4, 6)).astype(np.float32),
            rng.standard_normal(6).astype(np.float32),
        )
        perm = np.array(perm)
        direct = nn.rowwise_linear(x, params)[perm]
        permuted = nn.rowwise_linear(x[perm], params)
        assert np.array_equal(direct, permuted)


class TestLinearParams:
    def test_kernel_of_any_rank_with_bias_on_the_last_axis(self):
        kernel = nn.LinearParams(np.zeros((3, 3, 2, 16)), np.zeros(16))
        size = kernel.weights.size + kernel.bias.size
        assert (kernel.in_features, size) == (2, 304)


class TestRelu:
    def test_examples(self):
        np.testing.assert_array_equal(nn.relu(np.array([[-1.0, 2.0]])), [[0.0, 2.0]])
        np.testing.assert_array_equal(nn.relu(np.array([[0.0]])), [[0.0]])
        np.testing.assert_array_equal(
            nn.relu(np.array([[3.5, -0.1, 0.1]])), [[3.5, 0.0, 0.1]]
        )

    def test_backward_zero_at_kink(self):
        x = np.array([[0.0, -1.0, 2.0]])
        grad = nn.relu_backward(x, np.ones_like(x))
        np.testing.assert_array_equal(grad, [[0.0, 0.0, 1.0]])


class TestMaskedGlobalMaxPool:
    def test_all_valid(self):
        x = np.array([[1.0, 5.0], [4.0, 2.0]])
        np.testing.assert_array_equal(
            nn.masked_global_max_pool(x, [True, True]), [4.0, 5.0]
        )

    def test_padding_ignored(self):
        x = np.array([[1.0, 5.0], [4.0, 2.0]])
        np.testing.assert_array_equal(
            nn.masked_global_max_pool(x, [True, False]), [1.0, 5.0]
        )

    def test_no_zero_floor_on_negatives(self):
        x = np.array([[-3.0], [-1.0]])
        np.testing.assert_array_equal(
            nn.masked_global_max_pool(x, [True, True]), [-1.0]
        )

    def test_all_masked_is_an_error(self):
        with pytest.raises(nn.EmptyPoolError):
            nn.masked_global_max_pool(np.ones((2, 2)), [False, False])

    def test_backward_routes_to_first_winner(self):
        x = np.array([[2.0, 1.0], [2.0, 3.0], [0.0, 3.0]])
        grad = nn.masked_global_max_pool_backward(
            x, [True, True, True], np.array([1.0, 1.0])
        )
        # column 0 ties between rows 0 and 1 -> row 0; column 1 between 1 and 2 -> row 1
        np.testing.assert_array_equal(grad, [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])

    def test_backward_skips_masked_winners(self):
        x = np.array([[1.0], [99.0]])
        grad = nn.masked_global_max_pool_backward(x, [True, False], np.array([2.0]))
        np.testing.assert_array_equal(grad, [[2.0], [0.0]])

    @given(
        x=arrays(np.float64, (6, 3), elements=st.floats(-100, 100)),
        perm=st.permutations(range(6)),
        mask=arrays(np.bool_, 6, elements=st.booleans()),
    )
    @settings(max_examples=100, deadline=None)
    def test_permutation_invariance_bitwise(self, x, perm, mask):
        if not mask.any():
            return
        perm = np.array(perm)
        assert np.array_equal(
            nn.masked_global_max_pool(x, mask),
            nn.masked_global_max_pool(x[perm], mask[perm]),
        )

    @given(
        x=arrays(np.float64, (4, 3), elements=st.floats(-100, 100)),
        extra=arrays(np.float64, (3, 3), elements=st.floats(-1e6, 1e6)),
    )
    @settings(max_examples=100, deadline=None)
    def test_appending_masked_rows_is_a_noop(self, x, extra):
        mask = np.ones(4, dtype=bool)
        grown = np.concatenate([x, extra])
        grown_mask = np.concatenate([mask, np.zeros(3, dtype=bool)])
        assert np.array_equal(
            nn.masked_global_max_pool(x, mask),
            nn.masked_global_max_pool(grown, grown_mask),
        )
        assert np.array_equal(
            nn.global_context_layer(x, mask),
            nn.global_context_layer(grown, grown_mask)[:4],
        )


class TestGlobalContextLayer:
    def test_concatenation_semantics(self):
        x = np.array([[1.0, 2.0], [3.0, 0.0]])
        out = nn.global_context_layer(x, [True, True])
        np.testing.assert_array_equal(out, [[1.0, 2.0, 3.0, 2.0], [3.0, 0.0, 3.0, 2.0]])

    def test_masked_row_content_ignored(self):
        x = np.array([[1.0, 2.0], [9.0, 9.0]])
        out = nn.global_context_layer(x, [True, False])
        np.testing.assert_array_equal(out[0], [1.0, 2.0, 1.0, 2.0])

    def test_single_row_global_equals_local(self):
        x = np.array([[0.25, -4.0]])
        out = nn.global_context_layer(x, [True])
        np.testing.assert_array_equal(out, [[0.25, -4.0, 0.25, -4.0]])

    @given(x=arrays(np.float64, (5, 4), elements=st.floats(-50, 50)))
    @settings(max_examples=50, deadline=None)
    def test_shape_law(self, x):
        mask = np.array([True, True, False, True, False])
        out = nn.global_context_layer(x, mask)
        assert out.shape == (5, 8)
        assert np.array_equal(out[mask, :4], x[mask])

    def test_backward_sums_global_half_over_unmasked_rows(self):
        x = np.array([[1.0, 0.0], [0.0, 2.0], [5.0, 5.0]])
        mask = np.array([True, True, False])
        grad_out = np.zeros((3, 4))
        grad_out[:, 2:] = 1.0  # only the global half receives gradient
        grad = nn.global_context_layer_backward(x, mask, grad_out)
        # winners: col 0 -> row 0, col 1 -> row 1; masked row contributes nothing
        np.testing.assert_array_equal(grad, [[2.0, 0.0], [0.0, 2.0], [0.0, 0.0]])


def per_segment_oracle(x, lengths, grad_out):
    """Independent oracle: pool and first-winner routing one segment at a time."""
    pooled, grad_x, start = [], np.zeros_like(x), 0
    for b, m in enumerate(lengths):
        rows = x[start : start + m]
        pooled.append(rows.max(axis=0))
        winners = start + np.argmax(rows, axis=0)  # argmax picks the first maximum
        grad_x[winners, np.arange(x.shape[1])] = grad_out[b]
        start += m
    return np.array(pooled), grad_x


@st.composite
def segmented_rows(draw, n_features=3):
    """Rows on a coarse integer grid, so ties inside and across segments are common."""
    lengths = draw(st.lists(st.integers(1, 6), min_size=1, max_size=5))
    n_rows = sum(lengths)
    x = draw(arrays(np.float64, (n_rows, n_features), elements=st.integers(-2, 2).map(float)))
    grad = draw(
        arrays(np.float64, (len(lengths), n_features), elements=st.integers(-3, 3).map(float))
    )
    return x, lengths, grad


class TestSegments:
    def test_starts_and_ids(self):
        seg = nn.Segments([2, 1, 3])
        np.testing.assert_array_equal(seg.starts, [0, 2, 3])
        np.testing.assert_array_equal(seg.ids, [0, 0, 1, 2, 2, 2])

    def test_pool_keeps_segments_apart(self):
        x = np.array([[1.0, 5.0], [3.0, 2.0], [0.0, -1.0]])
        seg = nn.Segments([2, 1])
        np.testing.assert_array_equal(nn.segment_max_pool(x, seg), [[3.0, 5.0], [0.0, -1.0]])

    def test_backward_routes_to_first_winner_per_segment(self):
        # equal rows 1 and 2 sit on either side of the segment edge
        x = np.array([[1.0, 0.0], [1.0, 2.0], [1.0, 2.0], [0.0, 2.0]])
        seg = nn.Segments([2, 2])
        grad = nn.segment_max_pool_backward(
            x, seg, np.array([[1.0, 2.0], [3.0, 4.0]]), nn.segment_max_pool(x, seg)
        )
        np.testing.assert_array_equal(
            grad, [[1.0, 0.0], [0.0, 2.0], [3.0, 4.0], [0.0, 0.0]]
        )

    @given(segmented_rows())
    @settings(max_examples=200, deadline=None)
    def test_pool_and_backward_match_per_segment_oracle(self, case):
        x, lengths, grad_out = case
        seg = nn.Segments(lengths)
        pooled, grad_x = per_segment_oracle(x, lengths, grad_out)
        assert np.array_equal(nn.segment_max_pool(x, seg), pooled)
        assert np.array_equal(nn.segment_max_pool_backward(x, seg, grad_out, pooled), grad_x)

    @given(
        st.lists(st.integers(1, 6), min_size=1, max_size=5),
        st.integers(0, 2**32 - 1),
        st.sampled_from([np.float32, np.float64]),
    )
    @settings(max_examples=100, deadline=None)
    def test_untied_rows_take_the_single_winner_path(self, lengths, seed, dtype):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((sum(lengths), 3)).astype(dtype)
        grad_out = rng.standard_normal((len(lengths), 3)).astype(dtype)
        seg = nn.Segments(lengths)
        assume(all(np.unique(col).size == col.size for col in x.T))  # no value twice: no tie
        with first_winner_searches() as calls:
            grad_x = nn.segment_max_pool_backward(x, seg, grad_out, nn.segment_max_pool(x, seg))
        assert calls == []
        assert grad_x.dtype == dtype
        assert np.array_equal(grad_x, per_segment_oracle(x, lengths, grad_out)[1])

    @given(segmented_rows())
    @settings(max_examples=100, deadline=None)
    def test_tied_rows_take_the_first_winner_path(self, case):
        x, lengths, grad_out = case
        seg = nn.Segments(lengths)
        pooled, expected = per_segment_oracle(x, lengths, grad_out)
        tied = np.count_nonzero(x == pooled[seg.ids]) > pooled.size
        with first_winner_searches() as calls:
            grad_x = nn.segment_max_pool_backward(x, seg, grad_out, pooled)
        assert len(calls) == int(tied)
        assert np.array_equal(grad_x, expected)

    @pytest.mark.parametrize("x", [
        [[1.0, 2.0], [3.0, 0.0]],  # one winner per feature
        [[1.0, 2.0], [1.0, 0.0]],  # a tie in feature 0
    ], ids=["single-winner", "first-winner"])
    def test_result_has_the_input_precision(self, x):
        x = np.array(x, dtype=np.float32)
        grad_out = np.array([[1.0 + 2.0**-40, -3.0]])  # not a float32 number
        seg = nn.Segments([2])
        grad_x = nn.segment_max_pool_backward(x, seg, grad_out, nn.segment_max_pool(x, seg))
        assert grad_x.dtype == np.float32
        assert np.array_equal(grad_x, per_segment_oracle(x, [2], grad_out)[1])

    def test_a_nan_maximum_beside_a_tie_takes_the_first_winner_path(self):
        # feature 0 has no winner (NaN) and feature 1 two, so the count of
        # winners alone would match one winner per maximum
        x = np.array([[np.nan, 2.0], [1.0, 2.0]])
        seg, grad_out = nn.Segments([2]), np.array([[5.0, 7.0]])
        with first_winner_searches() as calls:
            grad_x = nn.segment_max_pool_backward(x, seg, grad_out, nn.segment_max_pool(x, seg))
        assert len(calls) == 1
        np.testing.assert_array_equal(grad_x, [[5.0, 7.0], [0.0, 0.0]])

    @given(segmented_rows(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_context_layer_matches_masked_layer_per_segment(self, case, data):
        x, lengths, _ = case
        seg = nn.Segments(lengths)
        grad_out = data.draw(
            arrays(np.float64, (x.shape[0], 6), elements=st.integers(-3, 3).map(float))
        )
        out = nn.segment_context_layer(x, seg)
        grad = nn.segment_context_layer_backward(x, seg, grad_out, nn.segment_max_pool(x, seg))
        start = 0
        for m in lengths:
            part = slice(start, start + m)
            every_row = np.ones(m, dtype=bool)
            assert np.array_equal(out[part], nn.global_context_layer(x[part], every_row))
            assert np.array_equal(
                grad[part], nn.global_context_layer_backward(x[part], every_row, grad_out[part])
            )
            start += m


class TestDense:
    def test_identity(self):
        out = nn.dense(np.array([1.0, 0.0]), linear(np.eye(2), [0.0, 0.0]))
        np.testing.assert_array_equal(out, [1.0, 0.0])

    def test_hand_multiply_oracle(self):
        x = [2.0, 3.0]
        w = [[1.0, 0.0], [0.0, 2.0]]
        b = [-1.0, -1.0]
        expected = naive_matmul([x], w, b)[0]
        np.testing.assert_allclose(expected, [1.0, 5.0])
        np.testing.assert_allclose(nn.dense(np.array(x), linear(w, b)), expected)

    def test_zero_input_yields_bias(self):
        params = linear([[3.0, 1.0], [2.0, 7.0]], [4.0, -2.0])
        np.testing.assert_array_equal(
            nn.dense(np.zeros(2), params), [4.0, -2.0]
        )

    def test_shape_mismatch(self):
        with pytest.raises(nn.ShapeError):
            nn.dense(np.zeros(3), linear(np.eye(2), [0.0, 0.0]))

    def test_backward_against_the_hand_multiply_oracle(self):
        rng = np.random.default_rng(4)
        x, grad_out = rng.standard_normal(3), rng.standard_normal(2)
        params = nn.LinearParams(rng.standard_normal((3, 2)), rng.standard_normal(2))
        grad_x, grad_w, grad_b = nn.dense_backward(x, params, grad_out)
        np.testing.assert_allclose(grad_x, naive_matmul([grad_out], params.weights.T, [0.0] * 3)[0])
        np.testing.assert_allclose(grad_w, naive_matmul(x[:, None], [grad_out], [0.0] * 2))
        assert grad_b.tobytes() == grad_out.tobytes()


class TestSoftmax:
    def test_uniform_on_equal_logits(self):
        np.testing.assert_allclose(
            nn.softmax(np.zeros(4)), [0.25, 0.25, 0.25, 0.25], atol=1e-15
        )

    def test_closed_form(self):
        out = nn.softmax(np.array([math.log(2.0), 0.0]))
        np.testing.assert_allclose(out, [2.0 / 3.0, 1.0 / 3.0], atol=1e-14)

    def test_large_logits_stable(self):
        out = nn.softmax(np.array([1000.0, 0.0]))
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-300)

    @given(z=arrays(np.float64, 4, elements=st.floats(-1000, 1000)))
    @settings(max_examples=200, deadline=None)
    def test_sums_to_one(self, z):
        p = nn.softmax(z)
        assert abs(p.sum() - 1.0) < 1e-12
        assert np.all(p >= 0.0) and np.all(p <= 1.0)


    @given(z=arrays(np.float32, 7, elements=st.floats(-100, 100, width=32)))
    @settings(max_examples=100, deadline=None)
    def test_vector_result_is_the_plain_formula_bitwise(self, z):
        wide = z.astype(np.float64)
        e = np.exp(wide - wide.max())
        assert np.array_equal(nn.softmax(z), e / e.sum())

    @given(z=arrays(np.float32, (5, 4), elements=st.floats(-100, 100, width=32)))
    @settings(max_examples=100, deadline=None)
    def test_rows_are_independent_bitwise(self, z):
        batched = nn.softmax(z)
        for i, row in enumerate(z):
            assert np.array_equal(batched[i], nn.softmax(row))


class TestCrossEntropy:
    def test_confident_correct_is_zero(self):
        assert abs(nn.mean_cross_entropy(np.array([[1.0, 0.0, 0.0, 0.0]]), [0])) < 1e-9

    def test_uniform_closed_form(self):
        p = np.full(4, 0.25)
        for label in range(4):
            assert abs(nn.mean_cross_entropy(p[None], [label]) - math.log(4.0)) < 1e-9

    def test_gradient_is_p_minus_onehot(self):
        p = np.full(4, 0.25)
        np.testing.assert_allclose(
            nn.softmax_cross_entropy_grad(p, 2), [0.25, 0.25, -0.75, 0.25]
        )


    def test_batched_gradient_and_mean_match_rows(self):
        p = nn.softmax(np.array([[0.0, 1.0, 2.0, 3.0], [1.0, 1.0, 0.0, -1.0]]))
        labels = np.array([3, 0])
        grad = nn.softmax_cross_entropy_grad(p, labels)
        for i, label in enumerate(labels):
            assert np.array_equal(grad[i], nn.softmax_cross_entropy_grad(p[i], label))
        expected = np.mean([nn.mean_cross_entropy(p[i : i + 1], [y]) for i, y in enumerate(labels)])
        assert nn.mean_cross_entropy(p, labels) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_logit_grads_flush_only_negligible_entries(self, dtype):
        # row 0 is certain of its label (its other probabilities are ~4e-44),
        # row 1 is not, and row 2's other probabilities are 4x the flush
        lead = -math.log(4 * nn.LOGIT_GRAD_FLUSH)
        p = nn.softmax(np.array([[100.0, 0, 0, 0], [0, 1, 2, 3], [lead, 0, 0, 0]]))
        labels = np.array([0, 3, 0])
        plain = nn.softmax_cross_entropy_grad(p, labels) * 0.5
        got = nn.logit_grads(p, labels, 0.5, dtype)
        assert got.dtype == dtype
        assert np.abs(plain[0]).max() < nn.LOGIT_GRAD_FLUSH and not got[0].any()
        assert got[1:].tobytes() == plain[1:].astype(dtype).tobytes()
        assert got[2, 1:].all()


class TestOptimizers:
    def test_adam_first_step_closed_form(self):
        # first-step oracle: p - lr * g / (sqrt(g^2) + eps)
        p, g, lr, eps = 1.0, 0.5, 0.1, 1e-8
        expected = p - lr * g / (math.sqrt(g * g) + eps)
        out, state = np.array([p]), nn.AdamState(np.zeros(1), np.zeros(1))
        nn.adam_step(out, np.array([g]), lr, state)
        np.testing.assert_allclose(out, [expected], rtol=1e-12)
        assert abs(expected - 0.9) < 1e-7
        assert state.t == 1

    def test_adam_determinism(self):
        grad = np.array([0.1, -0.2, 0.3])
        runs = []
        for _ in range(2):
            params, state = np.array([1.0, 2.0, 3.0]), nn.AdamState(np.zeros(3), np.zeros(3))
            for _ in range(2):
                nn.adam_step(params, grad, 0.01, state)
            runs.append((params, state))
        (p1, s1), (p2, s2) = runs
        assert p1.tobytes() == p2.tobytes()
        assert (s1.m.tobytes(), s1.v.tobytes(), s1.t) == (s2.m.tobytes(), s2.v.tobytes(), s2.t)

    def test_non_finite_gradient_names_parameter(self):
        net = model.build_model(seed=0)
        grad = np.zeros_like(net.vector)
        net.params(grad)["conv1.weights"][0, 0] = np.nan
        with pytest.raises(nn.TrainingError, match="conv1.weights"):
            net.update(0.0, grad, 0.1, None)


# the reflection network's six tensors at the default widths
NETWORK_SHAPES = {
    "conv1.weights": (5, 16), "conv1.bias": (16,),
    "conv2.weights": (32, 32), "conv2.bias": (32,),
    "head.weights": (32, 4), "head.bias": (4,),
}


def random_gradient(net, rng, scale=1.0):
    """A gradient vector of net, drawn tensor by tensor in NETWORK_SHAPES order."""
    grad = np.zeros_like(net.vector)
    for name, g in net.params(grad).items():
        g[...] = scale * rng.standard_normal(NETWORK_SHAPES[name])
    return grad


class TestVectorStep:
    """Network.update steps the parameter vector in place, bitwise as per tensor."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_adam_is_bitwise_six_per_tensor_steps(self, dtype):
        rng = np.random.default_rng(0)
        net = model.build_model(seed=0).astype(dtype)
        per_tensor = {name: p.copy() for name, p in net.params().items()}
        states = {
            name: nn.AdamState(np.zeros_like(p), np.zeros_like(p))
            for name, p in per_tensor.items()
        }
        state = None
        for step in range(5):
            grad = random_gradient(net, rng, scale=10.0 ** (step - 2))
            lr = 0.01 / (step + 1)
            _, state = net.update(0.0, grad, lr, state)
            for name, g in net.params(grad).items():
                nn.adam_step(per_tensor[name], g, lr, states[name])
            assert state.t == step + 1
            for name, p in net.params().items():
                assert p.dtype == dtype and p.shape == NETWORK_SHAPES[name]
                assert p.tobytes() == per_tensor[name].tobytes(), (step, name)

    @pytest.mark.parametrize("name", list(NETWORK_SHAPES))
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_gradient_names_its_tensor(self, name, bad):
        rng = np.random.default_rng(2)
        net = model.build_model(seed=2)
        before = net.vector.copy()
        grad = random_gradient(net, rng)
        net.params(grad)[name].reshape(-1)[-1] = bad
        with pytest.raises(nn.TrainingError, match=f"'{name}'"):
            net.update(0.0, grad, 0.1, None)
        assert net.vector.tobytes() == before.tobytes()


class TestGradCheck:
    def test_report_names_every_element_in_sorted_name_order(self):
        net = model.build_model(seed=3)
        inp, label = nn.random_safe_sample(net, np.random.default_rng(4))
        report = nn.gradcheck(net, [inp], [label], model.loss_and_grads)
        names = [e[0] for e in report.per_parameter_errors]
        expected = [
            f"{name}[{','.join(map(str, index))}]"
            for name, p in sorted(net.params().items()) for index in np.ndindex(p.shape)
        ]
        assert names == expected
        assert names[15:18] == ["conv1.bias[15]", "conv1.weights[0,0]", "conv1.weights[0,1]"]
        assert len(names) == net.vector.size
        assert report.max_relative_error < 1e-4

    def test_head_bias_gradient_is_exact(self):
        # the head bias gradient is p - onehot itself, with no kink behind it,
        # so finite differences agree with it to rounding noise
        net = model.build_model(seed=7)
        inp, label = nn.random_safe_sample(net, np.random.default_rng(13))
        report = nn.gradcheck(net, [inp], [label], model.loss_and_grads)
        head_bias = [e for e in report.per_parameter_errors if e[0].startswith("head.bias[")]
        assert len(head_bias) == net.config.n_classes
        assert max(e[3] for e in head_bias) < 1e-8

    def test_a_wrong_gradient_element_is_flagged_by_name(self):
        def wrong_in_one_element(net, staged, labels):
            loss, grad = model.loss_and_grads(net, staged, labels)
            net.params(grad)["conv2.weights"][3, 5] += 0.01
            return loss, grad

        net = model.build_model(seed=0)
        report = nn.gradcheck_random_batch(net, 1, wrong_in_one_element)
        flagged = [e for e in report.per_parameter_errors if e[3] > 1e-4]
        assert [e[0] for e in flagged] == ["conv2.weights[3,5]"]
        _, analytic, numeric, _ = flagged[0]
        assert analytic - numeric == pytest.approx(0.01, rel=1e-3)


NETWORKS = {
    "reflectnet": lambda: model.build_model(seed=1),
    "gridcnn": lambda: gridcnn.build_gridcnn(seed=1),
}


def file_round_trip(net):
    codec = model if isinstance(net, model.ReflectNetModel) else gridcnn
    return codec.deserialize(codec.serialize(net))


# the ways a network comes about: its build, and each remake of a built one
REMAKES = {
    "build": lambda net: net,
    "copy": lambda net: net.copy(),
    "astype-float64": lambda net: net.astype(np.float64),
    "file": file_round_trip,
}


@pytest.mark.parametrize("build", NETWORKS.values(), ids=NETWORKS.keys())
class TestNetwork:
    def test_params_follow_the_layer_table(self, build):
        net = build()
        shapes = net.layer_shapes()
        params = net.params()
        names = [f"{layer}.{part}" for layer in shapes for part in ("weights", "bias")]
        assert list(params) == names
        for layer, shape in shapes.items():
            assert params[f"{layer}.weights"].shape == tuple(shape)
            assert params[f"{layer}.bias"].shape == tuple(shape[-1:])
        assert net.vector.size == sum(math.prod(s) + s[-1] for s in shapes.values())

    def test_params_of_a_vector_view_it_in_the_parameter_layout(self, build):
        net = build()
        grad = np.arange(net.vector.size, dtype=net.vector.dtype)
        views = net.params(grad)
        shapes = [(name, p.shape) for name, p in net.params().items()]
        assert [(name, v.shape) for name, v in views.items()] == shapes
        assert all(np.shares_memory(v, grad) for v in views.values())
        assert np.concatenate([v.ravel() for v in views.values()]).tobytes() == grad.tobytes()

    def test_copy_shares_no_array(self, build):
        net = build()
        twin = net.copy()
        for p in [*twin.params().values(), twin.norm_stats.mean, twin.norm_stats.std]:
            p[...] = 7
        for p in [*net.params().values(), net.norm_stats.mean, net.norm_stats.std]:
            assert not (p == 7).any()

    def test_astype_then_update_keeps_the_precision(self, build):
        wide = build().astype(np.float64)
        assert all(p.dtype == np.float64 for p in wide.params().values())
        expected = {name: p.copy() for name, p in wide.params().items()}
        grad = np.ones_like(wide.vector)
        wide.update(0.0, grad, 0.5, None)
        for name, p in wide.params().items():
            state = nn.AdamState(np.zeros_like(p), np.zeros_like(p))
            nn.adam_step(expected[name], wide.params(grad)[name], 0.5, state)
            assert p.dtype == np.float64 and p.tobytes() == expected[name].tobytes(), name

    @pytest.mark.parametrize("make", list(REMAKES.values()), ids=list(REMAKES))
    def test_params_view_the_one_vector_in_table_order(self, build, make):
        net = build()
        made = make(net)
        vector = made.vector
        assert vector.ndim == 1 and vector.flags.c_contiguous
        start = vector.__array_interface__["data"][0]
        offset = 0
        for name, p in made.params().items():
            assert p.dtype == vector.dtype and p.flags.c_contiguous, name
            assert p.__array_interface__["data"][0] == start + offset * vector.itemsize, name
            offset += p.size
        assert offset == vector.size
        if made is not net:
            assert not np.shares_memory(vector, net.vector)

    def test_train_step_takes_one_optimizer_step(self, build, monkeypatch):
        calls = []
        step = nn.adam_step

        def counted(*args, **kwargs):
            calls.append(args[0].size)
            return step(*args, **kwargs)

        monkeypatch.setattr(nn, "adam_step", counted)
        net = build()
        rng = np.random.default_rng(0)
        inputs = [net.random_input(rng) for _ in range(3)]
        net.train_step(inputs, [0, 1, 2], 0.01, None, rng=rng)
        assert calls == [net.vector.size]


# the product functions of both networks' backward passes: their first
# two arguments are every operand of a gradient's products
BACKWARD_PRODUCTS = ["input_grad", "add_weight_grad", "stacked_weight_grad"]


def subnormal_count(operand: np.ndarray) -> int:
    """Nonzero entries smaller than the least normal float of their dtype."""
    tiny = np.finfo(operand.dtype).tiny
    return int(np.count_nonzero((operand != 0) & (np.abs(operand) < tiny)))


@pytest.mark.parametrize("build", NETWORKS.values(), ids=NETWORKS.keys())
def test_a_confident_batch_gives_no_subnormal_backward_operand(build, monkeypatch):
    net = build()
    # every logit of class 0 leads by exactly 100: each other class gets a
    # probability of about 4e-44, which is subnormal in float32
    net.head.weights[...] = 0
    net.head.bias[...] = [100.0, 0.0, 0.0, 0.0]
    subnormal = {}  # per product function called, its subnormal operand entries
    for name in BACKWARD_PRODUCTS:
        def counted(*args, product=getattr(nn, name), name=name):
            subnormal[name] = subnormal.get(name, 0) + sum(map(subnormal_count, args[:2]))
            return product(*args)

        monkeypatch.setattr(nn, name, counted)
    rng = np.random.default_rng(0)
    inputs = [net.random_input(rng) for _ in range(8)]
    net.train_step(inputs, [0] * 8, 0.01, None, rng=rng)
    expected = {"input_grad", "add_weight_grad"}
    if isinstance(net, gridcnn.GridCnnModel):
        expected.add("stacked_weight_grad")
    assert subnormal == dict.fromkeys(expected, 0)
