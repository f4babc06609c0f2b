"""Tests for the reflection network: counts, invariances, training, files."""

import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from test_golden import blas_env
from deepreflecs import container, datagen, evaluate, gridcnn, model, nn, preprocess, trainer
from deepreflecs.preprocess import NormStats, PaddedInput


def element_count_oracle(net) -> int:
    """Independent oracle: sum weight and bias element counts per layer."""
    total = 0
    for layer in (net.conv1, net.conv2, net.head):
        w_elems = 1
        for d in layer.weights.shape:
            w_elems *= d
        total += w_elems + len(layer.bias)
    return total


def random_input(rng, m=None, n_features=5):
    pad_length = model.ReflectNetConfig.pad_length
    m = m or int(rng.integers(1, pad_length + 1))
    return PaddedInput(rng.standard_normal((m, n_features)), pad_length)


class TestParameterCounts:
    def test_default_build_is_1284(self):
        net = model.build_model()
        assert net.vector.size == 1284
        assert element_count_oracle(net) == 1284

    def test_ablated_build_matches_oracle(self):
        # removing the context layer halves conv2's input width (16 instead
        # of 32), all other widths fixed: 96 + 544 + 132
        net = model.build_model(model.ReflectNetConfig(use_gcl=False))
        assert net.vector.size == element_count_oracle(net) == 772

    def test_single_linear_params(self):
        params = nn.LinearParams(np.zeros((3, 2)), np.zeros(2))
        assert params.weights.size + params.bias.size == 8

    def test_same_seed_bitwise_identical(self):
        a = model.build_model(seed=11)
        b = model.build_model(seed=11)
        for name, p in a.params().items():
            assert np.array_equal(p, b.params()[name])

    def test_different_seeds_differ(self):
        a = model.build_model(seed=1)
        b = model.build_model(seed=2)
        assert not np.array_equal(a.conv1.weights, b.conv1.weights)


class TestForward:
    def test_permutation_invariance_bitwise(self):
        rng = np.random.default_rng(5)
        net = model.build_model(seed=1)
        inp = random_input(rng, m=9)
        base = model.forward(net, inp).probabilities
        for _ in range(20):
            perm = rng.permutation(inp.m_real)
            permuted = PaddedInput(inp.rows[perm], inp.pad_length)
            assert np.array_equal(model.forward(net, permuted).probabilities, base)

    def test_pad_length_invariance_bitwise(self):
        rng = np.random.default_rng(6)
        net = model.build_model(seed=1)
        sample = oracles.sample_of_rows(rng.standard_normal((5, 5)))
        outs = [
            model.forward(net, preprocess.prepare_input(sample, pad, NormStats.identity()))
            for pad in (5, 32, 64)
        ]
        assert all(np.array_equal(out.probabilities, outs[0].probabilities) for out in outs)

    def test_masked_garbage_invariance_bitwise(self):
        # the segments mask each input off from huge rows of its batch neighbours
        rng = np.random.default_rng(7)
        net = model.build_model(seed=1)
        inp = random_input(rng, m=4)
        garbage = [PaddedInput(rng.standard_normal((m, 5)) * 1e6, 64) for m in (3, 9)]
        base = net.predict_batch(net.stage([random_input(rng), inp, random_input(rng)]))[1]
        assert np.array_equal(net.predict_batch(net.stage([garbage[0], inp, garbage[1]]))[1], base)

    def test_zero_model_is_uniform(self):
        net = model.build_model(seed=0)
        for p in net.params().values():
            p[...] = 0.0
        out = model.forward(net, random_input(np.random.default_rng(0)))
        np.testing.assert_allclose(out.probabilities, [0.25] * 4, atol=1e-15)

    def test_logit_shift_does_not_change_argmax(self):
        rng = np.random.default_rng(8)
        net = model.build_model(seed=2)
        inp = random_input(rng, m=6)
        base = model.forward(net, inp)
        shifted = net.copy()
        shifted.head.bias += 3.25  # constant shift on every logit
        out = model.forward(shifted, inp)
        assert out.predicted == base.predicted

    def test_empty_mask_raises(self):
        net = model.build_model()
        with pytest.raises(nn.EmptyPoolError):
            model.forward(net, PaddedInput(np.zeros((0, 5)), 8))

    def test_ablated_model_still_invariant(self):
        rng = np.random.default_rng(9)
        net = model.build_model(model.ReflectNetConfig(use_gcl=False), seed=3)
        inp = random_input(rng, m=7)
        base = model.forward(net, inp).probabilities
        perm = rng.permutation(inp.m_real)
        permuted = PaddedInput(inp.rows[perm], inp.pad_length)
        assert np.array_equal(model.forward(net, permuted).probabilities, base)


class TestTrainStep:
    def test_repeated_sample_batch_matches_single(self):
        # the mean over k identical terms equals the single term (up to
        # float32 summation rounding)
        rng = np.random.default_rng(10)
        inp = random_input(rng, m=3)
        net = model.build_model(seed=4)
        loss_a, grad_a = model.loss_and_grads(net, net.stage([inp]), [1])
        loss_b, grad_b = model.loss_and_grads(net, net.stage([inp] * 5), [1] * 5)
        assert loss_a == pytest.approx(loss_b)
        np.testing.assert_allclose(grad_b, grad_a, rtol=1e-5, atol=1e-5 * np.abs(grad_a).max())

    def test_zero_lr_keeps_parameters(self):
        rng = np.random.default_rng(11)
        net = model.build_model(seed=5)
        before = {k: v.copy() for k, v in net.params().items()}
        loss, _ = model.train_step(net, net.stage([random_input(rng)]), [0], 0.0)
        assert loss > 0
        for name, p in net.params().items():
            assert np.array_equal(p, before[name])

    def test_two_point_toy_set_converges(self):
        rng = np.random.default_rng(12)
        net = model.build_model(seed=6)
        a = random_input(rng, m=2)
        b = PaddedInput(a.rows + 3.0, a.pad_length)
        batch, state = net.stage([a, b]), None
        for _ in range(200):
            loss, state = model.train_step(net, batch, [0, 1], 0.05, state)
        assert loss < 0.01

    def test_gradcheck_full_model_small_list(self):
        net = model.build_model(seed=7)
        rng = np.random.default_rng(13)
        inp, label = nn.random_safe_sample(net, rng)
        report = nn.gradcheck(net, [inp], [label], model.loss_and_grads)
        assert report.max_relative_error < 1e-4
        assert len(report.per_parameter_errors) == net.vector.size


@st.composite
def ragged_batches(draw):
    """1-6 samples of 1-64 reflections each, with pad lengths of m to m + 8.

    Duplicated rows put exact max-pool ties inside a sample and across the
    edge between consecutive samples.
    """
    lengths = draw(st.lists(st.integers(1, 64), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    inputs, labels, previous_last = [], [], None
    for m in lengths:
        rows = rng.standard_normal((m, 5))
        if m > 1 and draw(st.booleans()):
            i, j = rng.choice(m, size=2, replace=False)
            rows[j] = rows[i]
        if previous_last is not None and draw(st.booleans()):
            rows[0] = previous_last
        previous_last = rows[-1]
        inputs.append(PaddedInput(rows, m + draw(st.integers(0, 8))))
        labels.append(draw(st.integers(0, 3)))
    return inputs, labels


class TestRaggedBatch:
    """The batched pass against the per-sample reference, sample by sample."""

    # float32 sums over all rows of the batch at once; observed error was
    # below 1e-6 of each tensor's largest gradient, float64 below 2e-15
    @pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-5), (np.float64, 1e-10)])
    @given(batch=ragged_batches())
    @settings(max_examples=60, deadline=None)
    def test_loss_and_grads_equal_mean_of_single_samples(self, dtype, tol, batch):
        inputs, labels = batch
        net = model.build_model(seed=3).astype(dtype)
        loss, grad = model.loss_and_grads(net, net.stage(inputs), labels)
        singles = [
            model.loss_and_grads(net, net.stage([inp]), [y]) for inp, y in zip(inputs, labels)
        ]
        assert loss == pytest.approx(np.mean([l for l, _ in singles]), rel=tol)
        assert grad.dtype == dtype and grad.shape == net.vector.shape
        mean = net.params(np.mean([g.astype(np.float64) for _, g in singles], axis=0))
        for name, g in net.params(grad).items():
            reference = mean[name]
            np.testing.assert_allclose(
                g, reference, rtol=tol, atol=tol * np.abs(reference).max()
            )

    @given(batch=ragged_batches())
    @settings(max_examples=30, deadline=None)
    def test_batched_probabilities_match_single_forward(self, batch):
        # not bitwise: BLAS may take another kernel for a one-row product
        inputs, _ = batch
        net = model.build_model(seed=4)
        staged = net.stage(inputs)
        probs = model.forward_rows(net, staged.rows, staged.segments)
        single = np.stack([model.forward(net, inp).probabilities for inp in inputs])
        np.testing.assert_allclose(probs, single, rtol=1e-5)

    @given(batch=ragged_batches())
    @settings(max_examples=30, deadline=None)
    def test_predict_batch_matches_predict(self, batch):
        inputs, _ = batch
        net = model.build_model(seed=5)
        batched = net.predict_batch(net.stage(inputs))
        assert batched.shape == (len(inputs), 4) and batched.dtype == np.float64
        for inp, row in zip(inputs, batched):
            single = net.predict(inp)
            np.testing.assert_allclose(row, single.probabilities, atol=1e-6)
            if np.sort(single.probabilities)[-2] < single.probabilities.max() - 1e-5:
                assert row.argmax() == single.predicted  # no near-tie to flip

    @given(batch=ragged_batches())
    @settings(max_examples=30, deadline=None)
    def test_predict_batch_is_the_checked_forward_matrix(self, batch):
        inputs, _ = batch
        net = model.build_model(seed=6)
        staged = net.stage(inputs)
        batched = net.predict_batch(staged)
        assert batched.shape == (len(inputs), 4) and batched.dtype == np.float64
        expected = model.forward_rows(net, staged.rows, staged.segments)
        assert batched.tobytes() == expected.tobytes()

    def test_staging_nothing_is_shape_error(self):
        with pytest.raises(nn.ShapeError, match="empty list"):
            model.build_model().stage([])

    def test_rows_of_another_width_are_shape_error_naming_the_input(self):
        rng = np.random.default_rng(17)
        inputs = [random_input(rng), random_input(rng, m=2, n_features=3)]
        with pytest.raises(nn.ShapeError, match=r"input 1 has rows \(2, 3\), not \(m, 5\)"):
            model.build_model().stage(inputs)


class TestStaged:
    """Batches drawn from a staged set against staging the same inputs again."""

    @staticmethod
    def staged_set(dtype):
        rng = np.random.default_rng(7)
        inputs = [random_input(rng, m=m) for m in (1, 5, 2, 8, 3)]
        labels = np.array([0, 1, 2, 3, 1])
        net = model.build_model(seed=7).astype(dtype)
        return net, inputs, labels, net.stage(inputs)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "draw",
        [[0], [3], [2, 2, 2], [4, 0, 4, 1, 0, 3, 3], [3, 1, 0, 2, 4]],
        ids=["one-row-alone", "full-pad-alone", "one-input-thrice", "repeats", "all"],
    )
    def test_batch_gives_bitwise_the_loss_and_grads_of_its_list(self, dtype, draw):
        net, inputs, labels, staged = self.staged_set(dtype)
        batch = staged[np.array(draw)]
        assert len(batch) == len(draw)
        loss, grad = model.loss_and_grads(net, batch, labels[draw])
        expected_loss, expected = model.loss_and_grads(
            net, net.stage([inputs[i] for i in draw]), labels[draw]
        )
        assert loss == expected_loss
        assert grad.dtype == dtype and grad.shape == net.vector.shape
        assert grad.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("draw", [[], [[0, 1]], 2], ids=["empty", "2-d", "scalar"])
    def test_an_index_that_is_empty_or_not_1d_is_shape_error(self, draw):
        _, _, _, staged = self.staged_set(np.float32)
        with pytest.raises(nn.ShapeError, match="1-D, non-empty index array"):
            staged[draw]

    def test_batch_predicts_bitwise_as_its_list(self):
        net, inputs, _, staged = self.staged_set(np.float32)
        draw = [4, 3, 3, 0]
        got = net.predict_batch(staged[draw])
        expected = net.predict_batch(net.stage([inputs[i] for i in draw]))
        assert got.shape == expected.shape == (len(draw), 4)
        assert got.tobytes() == expected.tobytes()

    def test_staged_set_is_the_packed_table(self):
        net, inputs, _, staged = self.staged_set(np.float32)
        rows = np.concatenate([inp.rows for inp in inputs]).astype(np.float32)
        assert staged.rows.tobytes() == rows.tobytes()
        np.testing.assert_array_equal(staged.segments.starts, [0, 1, 6, 8, 16])
        np.testing.assert_array_equal(staged.segments.ids, np.repeat(range(5), [1, 5, 2, 8, 3]))
        np.testing.assert_array_equal(staged.segments.lengths, [1, 5, 2, 8, 3])

    @given(batch=ragged_batches(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_any_draw_gives_bitwise_the_train_step_of_its_list(self, batch, data):
        inputs, labels = batch
        draw = data.draw(st.lists(st.integers(0, len(inputs) - 1), min_size=1, max_size=12))
        labels = np.array(labels)
        staged_net, list_net = model.build_model(seed=2), model.build_model(seed=2)
        staged = staged_net.stage(inputs)
        loss, state = staged_net.train_step(staged[draw], labels[draw], 0.01, None)
        expected_loss, expected_state = list_net.train_step(
            [inputs[i] for i in draw], labels[draw], 0.01, None
        )
        assert loss == expected_loss
        for name, p in staged_net.params().items():
            assert p.tobytes() == list_net.params()[name].tobytes(), name
        assert state.m.tobytes() == expected_state.m.tobytes()
        assert state.v.tobytes() == expected_state.v.tobytes()

    def test_gradcheck_mean_loss_of_three_sample_batch(self):
        net = model.build_model(seed=8)
        rng = np.random.default_rng(15)
        inputs, labels = zip(*(nn.random_safe_sample(net, rng) for _ in range(3)))
        assert len({inp.m_real for inp in inputs}) > 1  # a ragged batch
        report = nn.gradcheck(net, inputs, labels, model.loss_and_grads)
        assert report.max_relative_error < 1e-4
        assert len(report.per_parameter_errors) == net.vector.size

    @pytest.mark.parametrize("pad", [4, 0])
    def test_empty_sample_in_batch_is_an_error(self, pad):
        rng = np.random.default_rng(16)
        empty = PaddedInput(np.zeros((0, 5)), pad)
        with pytest.raises(nn.EmptyPoolError):
            model.build_model().stage([random_input(rng), empty, random_input(rng)])



@pytest.fixture(scope="module")
def desk_sets(tmp_path_factory):
    """(norm stats, train inputs, labels, class labels, val inputs, labels) of
    the seed 0-2 desk splits, read back from the written dataset as the CLI
    reads it."""
    sets = {}
    for seed in range(3):
        path = str(tmp_path_factory.mktemp("desk") / "desk.jsonl")
        preprocess.write_dataset(datagen.generate_dataset(datagen.desk_genspec(seed=seed)), path)
        train, val, _ = preprocess.trackwise_split(preprocess.read_dataset(path), seed=seed)
        stats = preprocess.compute_norm_stats(train)
        pad_length = model.ReflectNetConfig.pad_length
        sets[seed] = (
            stats,
            [preprocess.prepare_input(s, pad_length, stats) for s in train],
            np.array([s.class_index for s in train]),
            [s.class_label for s in train],
            [preprocess.prepare_input(s, pad_length, stats) for s in val],
            np.array([s.class_index for s in val]),
        )
    return sets


def assert_pools_as_relu_first(net, batch, labels):
    """forward_rows and loss_and_grads against the ReLU-before-pool reference.

    Probabilities and loss are bitwise equal; gradients are equal as numbers
    (only the sign of a zero may differ). Returns the loss and gradient.
    """
    probs = model.forward_rows(net, batch.rows, batch.segments)
    assert probs.tobytes() == oracles.reflectnet_forward_rows(net, batch).tobytes()
    loss, grad = model.loss_and_grads(net, batch, labels)
    expected_loss, expected = oracles.reflectnet_loss_and_grads(net, batch, labels)
    assert loss == expected_loss
    assert grad.dtype == expected.dtype and np.array_equal(grad, expected)
    return loss, grad


def padded(rows, pad_length=8):
    """Unnormalized feature rows, at most pad_length of them, as one input."""
    return PaddedInput(np.asarray(rows, dtype=np.float64), pad_length)


class TestPoolBeforeRelu:
    """Each max pool on pre-activations, ReLU after, against ReLU then pool."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("use_gcl", [True, False])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_desk_batches_fresh_and_after_adam_steps(self, desk_sets, seed, use_gcl, dtype):
        stats, inputs, labels = desk_sets[seed][:3]
        net = model.build_model(model.ReflectNetConfig(use_gcl=use_gcl), seed=seed)
        net.norm_stats = stats
        net = net.astype(dtype)
        staged = net.stage(inputs)
        rng = np.random.default_rng(seed)
        opt_state = None
        for _ in range(6):  # the first batch meets the fresh network
            draw = rng.integers(0, len(staged), size=64)
            loss, grad = assert_pools_as_relu_first(net, staged[draw], labels[draw])
            _, opt_state = net.update(loss, grad, 0.01, opt_state)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("use_gcl", [True, False])
    def test_duplicated_rows_tie_and_take_the_first_winner(self, use_gcl, dtype):
        rows = np.random.default_rng(12).standard_normal((3, 5))
        # input 0 is one row three times, so every feature of both pools ties
        inputs = [padded(rows[[0, 0, 0]]), padded(rows[[1, 2, 2, 0]]), padded(rows)]
        net = model.build_model(model.ReflectNetConfig(use_gcl=use_gcl), seed=12)
        net = net.astype(dtype)
        with oracles.first_winner_searches() as calls:
            model.loss_and_grads(net, net.stage(inputs), [0, 1, 2])
        assert len(calls) == (2 if use_gcl else 1)
        assert_pools_as_relu_first(net, net.stage(inputs), [0, 1, 2])

    @pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-6), (np.float64, 1e-13)])
    @pytest.mark.parametrize("use_gcl", [True, False])
    def test_a_segment_of_negative_pre_activations_passes_no_gradient(self, use_gcl, dtype, tol):
        net = model.build_model(model.ReflectNetConfig(use_gcl=use_gcl), seed=13)
        net.conv1.weights[:] = np.abs(net.conv1.weights)
        net.conv2.bias[:] = -0.5
        net = net.astype(dtype)
        rng = np.random.default_rng(13)
        positive = padded(np.abs(rng.standard_normal((4, 5))) + 0.1)
        negative = padded(-np.abs(rng.standard_normal((3, 5))) - 0.1)
        staged = net.stage([positive, negative])
        _, cache = model.forward_rows(net, staged.rows, staged.segments, keep_cache=True)
        assert (cache["z1"][4:] < 0).all() and (cache["z2"][4:] < 0).all()
        assert (cache["m2"][0] > 0).any()
        _, grad = assert_pools_as_relu_first(net, staged, [1, 2])
        # the negative segment adds nothing but its head-bias term to the sum,
        # so the rest is half the gradient of the positive segment alone
        _, alone = model.loss_and_grads(net, net.stage([positive]), [1])
        got, expected = net.params(grad), net.params(alone)
        for name in ("conv1.weights", "conv1.bias", "conv2.weights", "conv2.bias", "head.weights"):
            assert np.abs(expected[name]).max() > 0
            np.testing.assert_allclose(
                2 * got[name], expected[name], rtol=tol, atol=tol * np.abs(expected[name]).max()
            )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("use_gcl", [True, False])
    def test_single_row_segments_have_one_winner(self, use_gcl, dtype):
        rows = np.random.default_rng(14).standard_normal((5, 5))
        inputs = [padded(row[None]) for row in rows]
        net = model.build_model(model.ReflectNetConfig(use_gcl=use_gcl), seed=14)
        net = net.astype(dtype)
        with oracles.first_winner_searches() as calls:
            model.loss_and_grads(net, net.stage(inputs), [0, 1, 2, 3, 0])
        assert calls == []
        assert_pools_as_relu_first(net, net.stage(inputs), [0, 1, 2, 3, 0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("use_gcl", [True, False])
    def test_all_zero_feature_rows_fresh_and_after_adam_steps(self, use_gcl, dtype):
        rng = np.random.default_rng(15)
        inputs = [padded(np.zeros((3, 5))), padded(rng.standard_normal((4, 5))),
                  padded(np.zeros((1, 5)))]
        labels = [0, 1, 3]
        net = model.build_model(model.ReflectNetConfig(use_gcl=use_gcl), seed=15)
        net = net.astype(dtype)
        staged, opt_state = net.stage(inputs), None
        for _ in range(4):  # fresh biases are zero, so zero rows give zero pre-activations
            loss, grad = assert_pools_as_relu_first(net, staged, labels)
            _, opt_state = net.update(loss, grad, 0.05, opt_state)

    def test_every_pool_backward_of_a_desk_training_run_has_one_winner(
        self, desk_sets, monkeypatch
    ):
        """The deepreflecs_desk perfbench schedule on the seed-0 desk data: no
        pool backward falls back to the first-winner search."""
        stats, inputs, labels, class_labels, val_inputs, val_labels = desk_sets[0]
        net = model.build_model(seed=0)
        net.norm_stats = stats
        pool_calls = []
        backward = nn.segment_max_pool_backward
        monkeypatch.setattr(
            nn, "segment_max_pool_backward", lambda *a: pool_calls.append(1) or backward(*a)
        )
        schedule = trainer.TrainConfig(epochs=4, steps_per_epoch=32, batch_size=64, seed=0)
        with oracles.first_winner_searches() as searches:
            trainer.train(net, inputs, labels, class_labels, val_inputs, val_labels, schedule)
        assert len(pool_calls) == 4 * 32 * 2  # two pools per step with the GCL
        assert searches == []


@pytest.fixture(scope="module")
def perfbench_trained():
    """use_gcl -> (model trained on the deepreflecs_desk perfbench schedule, the
    inputs of every seed-0 desk object), with the train split's norm stats."""
    samples = datagen.generate_dataset(datagen.desk_genspec(seed=0))
    train, val, _ = preprocess.trackwise_split(samples, seed=0)
    stats, pad_length = preprocess.compute_norm_stats(train), model.ReflectNetConfig.pad_length

    def inputs(split):
        return [preprocess.prepare_input(s, pad_length, stats) for s in split]

    def labels(split):
        return np.array([s.class_index for s in split])

    schedule = trainer.TrainConfig(epochs=4, steps_per_epoch=32, batch_size=64, seed=0)
    trained = {}
    for use_gcl in (True, False):
        net = model.build_model(model.ReflectNetConfig(use_gcl=use_gcl), seed=0)
        net.norm_stats = stats
        trained[use_gcl], _ = trainer.train(
            net, inputs(train), labels(train), [s.class_label for s in train],
            inputs(val), labels(val), schedule,
        )
    return trained, inputs(samples)


# rows of each one-input edge case, given an rng
EDGE_ROWS = {
    "1-row": lambda rng: rng.standard_normal((1, 5)),
    "duplicated-rows": lambda rng: np.repeat(rng.standard_normal((3, 5)), 3, axis=0),
    "all-zero-rows": lambda rng: np.zeros((4, 5)),
    "negative-zero-rows": lambda rng: np.full((4, 5), -0.0),
    "pad-length-rows": lambda rng: rng.standard_normal((model.ReflectNetConfig.pad_length, 5)),
    "magnitude-1e3": lambda rng: rng.standard_normal((6, 5)) * 1e3,
}


class TestOneInput:
    """predict runs one input's rows as one segment, with no staged batch, and
    gives bitwise predict_batch of that input staged alone."""

    @staticmethod
    def assert_predicts_as_staged_alone(net, inp):
        single = net.predict(inp)
        staged = net.predict_batch(net.stage([inp]))[0]
        assert single.probabilities.tobytes() == staged.tobytes()
        assert single.predicted == int(staged.argmax())

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("use_gcl", [True, False])
    def test_every_desk_object_on_a_perfbench_trained_model(self, perfbench_trained, use_gcl,
                                                            dtype):
        trained, inputs = perfbench_trained
        net = trained[use_gcl].astype(dtype)
        assert len(inputs) == 1407
        for inp in inputs:
            self.assert_predicts_as_staged_alone(net, inp)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("use_gcl", [True, False])
    @pytest.mark.parametrize("case", EDGE_ROWS)
    def test_edge_inputs(self, perfbench_trained, use_gcl, dtype, case):
        net = perfbench_trained[0][use_gcl].astype(dtype)
        rows = EDGE_ROWS[case](np.random.default_rng(18))
        self.assert_predicts_as_staged_alone(net, PaddedInput(rows, net.config.pad_length))

    def test_predict_leaves_its_input_rows_as_they_were(self):
        net = model.build_model(seed=0).astype(np.float64)
        inp = random_input(np.random.default_rng(19), m=7)
        before = inp.rows.copy()
        net.predict(inp)
        assert inp.rows.tobytes() == before.tobytes()


# a reflection-network gradient of a batch of 1,082 rows (135 inputs of 8
# rows and one of 2), hashed; 1,082 rows of conv2 are two weight blocks.
# Then a grid-CNN gradient of 600 grids with dropout on, hashed: 600 rows of
# dense1 and dense2 lie past the SkylakeX kernel's thread split at 449 rows
GRADIENT_OF_1082_ROWS = """
import hashlib
import numpy as np
from deepreflecs import gridcnn, model, preprocess
rng = np.random.default_rng(0)
net = model.build_model(seed=0)
inputs = [preprocess.PaddedInput(rng.standard_normal((m, 5)), 8) for m in [8] * 135 + [2]]
batch = net.stage(inputs)
assert batch.rows.shape[0] == 1082
_, grad = model.loss_and_grads(net, batch, rng.integers(0, 4, size=len(inputs)))
print(hashlib.sha256(grad.tobytes()).hexdigest())
cnn = gridcnn.build_gridcnn(seed=0)
stack = cnn.stage([cnn.random_input(rng) for _ in range(600)])
_, grad = gridcnn.loss_and_grads(cnn, stack, rng.integers(0, 4, size=600), rng=rng)
print(hashlib.sha256(grad.tobytes()).hexdigest())
"""


class TestBlasThreadCount:
    def test_a_1082_row_gradient_is_the_same_under_one_and_two_blas_threads(self):
        digests = []
        for threads in (1, 2):
            done = subprocess.run(
                [sys.executable, "-c", GRADIENT_OF_1082_ROWS], capture_output=True, text=True,
                env=blas_env(threads), timeout=120,
            )
            assert done.returncode == 0, done.stderr[-2000:]
            digests.append(done.stdout.split())
        assert [len(d) for d in digests[0]] == [64, 64] and digests[0] == digests[1]

    def test_every_desk_batch_of_the_default_schedule_is_one_weight_block(self, monkeypatch):
        """The default 32 x 64-step schedule on the seed-0 desk split, and a
        grid-CNN batch of 64 grids: every weight gradient is one product, so
        its bits are those of x.T @ g."""
        calls = []
        add_weight_grad = nn.add_weight_grad

        def counted(x, grad_out, grad):
            calls.append(x.shape[0] * x.shape[1] * grad_out.shape[1])
            return add_weight_grad(x, grad_out, grad)

        monkeypatch.setattr(nn, "add_weight_grad", counted)
        samples = datagen.generate_dataset(datagen.desk_genspec(seed=0))
        splits = preprocess.trackwise_split(samples, seed=0)
        evaluate._reflectnet_trained(splits, trainer.TrainConfig(), None)
        assert len(calls) == 32 * 64 * 3
        assert max(calls) <= nn.WEIGHT_GRAD_BLOCK

        one_block = []  # per grid-CNN dense layer, whether its gradient is one product

        def compared(x, grad_out, grad):
            assert not grad.weights.any()  # a fresh slot, so it ends as the one product
            add_weight_grad(x, grad_out, grad)
            one_block.append(grad.weights.tobytes() == (x.T @ grad_out).tobytes())

        monkeypatch.setattr(nn, "add_weight_grad", compared)
        cnn = gridcnn.build_gridcnn(seed=0)
        rng = np.random.default_rng(0)
        stack = cnn.stage([cnn.random_input(rng) for _ in range(64)])
        gridcnn.loss_and_grads(cnn, stack, rng.integers(0, 4, size=64), rng=rng)
        assert one_block == [True] * 3


# the tests whose bitwise invariances hold only on some BLAS kernels (ROADMAP item 9)
KERNEL_INVARIANCE_TESTS = [
    "test_acceptance.py::test_criterion_2_permutation_invariance",
    "test_model.py::TestForward::test_permutation_invariance_bitwise",
    "test_model.py::TestForward::test_masked_garbage_invariance_bitwise",
    "test_model.py::TestForward::test_ablated_model_still_invariant",
    "test_nn.py::TestRowwiseLinear::test_permuting_rows_permutes_product_rows_bitwise",
]
KERNEL_NOT_FORCED = 77  # the child's exit code when OpenBLAS runs another kernel

# run with the test directory as working directory and the test ids as arguments
UNDER_THE_KERNEL = f"""
import sys
import pytest
from test_golden import openblas_kernel
try:
    kernel = openblas_kernel()
except OSError as exc:  # numpy's OpenBLAS could not be opened
    kernel = exc
if kernel != "Haswell":
    print(f"OpenBLAS runs the {{kernel}} kernel")
    sys.exit({KERNEL_NOT_FORCED})
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[1:]]))
"""


class TestBlasKernel:
    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 9b")
    def test_invariance_tests_hold_under_the_haswell_kernel(self):
        """The bitwise invariance tests in a child process on the kernel of an
        AVX2 host; skipped where the kernel cannot be read or forced."""
        done = subprocess.run(
            [sys.executable, "-c", UNDER_THE_KERNEL, *KERNEL_INVARIANCE_TESTS],
            capture_output=True, text=True, cwd=Path(__file__).parent, timeout=300,
            env=dict(blas_env(1), OPENBLAS_CORETYPE="Haswell"),
        )
        if done.returncode == KERNEL_NOT_FORCED:
            pytest.skip(done.stdout.strip())
        # pytest's last line counts the tests it ran; a crashed child prints none
        if not re.search(r"\d+ (passed|failed)", done.stdout.strip().rpartition("\n")[2]):
            raise RuntimeError(f"the child ran no tests:\n{done.stdout[-2000:]}"
                               f"{done.stderr[-2000:]}")
        assert done.returncode == 0, done.stdout[-3000:]


class TestSerialization:
    def test_round_trip_bitwise(self):
        net = model.build_model(seed=20)
        net.norm_stats = NormStats(np.arange(5, dtype=float), np.arange(1, 6, dtype=float))
        state = None
        rng = np.random.default_rng(1)
        for _ in range(3):
            _, state = model.train_step(net, net.stage([random_input(rng)]), [2], 0.01, state)
        restored = model.deserialize(model.serialize(net))
        assert restored.config == net.config
        for name, p in net.params().items():
            assert np.array_equal(p, restored.params()[name])
        assert np.array_equal(restored.norm_stats.mean, net.norm_stats.mean)
        assert np.array_equal(restored.norm_stats.std, net.norm_stats.std)

    def test_restored_model_predicts_identically(self):
        net = model.build_model(seed=21)
        restored = model.deserialize(model.serialize(net))
        inp = random_input(np.random.default_rng(2))
        assert np.array_equal(
            model.forward(net, inp).probabilities,
            model.forward(restored, inp).probabilities,
        )

    def test_corrupted_length_field(self):
        blob = bytearray(model.serialize(model.build_model()))
        import struct

        blob[8:12] = struct.pack("<I", 0xFFFFFF)
        with pytest.raises(container.TruncationError):
            model.deserialize(bytes(blob))

    def test_future_version(self):
        blob = bytearray(model.serialize(model.build_model()))
        import struct

        blob[4:8] = struct.pack("<I", 9)
        with pytest.raises(container.VersionError) as err:
            model.deserialize(bytes(blob))
        assert "9" in str(err.value) and "1" in str(err.value)

    @pytest.mark.parametrize(
        "config",
        [
            {"width1": 16, "bogus": 1}, [16, 32], {"width1": 0}, {"n_classes": 10**12},
            {"n_classes": 1.5}, {"use_gcl": "no"}, {"pad_length": 10**9},
            {"n_classes": 3}, {"n_classes": 5}, {"n_features": 3},
        ],
        ids=["unknown-key", "json-list", "invalid-width", "n-classes-huge",
             "n-classes-float", "use-gcl-string", "pad-length-huge",
             "n-classes-3", "n-classes-5", "n-features-3"],
    )
    def test_bad_config_is_container_error(self, config):
        parsed = container.read_container(model.serialize(model.build_model()), model.MAGIC)
        blob = container.write_container(
            model.MAGIC, config, (parsed.norm_means, parsed.norm_stds),
            list(parsed.arrays.items()),
        )
        with pytest.raises(container.ContainerError):
            model.deserialize(blob)

    def test_a_file_of_another_pad_length_is_container_error_naming_it(self):
        parsed = container.read_container(model.serialize(model.build_model()), model.MAGIC)
        blob = container.write_container(
            model.MAGIC, {**parsed.config, "pad_length": 32}, (parsed.norm_means, parsed.norm_stds),
            list(parsed.arrays.items()),
        )
        with pytest.raises(container.ContainerError, match="pad_length"):
            model.deserialize(blob)

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda means, stds, arrays: stds.__setitem__(2, 0.0), "^norm-stats block: column 2:"),
            (lambda means, stds, arrays: stds.__setitem__(3, np.inf), "^norm-stats block: column 3:"),
            (lambda means, stds, arrays: means.__setitem__(0, np.nan), "^norm-stats block: column 0:"),
            (lambda means, stds, arrays: arrays["conv2.weights"].__setitem__((3, 1), np.nan),
             "'conv2.weights' holds a value that is not finite"),
        ],
        ids=["zero-norm-std", "inf-norm-std", "nan-norm-mean", "nan-weight"],
    )
    def test_bad_numbers_are_container_error(self, edit, match):
        parsed = container.read_container(model.serialize(model.build_model()), model.MAGIC)
        # parsed arrays are read-only views of the file: edit copies
        means, stds = parsed.norm_means.copy(), parsed.norm_stds.copy()
        arrays = {name: array.copy() for name, array in parsed.arrays.items()}
        edit(means, stds, arrays)
        blob = container.write_container(
            model.MAGIC, parsed.config, (means, stds), list(arrays.items())
        )
        with pytest.raises(container.ContainerError, match=match):
            model.deserialize(blob)

    def test_save_load_files(self, tmp_path):
        # a model file is read back by the magic dispatch of `deepreflecs eval`
        net = model.build_model(seed=22)
        path = tmp_path / "net.rfln"
        path.write_bytes(model.serialize(net))
        blob = path.read_bytes()
        restored = evaluate.method_for(blob).deserialize(blob)
        assert np.array_equal(restored.conv1.weights, net.conv1.weights)
