"""Tests for the reflection network: counts, invariances, training, files."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deepreflecs import container, evaluate, model, nn
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


def random_input(rng, pad_length=64, m=None, n_features=5):
    m = m or int(rng.integers(1, pad_length + 1))
    features = np.zeros((pad_length, n_features))
    features[:m] = rng.standard_normal((m, n_features))
    mask = np.zeros(pad_length, dtype=bool)
    mask[:m] = True
    return PaddedInput(features=features, mask=mask, m_real=m)


class TestParameterCounts:
    def test_default_build_is_1284(self):
        net = model.build_model()
        assert model.count_params(net) == 1284
        assert element_count_oracle(net) == 1284

    def test_small_config_matches_oracle(self):
        cfg = model.ReflectNetConfig(n_features=5, width1=8, width2=16, n_classes=4)
        net = model.build_model(cfg)
        # 5*8+8 + 16*16+16 + 16*4+4
        assert model.count_params(net) == 388
        assert element_count_oracle(net) == 388

    def test_ablated_build_matches_oracle(self):
        # removing the context layer halves conv2's input width (16 instead
        # of 32), all other widths fixed: 96 + 544 + 132
        net = model.build_model(model.ReflectNetConfig(use_gcl=False))
        assert model.count_params(net) == element_count_oracle(net) == 772

    def test_single_linear_params(self):
        params = nn.LinearParams(np.zeros((3, 2)), np.zeros(2))
        assert params.size() == 8

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
            perm = rng.permutation(inp.features.shape[0])
            permuted = PaddedInput(inp.features[perm], inp.mask[perm], inp.m_real)
            assert np.array_equal(model.forward(net, permuted).probabilities, base)

    def test_pad_length_invariance_bitwise(self):
        rng = np.random.default_rng(6)
        net = model.build_model(seed=1)
        m = 5
        rows = rng.standard_normal((m, 5))
        outs = []
        for pad in (32, 64):
            features = np.zeros((pad, 5))
            features[:m] = rows
            mask = np.zeros(pad, dtype=bool)
            mask[:m] = True
            outs.append(model.forward(net, PaddedInput(features, mask, m)).probabilities)
        assert np.array_equal(outs[0], outs[1])

    def test_masked_garbage_invariance_bitwise(self):
        rng = np.random.default_rng(7)
        net = model.build_model(seed=1)
        inp = random_input(rng, m=4)
        base = model.forward(net, inp).probabilities
        garbage = inp.features.copy()
        garbage[4:] = rng.standard_normal(garbage[4:].shape) * 1e6
        assert np.array_equal(
            model.forward(net, PaddedInput(garbage, inp.mask, 4)).probabilities, base
        )

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
        features = np.zeros((8, 5))
        with pytest.raises(nn.EmptyPoolError):
            model.forward(
                net, PaddedInput(features, np.zeros(8, dtype=bool), 0)
            )

    def test_ablated_model_still_invariant(self):
        rng = np.random.default_rng(9)
        net = model.build_model(model.ReflectNetConfig(use_gcl=False), seed=3)
        inp = random_input(rng, m=7)
        base = model.forward(net, inp).probabilities
        perm = rng.permutation(inp.features.shape[0])
        permuted = PaddedInput(inp.features[perm], inp.mask[perm], inp.m_real)
        assert np.array_equal(model.forward(net, permuted).probabilities, base)


class TestTrainStep:
    def test_repeated_sample_batch_matches_single(self):
        # the mean over k identical terms equals the single term, so the
        # update direction is the same (up to float32 summation rounding)
        rng = np.random.default_rng(10)
        inp = random_input(rng, m=3)
        a = model.build_model(seed=4)
        b = model.build_model(seed=4)
        loss_a, _ = model.train_step(a, [inp], [1], 0.01, optimizer="sgd")
        loss_b, _ = model.train_step(b, [inp] * 5, [1] * 5, 0.01, optimizer="sgd")
        assert loss_a == pytest.approx(loss_b)
        for name, p in a.params().items():
            np.testing.assert_allclose(p, b.params()[name], rtol=1e-5, atol=1e-7)

    def test_zero_lr_keeps_parameters(self):
        rng = np.random.default_rng(11)
        net = model.build_model(seed=5)
        before = {k: v.copy() for k, v in net.params().items()}
        loss, _ = model.train_step(net, [random_input(rng)], [0], 0.0)
        assert loss > 0
        for name, p in net.params().items():
            assert np.array_equal(p, before[name])

    def test_two_point_toy_set_converges(self):
        rng = np.random.default_rng(12)
        cfg = model.ReflectNetConfig(pad_length=4)
        net = model.build_model(cfg, seed=6)
        a = random_input(rng, pad_length=4, m=2)
        b = PaddedInput(a.features + 3.0, a.mask.copy(), a.m_real)
        state = None
        for _ in range(200):
            loss, state = model.train_step(net, [a, b], [0, 1], 0.05, state)
        assert loss < 0.01

    def test_gradcheck_full_model_small_list(self):
        cfg = model.ReflectNetConfig(pad_length=3)
        net = model.build_model(cfg, seed=7)
        rng = np.random.default_rng(13)
        inp, label = model.random_safe_sample(net, rng)
        report = model.gradcheck(net, inp, label)
        assert report.max_relative_error < 1e-4
        assert len(report.per_parameter_errors) == model.count_params(net)


@st.composite
def ragged_batches(draw):
    """1-6 samples of 1-64 reflections each, padded and shuffled among garbage rows.

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
        pad = m + draw(st.integers(0, 8))
        features = rng.standard_normal((pad, 5)) * 1e3
        real = np.sort(rng.choice(pad, size=m, replace=False))
        features[real] = rows
        mask = np.zeros(pad, dtype=bool)
        mask[real] = True
        inputs.append(PaddedInput(features, mask, m))
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
        net = model.build_model(seed=3, dtype=dtype)
        loss, grads = model.loss_and_grads(net, inputs, labels)
        singles = [model.loss_and_grads(net, [inp], [y]) for inp, y in zip(inputs, labels)]
        assert loss == pytest.approx(np.mean([l for l, _ in singles]), rel=tol)
        for name, grad in grads.items():
            assert grad.dtype == dtype
            reference = np.mean([g[name].astype(np.float64) for _, g in singles], axis=0)
            np.testing.assert_allclose(
                grad, reference, rtol=tol, atol=tol * np.abs(reference).max()
            )

    @given(batch=ragged_batches())
    @settings(max_examples=30, deadline=None)
    def test_batched_probabilities_match_single_forward(self, batch):
        # not bitwise: BLAS may take another kernel for a one-row product
        inputs, _ = batch
        net = model.build_model(seed=4)
        probs = model.forward_rows(net, *model.pack(inputs, np.float32))
        single = np.stack([model.forward(net, inp).probabilities for inp in inputs])
        np.testing.assert_allclose(probs, single, rtol=1e-5)

    @given(batch=ragged_batches())
    @settings(max_examples=30, deadline=None)
    def test_predict_batch_matches_predict(self, batch):
        inputs, _ = batch
        net = model.build_model(seed=5)
        batched = net.predict_batch(inputs)
        assert len(batched) == len(inputs)
        for inp, dist in zip(inputs, batched):
            single = net.predict(inp)
            np.testing.assert_allclose(dist.probabilities, single.probabilities, atol=1e-6)
            assert dist.predicted == int(np.argmax(dist.probabilities))
            if np.sort(single.probabilities)[-2] < single.probabilities.max() - 1e-5:
                assert dist.predicted == single.predicted  # no near-tie to flip

    def test_predict_batch_of_nothing(self):
        assert model.build_model().predict_batch([]) == []

    def test_gradcheck_mean_loss_of_three_sample_batch(self):
        net = model.build_model(model.ReflectNetConfig(pad_length=8), seed=8)
        wide = net.astype(np.float64)
        rng = np.random.default_rng(15)
        inputs, labels = zip(*(model.random_safe_sample(net, rng) for _ in range(3)))
        assert len({inp.m_real for inp in inputs}) > 1  # a ragged batch
        _, analytic = model.loss_and_grads(wide, inputs, labels)

        def mean_loss(_params):
            probs = model.forward_rows(wide, *model.pack(inputs, np.float64))
            return nn.mean_cross_entropy(probs, np.array(labels))

        report = nn.finite_diff_gradcheck(mean_loss, wide.params(), analytic)
        assert report.max_relative_error < 1e-4
        assert len(report.per_parameter_errors) == model.count_params(net)

    @pytest.mark.parametrize("pad", [4, 0])
    def test_empty_sample_in_batch_is_an_error(self, pad):
        rng = np.random.default_rng(16)
        empty = PaddedInput(np.zeros((pad, 5)), np.zeros(pad, dtype=bool), 0)
        with pytest.raises(nn.EmptyPoolError):
            model.loss_and_grads(
                model.build_model(), [random_input(rng), empty, random_input(rng)], [0, 1, 2]
            )

    def test_mask_and_features_of_different_length_is_an_error(self):
        rng = np.random.default_rng(17)
        bad = PaddedInput(np.zeros((4, 5)), np.ones(3, dtype=bool), 3)
        with pytest.raises(nn.ShapeError):
            model.loss_and_grads(model.build_model(), [random_input(rng), bad], [0, 1])


class TestSerialization:
    def test_round_trip_bitwise(self):
        net = model.build_model(seed=20)
        net.norm_stats = NormStats(np.arange(5, dtype=float), np.arange(1, 6, dtype=float))
        state = None
        rng = np.random.default_rng(1)
        for _ in range(3):
            _, state = model.train_step(net, [random_input(rng)], [2], 0.01, state)
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
        ],
        ids=["unknown-key", "json-list", "invalid-width", "n-classes-huge",
             "n-classes-float", "use-gcl-string", "pad-length-huge"],
    )
    def test_bad_config_is_container_error(self, config):
        parsed = container.read_container(model.serialize(model.build_model()), model.MAGIC)
        blob = container.write_container(
            model.MAGIC, config, (parsed.norm_means, parsed.norm_stds),
            list(parsed.arrays.items()),
        )
        with pytest.raises(container.ContainerError):
            model.deserialize(blob)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda means, stds, arrays: stds.__setitem__(2, 0.0),
            lambda means, stds, arrays: means.__setitem__(0, np.nan),
            lambda means, stds, arrays: arrays["conv2.weights"].__setitem__((3, 1), np.nan),
        ],
        ids=["zero-norm-std", "nan-norm-mean", "nan-weight"],
    )
    def test_bad_numbers_are_container_error(self, edit):
        parsed = container.read_container(model.serialize(model.build_model()), model.MAGIC)
        edit(parsed.norm_means, parsed.norm_stds, parsed.arrays)
        blob = container.write_container(
            model.MAGIC, parsed.config, (parsed.norm_means, parsed.norm_stds),
            list(parsed.arrays.items()),
        )
        with pytest.raises(container.ContainerError):
            model.deserialize(blob)

    def test_save_load_files(self, tmp_path):
        # a model file is read back by the magic dispatch of `deepreflecs eval`
        net = model.build_model(seed=22)
        path = tmp_path / "net.rfln"
        path.write_bytes(model.serialize(net))
        blob = path.read_bytes()
        restored = evaluate.method_for(blob).deserialize(blob)
        assert np.array_equal(restored.conv1.weights, net.conv1.weights)
