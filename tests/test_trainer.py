"""Tests for the LR schedule, re-sampling, and the training loop."""

import numpy as np
import pytest

from deepreflecs import model, nn, trainer
from deepreflecs.preprocess import PaddedInput


def toy_data(rng, n=24, pad=4):
    """Two linearly separated blobs labelled 0 / 1, padded net inputs."""
    inputs, labels, class_labels = [], [], []
    for i in range(n):
        label = i % 2
        m = int(rng.integers(1, pad + 1))
        inputs.append(PaddedInput(rng.normal(loc=3.0 * label, scale=0.4, size=(m, 5)), pad))
        labels.append(label)
        class_labels.append("car" if label == 0 else "pedestrian")
    return inputs, np.array(labels), class_labels


class TestLrSchedule:
    def test_endpoints_exact(self):
        config = trainer.TrainConfig(epochs=256)
        assert trainer.lr_at(0, config) == 0.01
        assert trainer.lr_at(255, config) == 0.0001

    def test_closed_form_interior_point(self):
        config = trainer.TrainConfig(epochs=256)
        expected = 0.01 * (0.0001 / 0.01) ** (51 / 255)
        assert expected == pytest.approx(3.981e-3, rel=1e-3)
        assert trainer.lr_at(51, config) == pytest.approx(expected, rel=1e-12)

    def test_strictly_decreasing(self):
        config = trainer.TrainConfig(epochs=64)
        values = [trainer.lr_at(e, config) for e in range(64)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_out_of_range(self):
        config = trainer.TrainConfig(epochs=4)
        with pytest.raises(ValueError):
            trainer.lr_at(4, config)

    def test_a_single_epoch_runs_at_lr_start(self):
        config = trainer.TrainConfig(epochs=1)
        assert trainer.lr_at(0, config) == 0.01
        with pytest.raises(ValueError):
            trainer.lr_at(1, config)

    def test_desk_defaults_hit_endpoints_too(self):
        config = trainer.TrainConfig()
        assert trainer.lr_at(0, config) == 0.01
        assert trainer.lr_at(config.epochs - 1, config) == 0.0001


class TestResample:
    def test_duplication_factors(self):
        labels = ["pedestrian"] * 10 + ["car"] * 3
        multiset = trainer.resample_indices(labels, {"pedestrian": 2, "car": 1})
        assert multiset.size == 23
        assert (multiset < 10).sum() == 20

    def test_identity_factors(self):
        labels = ["car", "cyclist", "car"]
        multiset = trainer.resample_indices(labels, {"car": 1, "cyclist": 1})
        np.testing.assert_array_equal(multiset, [0, 1, 2])

    def test_order_matches_per_sample_loop(self):
        labels = ["cyclist", "car", "non_obstacle", "pedestrian", "truck", "car"]
        factors = {"car": 3, "cyclist": 0, "non_obstacle": 2, "pedestrian": 1}
        reference = []
        for i, label in enumerate(labels):
            reference.extend([i] * factors.get(label, 1))
        multiset = trainer.resample_indices(labels, factors)
        assert multiset.dtype == np.int64
        np.testing.assert_array_equal(multiset, reference)

    def test_no_labels_give_an_empty_multiset(self):
        multiset = trainer.resample_indices([], {"car": 2})
        assert multiset.dtype == np.int64 and multiset.size == 0

    def test_training_factors(self):
        assert trainer.RESAMPLE == {
            "car": 1, "pedestrian": 2, "cyclist": 2, "non_obstacle": 4
        }


class TestTrainConfigChecks:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("epochs", "2"), ("epochs", True), ("epochs", 2.0),
            ("steps_per_epoch", None), ("batch_size", 2.5), ("seed", "0"),
            ("seed", False), ("seed", -1),
            ("lr_start", "0.01"), ("lr_start", True), ("lr_start", float("inf")),
            ("lr_end", float("nan")),
        ],
    )
    def test_bad_value_is_value_error_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            trainer.TrainConfig(**{field: value})

    def test_integral_learning_rates_are_accepted(self):
        config = trainer.TrainConfig(lr_start=1, lr_end=0.5)
        assert config.lr_start == 1


class TestTrainLoop:
    def make_config(self, **kw):
        defaults = dict(epochs=3, steps_per_epoch=8, batch_size=8, seed=0)
        defaults.update(kw)
        return trainer.TrainConfig(**defaults)

    def test_single_epoch_best_is_zero(self):
        rng = np.random.default_rng(0)
        inputs, labels, classes = toy_data(rng)
        net = model.build_model(model.ReflectNetConfig(pad_length=4), seed=0)
        _, report = trainer.train(
            net, inputs, labels, classes, inputs, labels, self.make_config(epochs=1)
        )
        assert report.best_epoch == 0
        assert len(report.epoch_losses) == 1

    def test_deterministic_report(self):
        rng = np.random.default_rng(1)
        inputs, labels, classes = toy_data(rng)
        net = model.build_model(model.ReflectNetConfig(pad_length=4), seed=1)
        _, a = trainer.train(net, inputs, labels, classes, inputs, labels, self.make_config())
        _, b = trainer.train(net, inputs, labels, classes, inputs, labels, self.make_config())
        assert a.core() == b.core()

    def test_caller_model_not_mutated(self):
        rng = np.random.default_rng(2)
        inputs, labels, classes = toy_data(rng)
        net = model.build_model(model.ReflectNetConfig(pad_length=4), seed=2)
        before = {k: v.copy() for k, v in net.params().items()}
        trainer.train(net, inputs, labels, classes, inputs, labels, self.make_config())
        for name, p in net.params().items():
            assert np.array_equal(p, before[name])

    def test_best_snapshot_is_the_state_at_that_epoch(self):
        # independent replay oracle: rebuild the exact batch draws and
        # optimizer steps up to the best epoch and compare parameters
        rng = np.random.default_rng(3)
        inputs, labels, classes = toy_data(rng)
        net = model.build_model(model.ReflectNetConfig(pad_length=4), seed=3)
        config = self.make_config(epochs=4)
        best, report = trainer.train(net, inputs, labels, classes, inputs, labels, config)

        replay = net.copy()
        replay_rng = np.random.default_rng(config.seed)
        multiset = trainer.resample_indices(classes, trainer.RESAMPLE)
        state = None
        for epoch in range(report.best_epoch + 1):
            lr = trainer.lr_at(epoch, config)
            for _ in range(config.steps_per_epoch):
                draw = multiset[
                    replay_rng.integers(0, multiset.size, size=config.batch_size)
                ]
                _, state = replay.train_step(
                    [inputs[i] for i in draw], labels[draw], lr, state, rng=replay_rng
                )
        for name, p in best.params().items():
            assert np.array_equal(p, replay.params()[name])

    @pytest.mark.parametrize(
        "cut, message",
        [
            (dict(train_inputs=0, train_labels=0, train_class_labels=0), "empty training set"),
            (dict(val_inputs=0, val_labels=0), "empty validation set"),
            (dict(val_labels=-1), "validation labels"),
            (dict(val_inputs=-1), "validation labels"),
            (dict(train_labels=-1), "differ in length"),
            (dict(train_class_labels=-1), "differ in length"),
            (dict(train_inputs=-1), "differ in length"),
        ],
        ids=["empty-train", "empty-val", "val-labels-short", "val-inputs-short", "train-labels-short",
             "class-labels-short", "train-inputs-short"],
    )
    def test_bad_split_is_training_error_before_any_step(self, cut, message, monkeypatch):
        inputs, labels, classes = toy_data(np.random.default_rng(6))
        split = dict(
            train_inputs=inputs, train_labels=labels, train_class_labels=classes,
            val_inputs=inputs, val_labels=labels,
        )
        split.update({name: split[name][:stop] for name, stop in cut.items()})
        net = model.build_model(model.ReflectNetConfig(pad_length=4), seed=6)
        monkeypatch.setattr(model, "train_step", None)  # no step may run
        with pytest.raises(nn.TrainingError, match=message):
            trainer.train(net, config=self.make_config(), **split)

    def test_class_labels_that_do_not_name_the_labels_are_value_error(self, monkeypatch):
        inputs, labels, classes = toy_data(np.random.default_rng(6))
        classes[3] = "cyclist"  # sample 3 is labelled 1, a pedestrian
        net = model.build_model(model.ReflectNetConfig(pad_length=4), seed=6)
        monkeypatch.setattr(model, "train_step", None)  # no step may run
        match = "training sample 3 has label 1 \\(pedestrian\\) but class label 'cyclist'"
        with pytest.raises(ValueError, match=match):
            trainer.train(net, inputs, labels, classes, inputs, labels, self.make_config())

    @pytest.mark.parametrize("epochs, steps", [(1, 1), (3, 5)])
    def test_inputs_are_packed_once_per_run(self, epochs, steps, monkeypatch):
        inputs, labels, classes = toy_data(np.random.default_rng(7))
        net = model.build_model(model.ReflectNetConfig(pad_length=4), seed=7)
        calls = []
        stage = model.ReflectNetModel.stage
        monkeypatch.setattr(
            model.ReflectNetModel, "stage", lambda *a: calls.append(1) or stage(*a)
        )
        config = self.make_config(epochs=epochs, steps_per_epoch=steps)
        trainer.train(net, inputs, labels, classes, inputs[:5], labels[:5], config)
        assert len(calls) == 2  # the training set and the validation set

    def test_toy_problem_learns(self):
        rng = np.random.default_rng(4)
        inputs, labels, classes = toy_data(rng, n=40)
        net = model.build_model(model.ReflectNetConfig(pad_length=4), seed=4)
        best, report = trainer.train(
            net, inputs, labels, classes, inputs, labels,
            self.make_config(epochs=6, steps_per_epoch=16),
        )
        assert max(report.val_accuracies) == report.val_accuracies[report.best_epoch]
        assert report.val_accuracies[report.best_epoch] > 0.9

    def test_report_core_excludes_wall_time(self):
        report = trainer.TrainReport([1.0], [0.5], 0, 12.5)
        assert "wall_time_s" not in report.core()
        assert report.to_json_dict()["wall_time_s"] == 12.5
