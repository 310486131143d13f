"""Tests for losses, optimisers, schedulers, metrics and the training loop."""

from __future__ import annotations

import numpy as np
import pytest

import repro.nn as nn
from repro.nn.functional import softmax
from repro.nn.losses import CrossEntropyLoss
from repro.nn.metrics import accuracy, confusion_matrix
from repro.nn.optim import SGD, Adam
from repro.nn.schedulers import CosineDecay, StepDecay
from repro.nn.tensor import Parameter
from repro.nn.trainer import Trainer, TrainingConfig


class TestCrossEntropy:
    def test_uniform_logits_loss_is_log_classes(self):
        loss_fn = CrossEntropyLoss()
        logits = np.zeros((4, 5))
        loss = loss_fn.forward(logits, np.array([0, 1, 2, 3]))
        assert abs(loss - np.log(5)) < 1e-9

    def test_perfect_prediction_low_loss(self):
        loss_fn = CrossEntropyLoss()
        logits = np.eye(3) * 50
        assert loss_fn.forward(logits, np.array([0, 1, 2])) < 1e-6

    def test_gradient_matches_softmax_minus_onehot(self):
        loss_fn = CrossEntropyLoss()
        logits = np.random.default_rng(0).normal(size=(3, 4))
        labels = np.array([1, 0, 3])
        loss_fn.forward(logits, labels)
        grad = loss_fn.backward()
        expected = softmax(logits, axis=1)
        expected[np.arange(3), labels] -= 1
        np.testing.assert_allclose(grad, expected / 3.0, atol=1e-12)

    def test_gradient_numeric(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(2, 3))
        labels = np.array([2, 0])
        loss_fn = CrossEntropyLoss()
        loss_fn.forward(logits, labels)
        grad = loss_fn.backward()
        eps = 1e-6
        for idx in [(0, 0), (1, 2), (0, 1)]:
            perturbed = logits.copy()
            perturbed[idx] += eps
            plus = CrossEntropyLoss().forward(perturbed, labels)
            perturbed[idx] -= 2 * eps
            minus = CrossEntropyLoss().forward(perturbed, labels)
            assert abs((plus - minus) / (2 * eps) - grad[idx]) < 1e-6

    def test_sample_weights_shift_loss(self):
        loss_fn = CrossEntropyLoss()
        logits = np.array([[10.0, 0.0], [0.0, 10.0]])
        labels = np.array([0, 0])  # second sample is wrong
        unweighted = loss_fn.forward(logits, labels)
        weighted = CrossEntropyLoss().forward(
            logits, labels, sample_weights=np.array([1.0, 0.01])
        )
        assert weighted < unweighted

    def test_label_smoothing_increases_perfect_loss(self):
        logits = np.eye(3) * 50
        labels = np.array([0, 1, 2])
        plain = CrossEntropyLoss().forward(logits, labels)
        smoothed = CrossEntropyLoss(label_smoothing=0.1).forward(logits, labels)
        assert smoothed > plain

    def test_shape_validation(self):
        loss_fn = CrossEntropyLoss()
        with pytest.raises(ValueError):
            loss_fn.forward(np.zeros((2, 3)), np.array([0, 1, 2]))
        with pytest.raises(ValueError):
            loss_fn.forward(np.zeros(3), np.array([0]))

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            CrossEntropyLoss().backward()


class TestOptimisers:
    def _quadratic_param(self):
        return Parameter(np.array([5.0, -3.0]), name="x")

    def test_sgd_reduces_quadratic(self):
        param = self._quadratic_param()
        opt = SGD([param], lr=0.1, momentum=0.0)
        for _ in range(100):
            opt.zero_grad()
            param.accumulate_grad(2 * param.data)
            opt.step()
        assert np.abs(param.data).max() < 1e-3

    def test_sgd_momentum_accelerates(self):
        param_plain = self._quadratic_param()
        param_momentum = self._quadratic_param()
        opt_plain = SGD([param_plain], lr=0.01, momentum=0.0)
        opt_momentum = SGD([param_momentum], lr=0.01, momentum=0.9)
        for _ in range(30):
            for param, opt in ((param_plain, opt_plain), (param_momentum, opt_momentum)):
                opt.zero_grad()
                param.accumulate_grad(2 * param.data)
                opt.step()
        assert np.abs(param_momentum.data).sum() < np.abs(param_plain.data).sum()

    def test_sgd_skips_frozen_parameters(self):
        param = Parameter(np.ones(3), trainable=False)
        opt = SGD([param], lr=0.5)
        param.grad = np.ones(3)
        opt.step()
        np.testing.assert_allclose(param.data, np.ones(3))

    def test_sgd_weight_decay_shrinks_weights(self):
        param = Parameter(np.ones(4))
        opt = SGD([param], lr=0.1, momentum=0.0, weight_decay=0.5)
        param.grad = np.zeros(4)
        opt.step()
        assert (param.data < 1.0).all()

    def test_sgd_gradient_clipping(self):
        param = Parameter(np.zeros(2))
        opt = SGD([param], lr=1.0, momentum=0.0, max_grad_norm=1.0)
        param.grad = np.array([30.0, 40.0])
        opt.step()
        assert abs(np.linalg.norm(param.data) - 1.0) < 1e-9

    def test_sgd_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.0)
        with pytest.raises(ValueError):
            SGD([], lr=0.1, momentum=1.0)
        with pytest.raises(ValueError):
            SGD([], lr=0.1, weight_decay=-1)

    def test_adam_reduces_quadratic(self):
        param = self._quadratic_param()
        opt = Adam([param], lr=0.2)
        for _ in range(200):
            opt.zero_grad()
            param.accumulate_grad(2 * param.data)
            opt.step()
        assert np.abs(param.data).max() < 1e-2

    def test_adam_skips_frozen(self):
        param = Parameter(np.ones(2), trainable=False)
        opt = Adam([param], lr=0.1)
        param.grad = np.ones(2)
        opt.step()
        np.testing.assert_allclose(param.data, np.ones(2))

    def test_adam_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            Adam([], lr=-1)
        with pytest.raises(ValueError):
            Adam([], beta1=1.0)

    def test_set_lr(self):
        opt = SGD([Parameter(np.zeros(1))], lr=0.1)
        opt.set_lr(0.01)
        assert opt.lr == 0.01
        with pytest.raises(ValueError):
            opt.set_lr(0.0)


class TestSchedulers:
    def test_step_decay_schedule(self):
        opt = SGD([Parameter(np.zeros(1))], lr=0.1)
        scheduler = StepDecay(opt, step_size=20, gamma=0.9)
        for _ in range(20):
            scheduler.step()
        assert abs(opt.lr - 0.09) < 1e-12

    def test_step_decay_paper_protocol(self):
        # lr 0.1, decay 0.9 every 20 steps: after 40 epochs -> 0.081
        opt = SGD([Parameter(np.zeros(1))], lr=0.1)
        scheduler = StepDecay(opt, step_size=20, gamma=0.9)
        for _ in range(40):
            scheduler.step()
        assert abs(opt.lr - 0.1 * 0.9**2) < 1e-12

    def test_step_decay_invalid(self):
        opt = SGD([Parameter(np.zeros(1))], lr=0.1)
        with pytest.raises(ValueError):
            StepDecay(opt, step_size=0)
        with pytest.raises(ValueError):
            StepDecay(opt, gamma=0.0)

    def test_cosine_decay_reaches_min(self):
        opt = SGD([Parameter(np.zeros(1))], lr=0.1)
        scheduler = CosineDecay(opt, total_epochs=10, min_lr=1e-4)
        for _ in range(10):
            scheduler.step()
        assert abs(opt.lr - 1e-4) < 1e-9

    def test_cosine_decay_monotone(self):
        opt = SGD([Parameter(np.zeros(1))], lr=0.1)
        scheduler = CosineDecay(opt, total_epochs=8)
        rates = [scheduler.step() for _ in range(8)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))


class TestMetrics:
    def test_accuracy_from_labels(self):
        assert accuracy(np.array([0, 1, 1]), np.array([0, 1, 0])) == pytest.approx(2 / 3)

    def test_accuracy_from_logits(self):
        logits = np.array([[0.9, 0.1], [0.2, 0.8]])
        assert accuracy(logits, np.array([0, 1])) == 1.0

    def test_accuracy_empty_raises(self):
        with pytest.raises(ValueError):
            accuracy(np.array([]), np.array([]))

    def test_accuracy_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            accuracy(np.array([1, 2]), np.array([1]))

    def test_confusion_matrix(self):
        matrix = confusion_matrix(np.array([0, 1, 1]), np.array([0, 1, 0]), 2)
        np.testing.assert_array_equal(matrix, [[1, 1], [0, 1]])

    def test_confusion_matrix_out_of_range(self):
        with pytest.raises(ValueError):
            confusion_matrix(np.array([5]), np.array([0]), 2)


class TestTrainer:
    def _toy_problem(self, n=48, rng_seed=0):
        rng = np.random.default_rng(rng_seed)
        x = rng.normal(size=(n, 3, 8, 8))
        y = (x[:, 0].mean(axis=(1, 2)) > 0).astype(int)
        return x, y

    def _toy_model(self, seed=0):
        return nn.Sequential(
            nn.Conv2d(3, 6, 3, stride=2, rng=seed),
            nn.BatchNorm2d(6),
            nn.ReLU(),
            nn.GlobalAvgPool2d(),
            nn.Linear(6, 2, rng=seed + 1),
        )

    def test_training_improves_accuracy(self):
        x, y = self._toy_problem()
        model = self._toy_model()
        trainer = Trainer(TrainingConfig(epochs=12, batch_size=16, seed=0))
        history = trainer.fit(model, x, y)
        assert history.final_accuracy > 0.7
        assert history.losses[0] > history.losses[-1]

    def test_history_lengths(self):
        x, y = self._toy_problem(n=16)
        trainer = Trainer(TrainingConfig(epochs=3, batch_size=8, seed=0))
        history = trainer.fit(self._toy_model(), x, y)
        assert len(history.losses) == 3
        assert len(history.accuracies) == 3
        assert len(history.learning_rates) == 3

    def test_zero_epochs_returns_empty_history(self):
        x, y = self._toy_problem(n=8)
        trainer = Trainer(TrainingConfig(epochs=0, seed=0))
        history = trainer.fit(self._toy_model(), x, y)
        assert history.losses == []
        assert np.isnan(history.final_loss)

    def test_predict_shape_and_range(self):
        x, y = self._toy_problem(n=10)
        trainer = Trainer(TrainingConfig(epochs=1, batch_size=4, seed=0))
        model = self._toy_model()
        trainer.fit(model, x, y)
        predictions = trainer.predict(model, x)
        assert predictions.shape == (10,)
        assert set(np.unique(predictions)).issubset({0, 1})

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_predict_keeps_the_mode_when_a_forward_raises(self, mode):
        model = getattr(self._toy_model(), mode)()
        trainer = Trainer(TrainingConfig(batch_size=4, seed=0))
        with pytest.raises(ValueError):
            trainer.predict(model, np.zeros((2, 5, 8, 8)))  # 5 channels into 3
        assert [m.training for m in model.modules()] == [mode == "train"] * 6

    def test_evaluate_matches_manual_accuracy(self):
        x, y = self._toy_problem(n=12)
        trainer = Trainer(TrainingConfig(epochs=1, batch_size=4, seed=0))
        model = self._toy_model()
        trainer.fit(model, x, y)
        assert trainer.evaluate(model, x, y) == accuracy(trainer.predict(model, x), y)

    def test_empty_dataset_raises(self):
        trainer = Trainer(TrainingConfig(epochs=1))
        with pytest.raises(ValueError):
            trainer.fit(self._toy_model(), np.zeros((0, 3, 8, 8)), np.zeros(0))

    def test_mismatched_lengths_raise(self):
        trainer = Trainer(TrainingConfig(epochs=1))
        with pytest.raises(ValueError):
            trainer.fit(self._toy_model(), np.zeros((4, 3, 8, 8)), np.zeros(3))

    def test_sgd_optimizer_option(self):
        x, y = self._toy_problem(n=16)
        trainer = Trainer(
            TrainingConfig(epochs=2, batch_size=8, optimizer="sgd", learning_rate=0.05, seed=0)
        )
        history = trainer.fit(self._toy_model(), x, y)
        assert len(history.losses) == 2

    def test_invalid_optimizer_name(self):
        with pytest.raises(ValueError):
            TrainingConfig(optimizer="rmsprop")

    def test_invalid_config_values(self):
        with pytest.raises(ValueError):
            TrainingConfig(epochs=-1)
        with pytest.raises(ValueError):
            TrainingConfig(batch_size=0)

    def test_invalid_hyperparameter_values(self):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainingConfig(learning_rate=0.0)
        with pytest.raises(ValueError, match="learning_rate"):
            TrainingConfig(learning_rate=-1e-3)
        with pytest.raises(ValueError, match="weight_decay"):
            TrainingConfig(weight_decay=-1e-4)
        with pytest.raises(ValueError, match="max_grad_norm"):
            TrainingConfig(max_grad_norm=0.0)
        with pytest.raises(ValueError, match="lr_step_size"):
            TrainingConfig(lr_step_size=0)
        with pytest.raises(ValueError, match="lr_gamma"):
            TrainingConfig(lr_gamma=-0.5)
        with pytest.raises(ValueError, match="momentum"):
            TrainingConfig(momentum=1.0)
        # Boundary values stay accepted.
        assert TrainingConfig(weight_decay=0.0, momentum=0.0).weight_decay == 0.0

    def test_training_is_deterministic_given_seed(self):
        x, y = self._toy_problem(n=24)
        histories = []
        for _ in range(2):
            model = self._toy_model(seed=3)
            trainer = Trainer(TrainingConfig(epochs=2, batch_size=8, seed=11))
            histories.append(trainer.fit(model, x, y).losses)
        np.testing.assert_allclose(histories[0], histories[1])

    def test_frozen_parameters_do_not_change(self):
        x, y = self._toy_problem(n=16)
        model = self._toy_model()
        model[0].freeze()
        frozen_before = model[0].weight.data.copy()
        trainer = Trainer(TrainingConfig(epochs=2, batch_size=8, seed=0))
        trainer.fit(model, x, y)
        np.testing.assert_allclose(model[0].weight.data, frozen_before)

    def test_sample_weights_accepted(self):
        x, y = self._toy_problem(n=16)
        weights = np.ones(16)
        trainer = Trainer(TrainingConfig(epochs=1, batch_size=8, seed=0))
        history = trainer.fit(self._toy_model(), x, y, sample_weights=weights)
        assert len(history.losses) == 1


class TestFrozenPrefixMemo:
    """Freeze-aware fit/predict: backward stops at the prefix, and one
    trainer replays the prefix's outputs for every later equal call."""

    def _data(self, n=24):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(n, 3, 8, 8))
        y = (x[:, 0].mean(axis=(1, 2)) > 0).astype(int)
        return x, y

    def _child(self, tail_seed, stride=2):
        """A frozen stem shared by every child, and a tail of its own."""
        stem = nn.Sequential(
            nn.Conv2d(3, 6, 3, stride=stride, rng=0), nn.BatchNorm2d(6), nn.ReLU()
        ).freeze()
        return nn.Sequential(
            stem,
            nn.Sequential(nn.Conv2d(6, 6, 1, rng=tail_seed), nn.BatchNorm2d(6), nn.ReLU()),
            nn.GlobalAvgPool2d(),
            nn.Linear(6, 2, rng=tail_seed + 1),
        )

    def _state(self, model):
        params = [p.data.tobytes() for p in model.parameters()]
        return params, [b.tobytes() for _, b in model.named_buffers()]

    def _count_prefix_forwards(self, model):
        calls = []
        original = model[0].forward

        def counted(x):
            calls.append(len(x))
            return original(x)

        model[0].forward = counted
        return calls

    def _config(self):
        return TrainingConfig(epochs=2, batch_size=8, seed=0)

    def test_backward_stops_at_the_frozen_prefix(self):
        x, y = self._data()
        model, reference = self._child(1), self._child(1)

        def no_backward(grad):
            raise AssertionError("backward ran through the frozen prefix")

        model[0].backward = no_backward
        history = Trainer(self._config()).fit(model, x, y)
        expected = Trainer(self._config()).fit(reference, x, y)
        assert history.losses == expected.losses
        assert self._state(model) == self._state(reference)

    def test_later_children_replay_the_prefix(self):
        x, y = self._data()
        config = self._config()
        trainer = Trainer(config)
        first = self._child(1)
        trainer.fit(first, x, y)
        trainer.predict(first, x)

        second, cold = self._child(2), self._child(2)
        calls = self._count_prefix_forwards(second)
        history = trainer.fit(second, x, y)
        predictions = trainer.predict(second, x)
        assert calls == []  # both calls replayed the first child's outputs

        cold_trainer = Trainer(config)
        assert history.losses == cold_trainer.fit(cold, x, y).losses
        assert np.array_equal(predictions, cold_trainer.predict(cold, x))
        # The replay left the prefix's running statistics where a plain
        # fit would have.
        assert self._state(second) == self._state(cold)

    def test_a_different_prefix_structure_misses(self):
        x, y = self._data()
        trainer = Trainer(self._config())
        trainer.fit(self._child(1, stride=2), x, y)
        # Same weights and buffers, another stride: the prefix must run.
        other = self._child(1, stride=1)
        calls = self._count_prefix_forwards(other)
        trainer.fit(other, x, y)
        assert calls

    def test_replayed_outputs_are_read_only(self):
        class DoubleInPlace(nn.Module):
            def forward(self, x):
                x *= 2.0
                return x

            def backward(self, grad_output):
                return grad_output * 2.0

        def child(seed):
            model = self._child(seed)
            return nn.Sequential(model[0], DoubleInPlace(), *list(model)[1:])

        x, y = self._data()
        trainer = Trainer(self._config())
        trainer.fit(child(1), x, y)  # records; the live output is writable
        with pytest.raises(ValueError, match="read-only"):
            trainer.fit(child(2), x, y)

    def test_over_the_byte_bound_nothing_is_kept(self, monkeypatch):
        import repro.nn.trainer as trainer_module

        x, y = self._data()
        # Room for the images and the prefix, not for its outputs.
        monkeypatch.setattr(trainer_module, "PREFIX_MEMO_MAX_BYTES", x.nbytes + 4096)
        trainer = Trainer(self._config())
        trainer.fit(self._child(1), x, y)
        second, cold = self._child(2), self._child(2)
        calls = self._count_prefix_forwards(second)
        history = trainer.fit(second, x, y)
        assert len(calls) == 2 * 3  # every batch of both epochs ran the prefix
        assert history.losses == Trainer(self._config()).fit(cold, x, y).losses

    def test_prefix_ends_before_trainable_random_or_parameter_free_stages(self):
        from repro.nn.trainer import _split_frozen_prefix

        frozen = lambda: nn.Sequential(nn.Conv2d(3, 4, 1, rng=0)).freeze()  # noqa: E731
        trainable = lambda: nn.Linear(4, 2, rng=1)  # noqa: E731

        model = nn.Sequential(frozen(), nn.Identity(), nn.GlobalAvgPool2d(), trainable())
        prefix, tail = _split_frozen_prefix(model)
        assert len(prefix) == 1 and len(tail) == 3
        # A stage that draws random numbers ends the prefix.
        model = nn.Sequential(frozen(), nn.Dropout(0.5, rng=0), frozen(), trainable())
        assert len(_split_frozen_prefix(model)[0]) == 1
        # Any non-Sequential model, or a leading trainable stage: no prefix.
        linear = trainable()
        assert _split_frozen_prefix(linear) == ([], [linear])
        assert _split_frozen_prefix(nn.Sequential(trainable(), frozen()))[0] == []
