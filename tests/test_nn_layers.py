"""Tests for the numpy layer implementations: shapes, errors and gradients."""

from __future__ import annotations

import numpy as np
import pytest

import repro.nn as nn
from repro.nn.functional import col2im, conv_output_size, im2col, log_softmax, one_hot, softmax
from repro.nn.layers import SqueezeExcite


def numeric_input_gradient(layer, x, eps=1e-5, samples=40, rng=None):
    """Numerical d(sum(output))/dx at a random subset of input positions."""
    rng = rng or np.random.default_rng(0)
    analytic_out = layer.forward(x)
    analytic = layer.backward(np.ones_like(analytic_out))
    for _ in range(samples):
        idx = tuple(rng.integers(0, s) for s in x.shape)
        original = x[idx]
        x[idx] = original + eps
        plus = layer.forward(x).sum()
        x[idx] = original - eps
        minus = layer.forward(x).sum()
        x[idx] = original
        numeric = (plus - minus) / (2 * eps)
        assert abs(numeric - analytic[idx]) < 1e-5, f"gradient mismatch at {idx}"


class TestFunctional:
    def test_conv_output_size(self):
        assert conv_output_size(32, 3, 1, 1) == 32
        assert conv_output_size(32, 3, 2, 1) == 16

    def test_conv_output_size_invalid(self):
        with pytest.raises(ValueError):
            conv_output_size(1, 5, 1, 0)

    def test_im2col_shape(self):
        x = np.arange(2 * 3 * 6 * 6, dtype=float).reshape(2, 3, 6, 6)
        cols = im2col(x, 3, 3, 1, 1)
        assert cols.shape == (2, 3, 3, 3, 6, 6)

    def test_im2col_values_identity_kernel(self):
        x = np.random.default_rng(0).normal(size=(1, 1, 4, 4))
        cols = im2col(x, 1, 1, 1, 0)
        np.testing.assert_allclose(cols[0, 0, 0, 0], x[0, 0])

    def test_col2im_is_adjoint_of_im2col(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 2, 5, 5))
        cols = im2col(x, 3, 3, 2, 1)
        y = rng.normal(size=cols.shape)
        # <im2col(x), y> == <x, col2im(y)>
        lhs = float((cols * y).sum())
        rhs = float((x * col2im(y, x.shape, 3, 3, 2, 1)).sum())
        assert abs(lhs - rhs) < 1e-9

    def test_softmax_rows_sum_to_one(self):
        probs = softmax(np.random.default_rng(0).normal(size=(4, 7)))
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(4))

    def test_softmax_handles_large_logits(self):
        probs = softmax(np.array([[1000.0, 0.0]]))
        assert np.isfinite(probs).all()

    def test_log_softmax_matches_log_of_softmax(self):
        logits = np.random.default_rng(0).normal(size=(3, 5))
        np.testing.assert_allclose(log_softmax(logits), np.log(softmax(logits)), atol=1e-12)

    def test_one_hot(self):
        encoded = one_hot(np.array([0, 2]), 3)
        np.testing.assert_allclose(encoded, [[1, 0, 0], [0, 0, 1]])

    def test_one_hot_out_of_range_raises(self):
        with pytest.raises(ValueError):
            one_hot(np.array([3]), 3)

    def test_one_hot_requires_1d(self):
        with pytest.raises(ValueError):
            one_hot(np.zeros((2, 2), dtype=int), 3)


class TestConv2d:
    def test_output_shape_stride1(self):
        conv = nn.Conv2d(3, 8, 3, rng=0)
        out = conv.forward(np.zeros((2, 3, 10, 10)))
        assert out.shape == (2, 8, 10, 10)

    def test_output_shape_stride2(self):
        conv = nn.Conv2d(3, 8, 3, stride=2, rng=0)
        out = conv.forward(np.zeros((2, 3, 10, 10)))
        assert out.shape == (2, 8, 5, 5)

    def test_output_shape_helper_matches_forward(self):
        conv = nn.Conv2d(4, 6, 5, stride=2, rng=0)
        out = conv.forward(np.zeros((1, 4, 11, 11)))
        assert out.shape[1:] == conv.output_shape(11, 11)

    def test_wrong_channel_count_raises(self):
        conv = nn.Conv2d(3, 8, 3, rng=0)
        with pytest.raises(ValueError):
            conv.forward(np.zeros((1, 4, 8, 8)))

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            nn.Conv2d(0, 4, 3)
        with pytest.raises(ValueError):
            nn.Conv2d(4, 4, 0)

    def test_backward_before_forward_raises(self):
        conv = nn.Conv2d(3, 4, 3, rng=0)
        with pytest.raises(RuntimeError):
            conv.backward(np.zeros((1, 4, 8, 8)))

    def test_input_gradient_matches_numeric(self, rng):
        conv = nn.Conv2d(2, 3, 3, stride=2, rng=1)
        numeric_input_gradient(conv, rng.normal(size=(2, 2, 6, 6)), rng=rng)

    def test_weight_gradient_matches_numeric(self, rng):
        conv = nn.Conv2d(2, 2, 3, rng=1)
        x = rng.normal(size=(1, 2, 5, 5))
        out = conv.forward(x)
        conv.backward(np.ones_like(out))
        analytic = conv.weight.grad.copy()
        eps = 1e-6
        idx = (1, 0, 2, 1)
        original = conv.weight.data[idx]
        conv.weight.data[idx] = original + eps
        plus = conv.forward(x).sum()
        conv.weight.data[idx] = original - eps
        minus = conv.forward(x).sum()
        conv.weight.data[idx] = original
        assert abs((plus - minus) / (2 * eps) - analytic[idx]) < 1e-5

    def test_bias_gradient(self, rng):
        conv = nn.Conv2d(2, 3, 3, rng=1)
        x = rng.normal(size=(2, 2, 4, 4))
        out = conv.forward(x)
        conv.backward(np.ones_like(out))
        np.testing.assert_allclose(conv.bias.grad, np.full(3, 2 * 4 * 4), atol=1e-9)

    def test_no_bias_mode(self):
        conv = nn.Conv2d(2, 3, 3, bias=False, rng=0)
        assert not hasattr(conv, "bias")
        assert len(conv.parameters()) == 1


class TestDepthwiseConv2d:
    def test_output_shape(self):
        conv = nn.DepthwiseConv2d(4, 3, stride=2, rng=0)
        assert conv.forward(np.zeros((2, 4, 8, 8))).shape == (2, 4, 4, 4)

    def test_channel_mismatch_raises(self):
        conv = nn.DepthwiseConv2d(4, 3, rng=0)
        with pytest.raises(ValueError):
            conv.forward(np.zeros((1, 3, 8, 8)))

    def test_input_gradient(self, rng):
        conv = nn.DepthwiseConv2d(3, 3, rng=1)
        numeric_input_gradient(conv, rng.normal(size=(2, 3, 6, 6)), rng=rng)

    def test_channels_do_not_mix(self, rng):
        conv = nn.DepthwiseConv2d(2, 3, rng=1)
        x = rng.normal(size=(1, 2, 6, 6))
        base = conv.forward(x.copy())
        x2 = x.copy()
        x2[0, 1] += 10.0  # perturb channel 1 only
        perturbed = conv.forward(x2)
        np.testing.assert_allclose(base[0, 0], perturbed[0, 0])
        assert not np.allclose(base[0, 1], perturbed[0, 1])

    def test_backward_before_forward_raises(self):
        conv = nn.DepthwiseConv2d(2, 3, rng=0)
        with pytest.raises(RuntimeError):
            conv.backward(np.zeros((1, 2, 4, 4)))


class TestLinear:
    def test_forward_shape(self):
        linear = nn.Linear(8, 3, rng=0)
        assert linear.forward(np.zeros((4, 8))).shape == (4, 3)

    def test_forward_values(self):
        linear = nn.Linear(2, 2, rng=0)
        linear.weight.data = np.array([[1.0, 0.0], [0.0, 2.0]])
        linear.bias.data = np.array([1.0, -1.0])
        out = linear.forward(np.array([[3.0, 4.0]]))
        np.testing.assert_allclose(out, [[4.0, 7.0]])

    def test_wrong_shape_raises(self):
        linear = nn.Linear(8, 3, rng=0)
        with pytest.raises(ValueError):
            linear.forward(np.zeros((4, 7)))

    def test_gradients(self, rng):
        linear = nn.Linear(5, 4, rng=1)
        x = rng.normal(size=(3, 5))
        out = linear.forward(x)
        grad_in = linear.backward(np.ones_like(out))
        np.testing.assert_allclose(grad_in, np.ones((3, 4)) @ linear.weight.data)
        np.testing.assert_allclose(linear.weight.grad, np.ones((4, 3)) @ x)
        np.testing.assert_allclose(linear.bias.grad, np.full(4, 3.0))


class TestBatchNorm:
    def test_training_output_is_normalised(self, rng):
        bn = nn.BatchNorm2d(3)
        x = rng.normal(loc=5.0, scale=2.0, size=(8, 3, 4, 4))
        out = bn.forward(x)
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), np.zeros(3), atol=1e-7)
        np.testing.assert_allclose(out.std(axis=(0, 2, 3)), np.ones(3), atol=1e-3)

    def test_eval_uses_running_statistics(self, rng):
        bn = nn.BatchNorm2d(2)
        x = rng.normal(size=(16, 2, 4, 4))
        for _ in range(30):
            bn.forward(x)
        bn.eval()
        out_eval = bn.forward(x)
        assert abs(out_eval.mean()) < 0.3

    def test_input_gradient(self, rng):
        bn = nn.BatchNorm2d(3)
        numeric_input_gradient(bn, rng.normal(size=(4, 3, 3, 3)), rng=rng)

    def test_wrong_channels_raises(self):
        bn = nn.BatchNorm2d(3)
        with pytest.raises(ValueError):
            bn.forward(np.zeros((2, 4, 3, 3)))

    def test_backward_in_eval_mode_raises(self, rng):
        bn = nn.BatchNorm2d(2)
        bn.eval()
        bn.forward(rng.normal(size=(2, 2, 3, 3)))
        with pytest.raises(RuntimeError):
            bn.backward(np.ones((2, 2, 3, 3)))

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            nn.BatchNorm2d(0)
        with pytest.raises(ValueError):
            nn.BatchNorm2d(4, momentum=0.0)


class TestActivations:
    def test_relu_forward(self):
        relu = nn.ReLU()
        np.testing.assert_allclose(relu.forward(np.array([-1.0, 2.0])), [0.0, 2.0])

    def test_relu_backward_mask(self):
        relu = nn.ReLU()
        relu.forward(np.array([-1.0, 2.0]))
        np.testing.assert_allclose(relu.backward(np.array([5.0, 5.0])), [0.0, 5.0])

    def test_relu6_clips(self):
        relu6 = nn.ReLU6()
        np.testing.assert_allclose(
            relu6.forward(np.array([-1.0, 3.0, 10.0])), [0.0, 3.0, 6.0]
        )

    def test_relu6_gradient_zero_outside_range(self):
        relu6 = nn.ReLU6()
        relu6.forward(np.array([-1.0, 3.0, 10.0]))
        np.testing.assert_allclose(relu6.backward(np.ones(3)), [0.0, 1.0, 0.0])

    def test_hardswish_known_values(self):
        hs = nn.HardSwish()
        np.testing.assert_allclose(
            hs.forward(np.array([-4.0, 0.0, 4.0])), [0.0, 0.0, 4.0]
        )

    def test_hardswish_gradient_numeric(self, rng):
        hs = nn.HardSwish()
        numeric_input_gradient(hs, rng.normal(size=(4, 4)) * 2.5, rng=rng)

    def test_hardsigmoid_range(self, rng):
        hsig = nn.HardSigmoid()
        out = hsig.forward(rng.normal(size=(10,)) * 5)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_identity_passthrough(self, rng):
        identity = nn.Identity()
        x = rng.normal(size=(3, 3))
        np.testing.assert_allclose(identity.forward(x), x)
        np.testing.assert_allclose(identity.backward(x), x)


class TestPooling:
    def test_global_avg_pool(self, rng):
        pool = nn.GlobalAvgPool2d()
        x = rng.normal(size=(2, 3, 4, 4))
        np.testing.assert_allclose(pool.forward(x), x.mean(axis=(2, 3)))

    def test_global_avg_pool_gradient(self, rng):
        pool = nn.GlobalAvgPool2d()
        x = rng.normal(size=(2, 3, 4, 4))
        pool.forward(x)
        grad = pool.backward(np.ones((2, 3)))
        np.testing.assert_allclose(grad, np.full_like(x, 1.0 / 16.0))

    def test_global_avg_pool_requires_4d(self):
        with pytest.raises(ValueError):
            nn.GlobalAvgPool2d().forward(np.zeros((2, 3)))

    def test_maxpool_forward(self):
        pool = nn.MaxPool2d(2)
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = pool.forward(x)
        np.testing.assert_allclose(out[0, 0], [[5, 7], [13, 15]])

    def test_maxpool_backward_routes_to_argmax(self):
        pool = nn.MaxPool2d(2)
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        pool.forward(x)
        grad = pool.backward(np.ones((1, 1, 2, 2)))
        assert grad.sum() == 4
        assert grad[0, 0, 3, 3] == 1.0

    def test_avgpool_forward(self):
        pool = nn.AvgPool2d(2)
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = pool.forward(x)
        np.testing.assert_allclose(out[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_avgpool_gradient(self, rng):
        pool = nn.AvgPool2d(2)
        numeric_input_gradient(pool, rng.normal(size=(1, 2, 4, 4)), rng=rng)


class TestFlattenDropout:
    def test_flatten_roundtrip(self, rng):
        flatten = nn.Flatten()
        x = rng.normal(size=(2, 3, 4, 4))
        out = flatten.forward(x)
        assert out.shape == (2, 48)
        grad = flatten.backward(out)
        np.testing.assert_allclose(grad, x)

    def test_dropout_eval_is_identity(self, rng):
        dropout = nn.Dropout(0.5, rng=0)
        dropout.eval()
        x = rng.normal(size=(4, 4))
        np.testing.assert_allclose(dropout.forward(x), x)

    def test_dropout_training_zeroes_some(self):
        dropout = nn.Dropout(0.5, rng=0)
        out = dropout.forward(np.ones((1000,)))
        assert (out == 0).sum() > 100
        # inverted dropout keeps the expectation roughly constant
        assert abs(out.mean() - 1.0) < 0.2

    def test_dropout_invalid_rate(self):
        with pytest.raises(ValueError):
            nn.Dropout(1.0)

    def test_dropout_zero_rate_identity(self, rng):
        dropout = nn.Dropout(0.0)
        x = rng.normal(size=(5, 5))
        np.testing.assert_allclose(dropout.forward(x), x)


class TestSqueezeExcite:
    def test_output_shape(self, rng):
        se = SqueezeExcite(8, 2, rng=0)
        assert se.forward(rng.normal(size=(2, 8, 4, 4))).shape == (2, 8, 4, 4)

    def test_scale_bounded(self, rng):
        se = SqueezeExcite(4, 2, rng=0)
        x = np.abs(rng.normal(size=(2, 4, 3, 3)))
        out = se.forward(x)
        assert (out <= x + 1e-12).all() and (out >= 0).all()

    def test_input_gradient(self, rng):
        se = SqueezeExcite(3, 2, rng=1)
        numeric_input_gradient(se, rng.normal(size=(2, 3, 4, 4)), rng=rng, samples=30)

    def test_invalid_channels(self):
        with pytest.raises(ValueError):
            SqueezeExcite(0, 2)

    def test_wrong_input_channels_raises(self, rng):
        se = SqueezeExcite(4, 2, rng=0)
        with pytest.raises(ValueError):
            se.forward(rng.normal(size=(1, 3, 4, 4)))


class TestModuleContainer:
    def test_sequential_forward_backward_order(self, rng):
        model = nn.Sequential(nn.Linear(4, 8, rng=0), nn.ReLU(), nn.Linear(8, 2, rng=1))
        x = rng.normal(size=(3, 4))
        out = model.forward(x)
        assert out.shape == (3, 2)
        grad = model.backward(np.ones_like(out))
        assert grad.shape == x.shape

    def test_sequential_len_getitem_iter(self):
        model = nn.Sequential(nn.ReLU(), nn.ReLU6())
        assert len(model) == 2
        assert isinstance(model[1], nn.ReLU6)
        assert [type(m).__name__ for m in model] == ["ReLU", "ReLU6"]

    def test_sequential_append(self):
        model = nn.Sequential(nn.ReLU())
        model.append(nn.ReLU6())
        assert len(model) == 2

    def test_named_parameters_qualified_names(self):
        model = nn.Sequential(nn.Linear(2, 2, rng=0))
        names = [name for name, _ in model.named_parameters()]
        assert "layer0.weight" in names and "layer0.bias" in names

    def test_num_parameters_counts(self):
        model = nn.Linear(3, 4, rng=0)
        assert model.num_parameters() == 3 * 4 + 4

    def test_freeze_and_unfreeze(self):
        model = nn.Linear(3, 4, rng=0)
        model.freeze()
        assert model.num_parameters(trainable_only=True) == 0
        model.unfreeze()
        assert model.num_parameters(trainable_only=True) == 16

    def test_train_eval_propagates(self):
        model = nn.Sequential(nn.Sequential(nn.BatchNorm2d(2)))
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())
        # A branching tree, with one sub-tree switched on its own.
        inner = nn.Sequential(nn.BatchNorm2d(2), nn.Sequential(nn.Dropout(0.5)))
        model = nn.Sequential(nn.Conv2d(2, 2, 1, rng=0), inner, nn.ReLU())
        inner.eval()
        assert [m.training for m in model.modules()] == [True, True, False, False, False, False, True]
        model.train()
        assert all(m.training for m in model.modules())
        assert model.eval() is model
        assert not any(m.training for m in model.modules())

    def test_state_dict_roundtrip(self, rng):
        source = nn.Linear(3, 3, rng=0)
        target = nn.Linear(3, 3, rng=1)
        target.load_state_dict(source.state_dict())
        np.testing.assert_allclose(source.weight.data, target.weight.data)

    def test_load_state_dict_strict_mismatch_raises(self):
        model = nn.Linear(3, 3, rng=0)
        with pytest.raises(KeyError):
            model.load_state_dict({"unknown": np.zeros(3)})

    def test_load_state_dict_shape_mismatch_raises(self):
        model = nn.Linear(3, 3, rng=0)
        state = model.state_dict()
        state["weight"] = np.zeros((2, 2))
        with pytest.raises(ValueError):
            model.load_state_dict(state)

    def test_forward_collect_returns_every_stage(self, rng):
        model = nn.Sequential(nn.Linear(4, 8, rng=0), nn.ReLU())
        outputs = model.forward_collect(rng.normal(size=(2, 4)))
        assert len(outputs) == 2
        assert outputs[0].shape == (2, 8)

    def test_zero_grad_clears(self, rng):
        model = nn.Linear(4, 2, rng=0)
        out = model.forward(rng.normal(size=(3, 4)))
        model.backward(np.ones_like(out))
        assert np.abs(model.weight.grad).sum() > 0
        model.zero_grad()
        assert np.abs(model.weight.grad).sum() == 0

    def test_parameter_accumulate_shape_mismatch(self):
        from repro.nn.tensor import Parameter

        param = Parameter(np.zeros((2, 2)), name="p")
        with pytest.raises(ValueError):
            param.accumulate_grad(np.zeros(3))

    def test_frozen_parameter_ignores_gradient(self):
        from repro.nn.tensor import Parameter

        param = Parameter(np.zeros((2,)), trainable=False)
        param.accumulate_grad(np.ones(2))
        np.testing.assert_allclose(param.grad, np.zeros(2))
