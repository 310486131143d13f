"""Tests for the fast compute core: dtype policy, kernels, in-place optimizers.

The float64 guarantees are *exact* (0 ulp): the strided ``im2col`` against the
seed's loop implementation, the in-place optimizer steps against the seed's
allocating arithmetic, and an explicit-float64 compute section against a spec
with no compute section at all.  float32 is held to tolerances instead -- it
is a different rounding of the same computation.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.api.spec import ComputeSpec, RunSpec
from repro.data.dataset import GroupedDataset
from repro.engine.workers import create_pool, limit_blas_threads
from repro.nn import init
from repro.nn.dtype import default_dtype, get_default_dtype, set_default_dtype
from repro.nn.functional import (
    col2im,
    col2im_reference,
    im2col,
    im2col_reference,
    one_hot,
)
from repro.nn.layers.conv import Conv2d, DepthwiseConv2d
from repro.nn.layers.norm import BatchNorm2d
from repro.nn.layers.pooling import MaxPool2d
from repro.nn.metrics import accuracy, confusion_matrix
from repro.nn.module import Module, Sequential, inference_mode, is_inference
from repro.nn.optim import SGD, Adam
from repro.nn.tensor import Parameter
from repro.nn.trainer import Trainer, TrainingConfig

SETTINGS = settings(max_examples=40, deadline=None)

# One strategy for the whole (shape, kernel, stride, padding) space of the
# unfold property tests.
_geometry = st.tuples(
    st.integers(1, 3),  # n
    st.integers(1, 4),  # c
    st.integers(3, 12),  # h
    st.integers(3, 12),  # w
    st.integers(1, 4),  # kernel_h
    st.integers(1, 4),  # kernel_w
    st.integers(1, 3),  # stride
    st.integers(0, 3),  # padding
)


def _valid_geometry(geometry) -> bool:
    n, c, h, w, kh, kw, stride, padding = geometry
    return (h + 2 * padding - kh) // stride + 1 > 0 and (
        w + 2 * padding - kw
    ) // stride + 1 > 0


# -- im2col / col2im ----------------------------------------------------------------
class TestUnfoldKernels:
    @SETTINGS
    @given(geometry=_geometry, data=st.data())
    def test_im2col_matches_reference_to_zero_ulp(self, geometry, data):
        if not _valid_geometry(geometry):
            return
        n, c, h, w, kh, kw, stride, padding = geometry
        seed = data.draw(st.integers(0, 2**31 - 1), label="seed")
        x = np.random.default_rng(seed).random((n, c, h, w))
        new = im2col(x, kh, kw, stride, padding)
        ref = im2col_reference(x, kh, kw, stride, padding)
        assert new.shape == ref.shape
        assert np.array_equal(new, ref)  # bitwise, not approx

    @SETTINGS
    @given(geometry=_geometry, data=st.data())
    def test_im2col_out_buffer_and_float32(self, geometry, data):
        if not _valid_geometry(geometry):
            return
        n, c, h, w, kh, kw, stride, padding = geometry
        seed = data.draw(st.integers(0, 2**31 - 1), label="seed")
        x = np.random.default_rng(seed).random((n, c, h, w)).astype(np.float32)
        ref = im2col_reference(x, kh, kw, stride, padding)
        out = np.empty(ref.shape, dtype=np.float32)
        result = im2col(x, kh, kw, stride, padding, out=out)
        assert result is out
        assert np.array_equal(out, ref)

    @SETTINGS
    @given(geometry=_geometry, data=st.data())
    def test_col2im_is_exact_adjoint_of_im2col(self, geometry, data):
        """<im2col(x), G> == <x, col2im(G)> for every stride/padding/kernel."""
        if not _valid_geometry(geometry):
            return
        n, c, h, w, kh, kw, stride, padding = geometry
        seed = data.draw(st.integers(0, 2**31 - 1), label="seed")
        rng = np.random.default_rng(seed)
        x = rng.random((n, c, h, w))
        cols = im2col(x, kh, kw, stride, padding)
        g = rng.random(cols.shape)
        lhs = float(np.sum(cols * g))
        rhs = float(np.sum(x * col2im(g, x.shape, kh, kw, stride, padding)))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    @SETTINGS
    @given(geometry=_geometry, data=st.data())
    def test_col2im_matches_reference_to_zero_ulp(self, geometry, data):
        if not _valid_geometry(geometry):
            return
        n, c, h, w, kh, kw, stride, padding = geometry
        seed = data.draw(st.integers(0, 2**31 - 1), label="seed")
        out_h = (h + 2 * padding - kh) // stride + 1
        out_w = (w + 2 * padding - kw) // stride + 1
        g = np.random.default_rng(seed).random((n, c, kh, kw, out_h, out_w))
        new = col2im(g, (n, c, h, w), kh, kw, stride, padding)
        ref = col2im_reference(g, (n, c, h, w), kh, kw, stride, padding)
        assert np.array_equal(np.asarray(new), np.asarray(ref))


# -- conv layers --------------------------------------------------------------------
class TestConvKernels:
    @pytest.mark.parametrize("kernel,stride,padding", [(1, 1, 0), (3, 1, 1), (3, 2, 1), (5, 1, 2)])
    def test_conv2d_gradients_match_dense_reference(self, kernel, stride, padding):
        """The workspace/matmul path agrees with a literal einsum evaluation."""
        rng = np.random.default_rng(0)
        layer = Conv2d(3, 4, kernel, stride=stride, padding=padding, rng=0)
        x = rng.random((2, 3, 8, 8))
        out = layer.forward(x)
        cols = im2col_reference(x, kernel, kernel, stride, padding)
        expected = np.einsum(
            "ocij,ncijhw->nohw", layer.weight.data, cols, optimize=True
        ) + layer.bias.data[None, :, None, None]
        assert np.allclose(out, expected, rtol=1e-12, atol=1e-12)

        grad = rng.random(out.shape)
        grad_input = layer.backward(grad)
        expected_wgrad = np.einsum("nohw,ncijhw->ocij", grad, cols, optimize=True)
        assert np.allclose(layer.weight.grad, expected_wgrad, rtol=1e-11, atol=1e-12)
        expected_gcols = np.einsum(
            "ocij,nohw->ncijhw", layer.weight.data, grad, optimize=True
        )
        expected_ginput = col2im_reference(
            expected_gcols, x.shape, kernel, kernel, stride, padding
        )
        assert np.allclose(grad_input, expected_ginput, rtol=1e-11, atol=1e-12)

    @pytest.mark.parametrize("kernel,padding", [(1, 0), (2, 1), (3, 0), (3, 1), (5, 2), (5, 4)])
    def test_depthwise_float32_fast_backward_matches_seed_order(self, kernel, padding):
        """The stride-1 float32 transposed-correlation equals the fold loop."""
        rng = np.random.default_rng(1)
        layer64 = DepthwiseConv2d(4, kernel, stride=1, padding=padding, rng=0)
        layer32 = DepthwiseConv2d(4, kernel, stride=1, padding=padding, rng=0)
        layer32.astype(np.float32)
        x = rng.random((3, 4, 9, 9))
        g = rng.random(layer64.forward(x).shape)
        layer32.forward(x.astype(np.float32))
        expected = layer64.backward(g)
        fast = layer32.backward(g.astype(np.float32))
        assert fast.dtype == np.float32
        assert np.allclose(fast, expected, rtol=1e-4, atol=1e-5)

    def test_workspace_reuse_across_forwards(self):
        layer = Conv2d(2, 3, 3, rng=0)
        x = np.random.default_rng(0).random((2, 2, 6, 6))
        layer.forward(x)
        first = layer._workspace
        layer.backward(np.ones((2, 3, 6, 6)))
        layer.forward(x)
        assert layer._workspace is first  # same buffer, no reallocation


# -- max-pool scatter backward ------------------------------------------------------
class TestMaxPoolBackward:
    @staticmethod
    def _dense_reference(layer, grad_output, argmax, input_shape):
        """The seed implementation: dense (n, c, k*k, oh, ow) buffer + col2im."""
        k = layer.kernel_size
        n, c, out_h, out_w = grad_output.shape
        flat = np.zeros((n, c, k * k, out_h, out_w), dtype=grad_output.dtype)
        np.put_along_axis(
            flat, argmax[:, :, None, :, :], grad_output[:, :, None, :, :], axis=2
        )
        cols = flat.reshape(n, c, k, k, out_h, out_w)
        return col2im_reference(cols, input_shape, k, k, layer.stride, layer.padding)

    @pytest.mark.parametrize(
        "kernel,stride,padding", [(2, 2, 0), (3, 3, 0), (2, 2, 1), (3, 1, 1), (3, 2, 1)]
    )
    def test_scatter_matches_dense_reference(self, kernel, stride, padding):
        rng = np.random.default_rng(2)
        layer = MaxPool2d(kernel, stride=stride, padding=padding)
        x = rng.random((2, 3, 8, 8))
        out = layer.forward(x)
        argmax = layer._cache_argmax.copy()
        grad = rng.random(out.shape)
        result = layer.backward(grad)
        expected = self._dense_reference(layer, grad, argmax, x.shape)
        if stride >= kernel:
            # Non-overlapping windows: one contribution per cell, bitwise.
            assert np.array_equal(result, expected)
        else:
            assert np.allclose(result, expected, rtol=1e-12, atol=1e-15)

    def test_float32_gradients_stay_float32(self):
        layer = MaxPool2d(2)
        x = np.random.default_rng(0).random((2, 3, 8, 8)).astype(np.float32)
        out = layer.forward(x)
        grad = layer.backward(np.ones_like(out))
        assert grad.dtype == np.float32 and grad.shape == x.shape


# -- in-place optimizers ------------------------------------------------------------
def _make_params(rng, dtype=np.float64):
    params = [
        Parameter(rng.standard_normal((4, 3)), name="a", dtype=dtype),
        Parameter(rng.standard_normal((5,)), name="b", dtype=dtype),
        Parameter(rng.standard_normal((2, 2)), name="frozen", trainable=False, dtype=dtype),
    ]
    return params


def _seed_sgd_step(params, velocity, lr, momentum, weight_decay):
    """The seed's allocating SGD arithmetic, verbatim."""
    for param in params:
        if not param.trainable:
            continue
        grad = param.grad
        if weight_decay > 0:
            grad = grad + weight_decay * param.data
        v = velocity.get(id(param))
        if v is None:
            v = np.zeros_like(param.data)
        v = momentum * v - lr * grad
        velocity[id(param)] = v
        param.data = param.data + v


def _seed_adam_step(params, state, lr, beta1, beta2, eps, weight_decay):
    state["t"] += 1
    bias1 = 1.0 - beta1 ** state["t"]
    bias2 = 1.0 - beta2 ** state["t"]
    for param in params:
        if not param.trainable:
            continue
        grad = param.grad
        if weight_decay > 0:
            grad = grad + weight_decay * param.data
        m = state["m"].get(id(param))
        v = state["v"].get(id(param))
        if m is None:
            m = np.zeros_like(param.data)
            v = np.zeros_like(param.data)
        m = beta1 * m + (1 - beta1) * grad
        v = beta2 * v + (1 - beta2) * grad**2
        state["m"][id(param)] = m
        state["v"][id(param)] = v
        m_hat = m / bias1
        v_hat = v / bias2
        param.data = param.data - lr * m_hat / (np.sqrt(v_hat) + eps)


class TestInPlaceOptimizers:
    @pytest.mark.parametrize("weight_decay", [0.0, 1e-2])
    def test_sgd_step_bitwise_equals_seed_arithmetic(self, weight_decay):
        rng = np.random.default_rng(3)
        params = _make_params(rng)
        mirror = [Parameter(p.data.copy(), name=p.name, trainable=p.trainable) for p in params]
        optimizer = SGD(params, lr=0.05, momentum=0.9, weight_decay=weight_decay)
        velocity = {}
        for _ in range(5):
            for p, m in zip(params, mirror):
                grad = rng.standard_normal(p.data.shape)
                p.grad[...] = grad
                m.grad[...] = grad
            optimizer.step()
            _seed_sgd_step(mirror, velocity, 0.05, 0.9, weight_decay)
            for p, m in zip(params, mirror):
                assert np.array_equal(p.data, m.data), p.name

    @pytest.mark.parametrize("weight_decay", [0.0, 1e-2])
    def test_adam_step_bitwise_equals_seed_arithmetic(self, weight_decay):
        rng = np.random.default_rng(4)
        params = _make_params(rng)
        mirror = [Parameter(p.data.copy(), name=p.name, trainable=p.trainable) for p in params]
        optimizer = Adam(params, lr=3e-3, weight_decay=weight_decay)
        state = {"t": 0, "m": {}, "v": {}}
        for _ in range(5):
            for p, m in zip(params, mirror):
                grad = rng.standard_normal(p.data.shape)
                p.grad[...] = grad
                m.grad[...] = grad
            optimizer.step()
            _seed_adam_step(mirror, state, 3e-3, 0.9, 0.999, 1e-8, weight_decay)
            for p, m in zip(params, mirror):
                assert np.array_equal(p.data, m.data), p.name

    def test_optimizer_updates_do_not_reallocate_parameter_data(self):
        params = _make_params(np.random.default_rng(5))
        buffers = [p.data for p in params]
        optimizer = Adam(params, lr=1e-3)
        for p in params:
            p.grad[...] = 1.0
        optimizer.step()
        for p, buffer in zip(params, buffers):
            assert p.data is buffer

    def test_state_dict_round_trip_preserves_dtype(self):
        params = _make_params(np.random.default_rng(6), dtype=np.float32)
        optimizer = Adam(params, lr=1e-3)
        for p in params:
            p.grad[...] = 0.5
        optimizer.step()
        restored = Adam(params, lr=1e-3)
        restored.load_state_dict(optimizer.state_dict())
        assert all(m.dtype == np.float32 for m in restored._m.values())


# -- precision policy ---------------------------------------------------------------
class TestDtypePolicy:
    def test_default_is_float64(self):
        assert get_default_dtype() == np.float64

    def test_context_manager_scopes_the_policy(self):
        with default_dtype("float32"):
            assert get_default_dtype() == np.float32
            assert Parameter(np.zeros(3)).data.dtype == np.float32
            assert init.zeros((2,)).dtype == np.float32
            assert init.he_normal((2, 2), 4, rng=0).dtype == np.float32
            assert one_hot(np.array([0, 1]), 3).dtype == np.float32
        assert get_default_dtype() == np.float64
        assert Parameter(np.zeros(3)).data.dtype == np.float64

    def test_invalid_precision_rejected(self):
        with pytest.raises(ValueError, match="unsupported precision"):
            set_default_dtype("float16")
        with pytest.raises(ValueError, match="precision"):
            TrainingConfig(precision="bfloat16")

    def test_float32_initialisation_is_rounded_float64_draws(self):
        """Same RNG stream across precisions: float32 init == float64 init cast."""
        exact = init.he_normal((3, 3), 9, rng=42)
        with default_dtype("float32"):
            rounded = init.he_normal((3, 3), 9, rng=42)
        assert np.array_equal(rounded, exact.astype(np.float32))

    def test_grouped_dataset_preserves_float32(self):
        images = np.random.default_rng(0).random((4, 3, 8, 8)).astype(np.float32)
        dataset = GroupedDataset(
            images=images,
            labels=np.zeros(4, dtype=np.int64),
            groups=np.array([0, 0, 1, 1]),
        )
        assert dataset.images.dtype == np.float32
        assert dataset.subset([0, 2]).images.dtype == np.float32

    def test_module_astype_casts_params_grads_and_buffers(self):
        model = Sequential(Conv2d(2, 3, 3, rng=0), BatchNorm2d(3))
        model.astype(np.float32)
        for _, param in model.named_parameters():
            assert param.data.dtype == np.float32
            assert param.grad.dtype == np.float32
        bn = model[1]
        assert bn.running_mean.dtype == np.float32
        assert bn.running_var.dtype == np.float32
        assert model.dtype == np.float32
        # Buffer re-assignment (running-stat updates) keeps the registry in sync.
        bn.forward(np.zeros((2, 3, 4, 4), dtype=np.float32))
        assert dict(bn.named_buffers())["running_mean"] is bn.running_mean

    def test_load_state_dict_respects_parameter_dtype(self):
        model = Sequential(Conv2d(2, 3, 3, rng=0)).astype(np.float32)
        state = {name: value.astype(np.float64) for name, value in model.state_dict().items()}
        model.load_state_dict(state)
        assert all(p.data.dtype == np.float32 for p in model.parameters())


# -- inference mode -----------------------------------------------------------------
class TestInferenceMode:
    def test_predict_leaves_no_backward_caches(self):
        model = Sequential(Conv2d(3, 4, 3, rng=0), BatchNorm2d(4))
        trainer = Trainer(TrainingConfig(epochs=0, batch_size=4))
        images = np.random.default_rng(0).random((6, 3, 8, 8))
        trainer.predict(model, images)
        conv = model[0]
        assert conv._cache_cols is None and conv._cache_input_shape is None
        assert not is_inference()  # the flag does not leak out of predict

    def test_predict_restores_the_mode_it_found(self):
        model = Sequential(Conv2d(3, 4, 3, rng=0), BatchNorm2d(4))
        trainer = Trainer(TrainingConfig(epochs=0, batch_size=4))
        images = np.random.default_rng(0).random((6, 3, 8, 8))
        from_training = trainer.predict(model, images)
        assert all(module.training for module in model.modules())
        model.eval()
        from_eval = trainer.predict(model, images)
        assert not any(module.training for module in model.modules())
        assert np.array_equal(from_training, from_eval)

    def test_residual_block_keeps_no_activation_in_inference(self):
        from repro.blocks.mobile import MobileInvertedBlock
        from repro.blocks.spec import BlockSpec

        block = MobileInvertedBlock(
            BlockSpec("DB", ch_in=4, ch_mid=8, ch_out=4, kernel=3, stride=1), rng=0
        )
        assert block.use_residual
        x = np.random.default_rng(0).random((2, 4, 8, 8))
        with inference_mode():
            block.forward(x)
        assert block._cache_residual is None

    def test_backward_after_inference_forward_raises(self):
        layer = Conv2d(2, 2, 3, rng=0)
        with inference_mode():
            layer.forward(np.zeros((1, 2, 5, 5)))
        with pytest.raises(RuntimeError, match="backward called before forward"):
            layer.backward(np.zeros((1, 2, 5, 5)))

    def test_inference_batch_size_reaches_fairness_evaluation(self):
        from repro.fairness.report import evaluate_fairness

        model = Sequential(Conv2d(3, 4, 3, rng=0), BatchNorm2d(4))
        dataset = GroupedDataset(
            images=np.random.default_rng(0).random((6, 3, 8, 8)),
            labels=np.zeros(6, dtype=np.int64),
            groups=np.array([0, 0, 0, 1, 1, 1]),
        )

        class _Head(Module):
            def forward(self, x):
                return x.mean(axis=(2, 3))

        model.append(_Head())
        seen = []
        trainer = Trainer(TrainingConfig(epochs=0, batch_size=4, inference_batch_size=7))
        original = trainer.predict

        def spy(model, images, batch_size=None):
            seen.append(batch_size)
            return original(model, images, batch_size)

        trainer.predict = spy
        evaluate_fairness(model, dataset, trainer)
        assert seen == [7]
        # Without a configured preference the historical default (64) holds.
        seen.clear()
        plain = Trainer(TrainingConfig(epochs=0, batch_size=4))
        original_plain = plain.predict
        plain.predict = lambda m, i, b=None: (seen.append(b), original_plain(m, i, b))[1]
        evaluate_fairness(model, dataset, plain)
        assert seen == [64]

    def test_inference_forward_does_not_clobber_pending_training_cache(self):
        """predict() between a training forward and its backward is safe."""
        layer = Conv2d(2, 3, 3, rng=0)
        rng = np.random.default_rng(8)
        x_train = rng.random((2, 2, 6, 6))
        x_probe = rng.random((2, 2, 6, 6))
        layer.forward(x_train)
        with inference_mode():
            layer.forward(x_probe)  # same shape: must not reuse the workspace
        layer.backward(np.ones((2, 3, 6, 6)))
        expected = np.einsum(
            "nohw,ncijhw->ocij",
            np.ones((2, 3, 6, 6)),
            im2col_reference(x_train, 3, 3, 1, 1),
            optimize=True,
        )
        assert np.allclose(layer.weight.grad, expected, rtol=1e-11, atol=1e-12)

    def test_predict_matches_training_mode_forward(self):
        model = Sequential(Conv2d(3, 4, 3, rng=0), BatchNorm2d(4))
        images = np.random.default_rng(1).random((5, 3, 8, 8))
        trainer = Trainer(TrainingConfig(epochs=0, batch_size=2))
        predictions = trainer.predict(model, images)
        model.eval()
        expected = model.forward(images).argmax(axis=1)
        model.train()
        assert np.array_equal(predictions, expected)


# -- metrics ------------------------------------------------------------------------
class TestMetrics:
    def test_accuracy_accepts_integer_and_logit_inputs(self):
        labels = np.array([0, 1, 2, 1])
        assert accuracy(np.array([0, 1, 2, 0]), labels) == 0.75
        logits = np.eye(3)[[0, 1, 2]]
        assert accuracy(np.vstack([logits, [[0.0, 9.0, 0.0]]]), labels) == 1.0

    def test_confusion_matrix_matches_seed_loop(self):
        rng = np.random.default_rng(7)
        predictions = rng.integers(0, 4, 100)
        labels = rng.integers(0, 4, 100)
        matrix = confusion_matrix(predictions, labels, 4)
        expected = np.zeros((4, 4), dtype=np.int64)
        for true, pred in zip(labels, predictions):
            expected[true, pred] += 1
        assert np.array_equal(matrix, expected)
        assert matrix.dtype == np.int64

    def test_confusion_matrix_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            confusion_matrix(np.array([0, 5]), np.array([0, 1]), 4)

    def test_int64_inputs_are_not_copied(self):
        predictions = np.array([0, 1, 2], dtype=np.int64)
        from repro.nn.metrics import _as_class_indices

        assert _as_class_indices(predictions) is predictions


# -- worker BLAS pinning ------------------------------------------------------------
def _read_blas_env(_payload):
    return os.environ.get("OPENBLAS_NUM_THREADS")


class TestWorkerBlasPinning:
    def test_limit_blas_threads_sets_env(self):
        saved = {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")}
        try:
            limit_blas_threads(3)
            assert os.environ["OMP_NUM_THREADS"] == "3"
            assert os.environ["OPENBLAS_NUM_THREADS"] == "3"
        finally:
            for key, value in saved.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value

    def test_limit_rejects_non_positive(self):
        with pytest.raises(ValueError):
            limit_blas_threads(0)

    def test_process_pool_initializer_pins_workers(self):
        with create_pool("process", num_workers=1, blas_threads=1) as pool:
            results = pool.map_ordered(_read_blas_env, [None])
        assert results[0][0] == "1"


# -- the compute spec section -------------------------------------------------------
class TestComputeSpec:
    def test_round_trip(self):
        spec = RunSpec(compute=ComputeSpec(precision="float32"))
        restored = RunSpec.from_json(spec.to_json())
        assert restored.compute == ComputeSpec(precision="float32")
        assert RunSpec.from_json(RunSpec().to_json()).compute is None

    def test_default_compute_section_keeps_historical_cache_key(self):
        bare = RunSpec()
        spelled_out = RunSpec(compute=ComputeSpec())
        float32 = RunSpec(compute=ComputeSpec(precision="float32"))
        assert spelled_out.cache_key() == bare.cache_key()
        assert float32.cache_key() != bare.cache_key()

    def test_invalid_precision_rejected(self):
        with pytest.raises(ValueError, match="precision"):
            RunSpec.from_dict({"compute": {"precision": "float16"}})
        with pytest.raises(ValueError, match="unknown key"):
            RunSpec.from_dict({"compute": {"dtype": "float32"}})

    def test_with_overrides_starts_from_defaults(self):
        spec = RunSpec().with_overrides(values={"compute.precision": "float32"})
        assert spec.compute.precision == "float32"
        assert spec.compute.inference_batch_size is None


# -- float32 through the facade -----------------------------------------------------
def _tiny_spec(compute=None):
    payload = {
        "strategy": "fahana",
        "dataset": {
            "image_size": 10,
            "samples_per_class": 8,
            "minority_fraction": 0.5,
            "seed": 0,
        },
        "design": {"timing_constraint_ms": 1e6},
        "search": {
            "episodes": 3,
            "child_epochs": 1,
            "pretrain_epochs": 0,
            "max_searchable": 2,
            "width_multiplier": 0.25,
            "child_batch_size": 16,
            "seed": 0,
        },
    }
    if compute is not None:
        payload["compute"] = compute
    return RunSpec.from_dict(payload)


class TestPrecisionThroughRun:
    def test_explicit_float64_is_bitwise_identical_to_default(self):
        baseline = repro.run(_tiny_spec())
        explicit = repro.run(_tiny_spec({"precision": "float64"}))
        assert (
            explicit.history.reward_trajectory()
            == baseline.history.reward_trajectory()
        )
        assert [r.accuracy for r in explicit.history.records] == [
            r.accuracy for r in baseline.history.records
        ]

    def test_float32_rewards_within_tolerance_of_float64(self):
        baseline = repro.run(_tiny_spec())
        fast = repro.run(_tiny_spec({"precision": "float32"}))
        ref = baseline.history.reward_trajectory()
        got = fast.history.reward_trajectory()
        assert len(got) == len(ref)
        # The controller stays float64, so the sampled architectures match;
        # only child-training numerics (and thus rewards) may drift.
        ref_descriptors = [r.descriptor.cache_key() for r in baseline.history.records]
        fast_descriptors = [r.descriptor.cache_key() for r in fast.history.records]
        assert fast_descriptors == ref_descriptors
        assert all(abs(a - b) <= 0.25 for a, b in zip(got, ref)), (got, ref)

    def test_float32_cache_key_differs_so_results_never_cross_precisions(self):
        assert (
            _tiny_spec({"precision": "float32"}).cache_key()
            != _tiny_spec().cache_key()
        )
