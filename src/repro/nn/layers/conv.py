"""Standard and depthwise 2-D convolutions.

Both layers lower the convolution to ``im2col`` + dense contractions.  The
hot path is tuned for the pure-numpy setting:

* ``im2col`` is the strided zero-copy unfold from
  :mod:`repro.nn.functional`, copied into a per-layer workspace buffer that
  is reused across forward passes (the patch tensor dominates allocation
  cost at child-training scale),
* the standard convolution contracts with batched 2-D BLAS ``matmul`` calls
  instead of per-call ``einsum(..., optimize=True)`` path searches,
* the depthwise convolution keeps its (non-BLAS-shaped) per-channel
  contraction as einsum but with the contraction path computed once and
  cached (:func:`repro.nn.functional.einsum_cached`),
* inside :func:`repro.nn.module.inference_mode` no backward caches are kept.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn import init
from repro.nn.functional import (
    _pad_input,
    col2im,
    conv_output_size,
    einsum_cached,
    im2col,
)
from repro.nn.module import Module, is_inference
from repro.nn.tensor import Parameter
from repro.utils.rng import SeedLike


def _unfold_into_workspace(layer: Module, x: np.ndarray, kernel: int) -> np.ndarray:
    """``im2col`` into the layer's reusable workspace buffer.

    The training workspace is safe to reuse across training forwards because
    it is consumed by the matching ``backward`` (or discarded) before the
    next forward overwrites it.  Inference-mode forwards keep a *separate*
    workspace: a training forward may still be awaiting its backward -- its
    cached patch tensor is a view of ``_workspace`` -- so steady-state
    serving reuses ``_inference_workspace`` instead of allocating the patch
    tensor (the dominant allocation of a forward pass) on every call.
    Neither buffer escapes the forward that fills it, so identical-shape
    batches do zero large allocations after the first call.
    """
    n, c, h, w = x.shape
    stride, padding = layer.stride, layer.padding
    out_h = conv_output_size(h, kernel, stride, padding)
    out_w = conv_output_size(w, kernel, stride, padding)
    shape = (n, c, kernel, kernel, out_h, out_w)
    if is_inference():
        ws = layer._inference_workspace
        if ws is None or ws.shape != shape or ws.dtype != x.dtype:
            ws = np.empty(shape, dtype=x.dtype)
            layer._inference_workspace = ws
        return im2col(x, kernel, kernel, stride, padding, out=ws)
    ws = layer._workspace
    if ws is None or ws.shape != shape or ws.dtype != x.dtype:
        ws = np.empty(shape, dtype=x.dtype)
        layer._workspace = ws
    return im2col(x, kernel, kernel, stride, padding, out=ws)


class Conv2d(Module):
    """2-D convolution with square kernels.

    Input and output are NCHW.  ``padding`` defaults to "same"-style padding
    (``kernel_size // 2``) so that stride-1 convolutions preserve the spatial
    size, matching the behaviour assumed by the block library.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: Optional[int] = None,
        bias: bool = True,
        rng: SeedLike = None,
    ):
        super().__init__()
        if in_channels <= 0 or out_channels <= 0:
            raise ValueError("channel counts must be positive")
        if kernel_size <= 0 or stride <= 0:
            raise ValueError("kernel_size and stride must be positive")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = kernel_size // 2 if padding is None else padding

        fan_in = in_channels * kernel_size * kernel_size
        self.weight = Parameter(
            init.he_normal(
                (out_channels, in_channels, kernel_size, kernel_size), fan_in, rng
            ),
            name="weight",
        )
        self.use_bias = bias
        if bias:
            self.bias = Parameter(init.zeros((out_channels,)), name="bias")

        self._workspace: Optional[np.ndarray] = None
        self._inference_workspace: Optional[np.ndarray] = None
        self._cache_cols: Optional[np.ndarray] = None
        self._cache_input_shape: Optional[tuple] = None

    def output_shape(self, height: int, width: int) -> tuple:
        """Spatial output shape for an input of ``height`` x ``width``."""
        out_h = conv_output_size(height, self.kernel_size, self.stride, self.padding)
        out_w = conv_output_size(width, self.kernel_size, self.stride, self.padding)
        return (self.out_channels, out_h, out_w)

    @property
    def _pointwise(self) -> bool:
        """1x1 / stride-1 / unpadded: the unfold is the identity reshape."""
        return self.kernel_size == 1 and self.stride == 1 and self.padding == 0

    def _cols(self, x: np.ndarray) -> np.ndarray:
        """Unfold ``x``; pointwise convolutions -- the majority of a
        MobileNet-style child -- skip the copy entirely: their patch tensor
        *is* the input, reshaped."""
        if self._pointwise:
            n, c, h, w = x.shape
            if not x.flags.c_contiguous:
                x = np.ascontiguousarray(x)
            return x.reshape(n, c, 1, 1, h, w)
        return _unfold_into_workspace(self, x, self.kernel_size)

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        if c != self.in_channels:
            raise ValueError(
                f"expected {self.in_channels} input channels, got {c}"
            )
        k = self.kernel_size
        cols = self._cols(x)
        n_, _, _, _, out_h, out_w = cols.shape
        cols_mat = cols.reshape(n_, self.in_channels * k * k, out_h * out_w)
        weight_mat = self.weight.data.reshape(self.out_channels, -1)
        # (o, f) @ (n, f, l) -> (n, o, l): one BLAS GEMM per sample.
        out = np.matmul(weight_mat, cols_mat)
        out = out.reshape(n_, self.out_channels, out_h, out_w)
        if self.use_bias:
            out += self.bias.data[None, :, None, None]
        if not is_inference():
            self._cache_cols = cols_mat
            self._cache_input_shape = x.shape
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache_cols is None or self._cache_input_shape is None:
            raise RuntimeError("backward called before forward")
        n, _, out_h, out_w = grad_output.shape
        k = self.kernel_size
        grad_mat = grad_output.reshape(n, self.out_channels, out_h * out_w)

        # Contract over (n, l) in a single GEMM: at child-training scale the
        # per-sample matrices are tiny, so one big BLAS call beats a batched
        # multiply followed by a reduction over the batch axis.
        weight_grad = np.tensordot(
            grad_mat, self._cache_cols, axes=([0, 2], [0, 2])
        ).reshape(self.weight.data.shape)
        self.weight.accumulate_grad(weight_grad)
        if self.use_bias:
            self.bias.accumulate_grad(grad_mat.sum(axis=(0, 2)))

        weight_mat = self.weight.data.reshape(self.out_channels, -1)
        # (f, o) @ (n, o, l) -> (n, f, l)
        grad_cols = np.matmul(weight_mat.T, grad_mat)
        if self._pointwise:
            # The adjoint of a reshape is a reshape: no scatter-add needed.
            grad_input = grad_cols.reshape(self._cache_input_shape)
        else:
            grad_cols = grad_cols.reshape(n, self.in_channels, k, k, out_h, out_w)
            grad_input = col2im(
                grad_cols, self._cache_input_shape, k, k, self.stride, self.padding
            )
        self._cache_cols = None
        self._cache_input_shape = None
        return grad_input

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Conv2d({self.in_channels}, {self.out_channels}, "
            f"k={self.kernel_size}, s={self.stride}, p={self.padding})"
        )


class DepthwiseConv2d(Module):
    """Depthwise 2-D convolution (one filter per input channel).

    This is the workhorse of the MobileNet-style MB/DB blocks.  The channel
    multiplier is fixed to 1, matching MobileNetV2.
    """

    def __init__(
        self,
        channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: Optional[int] = None,
        bias: bool = False,
        rng: SeedLike = None,
    ):
        super().__init__()
        if channels <= 0:
            raise ValueError("channels must be positive")
        if kernel_size <= 0 or stride <= 0:
            raise ValueError("kernel_size and stride must be positive")
        self.channels = channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = kernel_size // 2 if padding is None else padding

        fan_in = kernel_size * kernel_size
        self.weight = Parameter(
            init.he_normal((channels, kernel_size, kernel_size), fan_in, rng),
            name="weight",
        )
        self.use_bias = bias
        if bias:
            self.bias = Parameter(init.zeros((channels,)), name="bias")

        self._workspace: Optional[np.ndarray] = None
        self._inference_workspace: Optional[np.ndarray] = None
        self._cache_cols: Optional[np.ndarray] = None
        self._cache_input_shape: Optional[tuple] = None

    def output_shape(self, height: int, width: int) -> tuple:
        out_h = conv_output_size(height, self.kernel_size, self.stride, self.padding)
        out_w = conv_output_size(width, self.kernel_size, self.stride, self.padding)
        return (self.channels, out_h, out_w)

    def _cols(self, x: np.ndarray) -> np.ndarray:
        return _unfold_into_workspace(self, x, self.kernel_size)

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        if c != self.channels:
            raise ValueError(f"expected {self.channels} channels, got {c}")
        k = self.kernel_size
        cols = self._cols(x)
        out_h, out_w = cols.shape[4], cols.shape[5]
        # Per-channel contraction over the k*k taps as a broadcast batched
        # mat-vec: (1, c, 1, k*k) @ (n, c, k*k, l) -> (n, c, 1, l).
        cols_mat = cols.reshape(n, c, k * k, out_h * out_w)
        weight_vec = self.weight.data.reshape(1, c, 1, k * k)
        out = np.matmul(weight_vec, cols_mat).reshape(n, c, out_h, out_w)
        if self.use_bias:
            out += self.bias.data[None, :, None, None]
        if not is_inference():
            self._cache_cols = cols
            self._cache_input_shape = x.shape
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache_cols is None or self._cache_input_shape is None:
            raise RuntimeError("backward called before forward")
        k = self.kernel_size
        weight_grad = einsum_cached(
            "nchw,ncijhw->cij", grad_output, self._cache_cols
        )
        self.weight.accumulate_grad(weight_grad)
        if self.use_bias:
            self.bias.accumulate_grad(grad_output.sum(axis=(0, 2, 3)))

        n, _, out_h, out_w = grad_output.shape
        _, c, h, w = self._cache_input_shape
        stride, padding = self.stride, self.padding

        if grad_output.dtype == np.float32 and stride == 1:
            # float32 fast path: the input gradient of a stride-1 depthwise
            # convolution is itself a depthwise correlation of the (edge-
            # padded) output gradient with the flipped kernel, so it reduces
            # to one more im2col + batched mat-vec instead of k*k strided
            # scatter-adds.  This reassociates the per-cell sums, which is
            # why it is reserved for float32 -- float64 keeps the seed's
            # exact addition order below (bit-for-bit legacy parity).
            grad_input = self._transposed_correlation(grad_output, h, w)
            self._cache_cols = None
            self._cache_input_shape = None
            return grad_input

        # Fused outer-product + fold: the seed materialised the full
        # (n, c, k, k, out_h, out_w) patch-gradient tensor and then col2im'd
        # it; streaming one (weight-tap x grad_output) product per offset
        # into the padded input skips that tensor entirely.  Products and
        # per-cell addition order match the seed's col2im loop exactly.
        padded = np.zeros(
            (n, c, h + 2 * padding, w + 2 * padding), dtype=grad_output.dtype
        )
        scratch = np.empty_like(grad_output)
        for i in range(k):
            i_end = i + stride * out_h
            for j in range(k):
                j_end = j + stride * out_w
                np.multiply(
                    grad_output,
                    self.weight.data[None, :, i, j, None, None],
                    out=scratch,
                )
                padded[:, :, i:i_end:stride, j:j_end:stride] += scratch
        # Like the seed's col2im, the unpadded gradient is returned as a view.
        grad_input = (
            padded[:, :, padding:-padding, padding:-padding]
            if padding > 0
            else padded
        )
        self._cache_cols = None
        self._cache_input_shape = None
        return grad_input

    def _transposed_correlation(
        self, grad_output: np.ndarray, h: int, w: int
    ) -> np.ndarray:
        """Stride-1 input gradient as a correlation with the flipped kernel.

        ``grad_input[y, x] = sum_ij w[i, j] * g[y + p - i, x + p - j]``, so
        padding ``g`` by ``k - 1 - p`` turns the fold into a plain stride-1
        depthwise convolution with the spatially flipped weights.
        """
        n, c = grad_output.shape[0], self.channels
        k, padding = self.kernel_size, self.padding
        pad = k - 1 - padding
        if pad > 0:
            grad_output = _pad_input(grad_output, pad)
        elif pad < 0:
            grad_output = grad_output[:, :, -pad:pad, -pad:pad]
        cols = im2col(grad_output, k, k, 1, 0)
        flipped = np.ascontiguousarray(self.weight.data[:, ::-1, ::-1])
        grad_input = np.matmul(
            flipped.reshape(1, c, 1, k * k), cols.reshape(n, c, k * k, h * w)
        )
        return grad_input.reshape(n, c, h, w)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DepthwiseConv2d({self.channels}, k={self.kernel_size}, "
            f"s={self.stride}, p={self.padding})"
        )
