"""Low-level array operations shared by the layers.

The convolution layers are built on an explicit ``im2col``/``col2im`` pair so
that forward and backward passes reduce to dense matrix products, which is
the only way to make convolutions tolerably fast in pure numpy.

``im2col`` is implemented with ``np.lib.stride_tricks.as_strided``: the
kernel-window unfold is expressed as a zero-copy strided *view* of the
(padded) input, and the only work is one contiguous copy of that view into
the output buffer.  The seed implementation -- a Python loop over the
``kernel_h x kernel_w`` offsets copying strided slices -- is kept as
:func:`im2col_reference`; both produce byte-identical outputs (the property
suite checks them against each other to 0 ulp), so the strided rewrite is a
pure speedup.  Callers on the hot path pass ``out=`` to reuse a per-layer
workspace instead of reallocating the (large) patch tensor every forward.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.nn.dtype import resolve_dtype


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution along one dimension."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"convolution produces non-positive output size "
            f"(input={size}, kernel={kernel}, stride={stride}, padding={padding})"
        )
    return out


def _pad_input(x: np.ndarray, padding: int) -> np.ndarray:
    if padding > 0:
        n, c, h, w = x.shape
        padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
        padded[:, :, padding:-padding, padding:-padding] = x
        return padded
    return x


def im2col(
    x: np.ndarray,
    kernel_h: int,
    kernel_w: int,
    stride: int,
    padding: int,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Unfold ``x`` of shape (N, C, H, W) into patches.

    Returns an array of shape ``(N, C, kernel_h, kernel_w, out_h, out_w)``.
    With ``out`` given (a contiguous buffer of that shape and ``x``'s dtype)
    the patches are copied into it and no allocation happens.
    """
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel_h, stride, padding)
    out_w = conv_output_size(w, kernel_w, stride, padding)
    x = _pad_input(x, padding)
    if not x.flags.c_contiguous:
        x = np.ascontiguousarray(x)
    s_n, s_c, s_h, s_w = x.strides
    view = as_strided(
        x,
        shape=(n, c, kernel_h, kernel_w, out_h, out_w),
        strides=(s_n, s_c, s_h, s_w, s_h * stride, s_w * stride),
        writeable=False,
    )
    if out is None:
        return np.ascontiguousarray(view)
    np.copyto(out, view)
    return out


def im2col_reference(
    x: np.ndarray, kernel_h: int, kernel_w: int, stride: int, padding: int
) -> np.ndarray:
    """The seed implementation of :func:`im2col` (Python loop over offsets).

    Kept as the correctness oracle for the strided rewrite and as the
    old-kernel baseline for ``benchmarks/bench_nn.py``.
    """
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel_h, stride, padding)
    out_w = conv_output_size(w, kernel_w, stride, padding)
    if padding > 0:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    cols = np.empty((n, c, kernel_h, kernel_w, out_h, out_w), dtype=x.dtype)
    for i in range(kernel_h):
        i_end = i + stride * out_h
        for j in range(kernel_w):
            j_end = j + stride * out_w
            cols[:, :, i, j, :, :] = x[:, :, i:i_end:stride, j:j_end:stride]
    return cols


def col2im(
    cols: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel_h: int,
    kernel_w: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Fold patch gradients back onto the input (adjoint of :func:`im2col`).

    The scatter-add over the ``kernel_h x kernel_w`` offsets stays an explicit
    loop: overlapping windows write to the same input cells, which a strided
    view cannot express safely, and each iteration is a full-array vectorised
    add.  The summation order is exactly the seed's, so gradients are
    bit-for-bit stable across the kernel rewrite.
    """
    n, c, h, w = input_shape
    out_h = conv_output_size(h, kernel_h, stride, padding)
    out_w = conv_output_size(w, kernel_w, stride, padding)
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    for i in range(kernel_h):
        i_end = i + stride * out_h
        for j in range(kernel_w):
            j_end = j + stride * out_w
            padded[:, :, i:i_end:stride, j:j_end:stride] += cols[:, :, i, j, :, :]
    if padding > 0:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


# The seed folded gradients with this exact routine; the property suite pins
# the (unchanged) implementation against it explicitly.
col2im_reference = col2im


# -- cached einsum contraction paths -------------------------------------------------
# ``np.einsum(..., optimize=True)`` re-runs the contraction-path search on
# every call, which at child-training scale costs more than some of the
# contractions themselves.  The remaining einsum call sites (the depthwise
# convolution, whose per-channel contraction has no 2-D BLAS shape) go
# through this tiny memo instead: one path search per (subscripts, shapes).
_EINSUM_PATHS: Dict[Tuple[str, Tuple[Tuple[int, ...], ...]], list] = {}
_EINSUM_LOCK = threading.Lock()


def einsum_cached(subscripts: str, *operands: np.ndarray) -> np.ndarray:
    """``np.einsum`` with the optimized contraction path computed once."""
    key = (subscripts, tuple(op.shape for op in operands))
    path = _EINSUM_PATHS.get(key)
    if path is None:
        path = np.einsum_path(subscripts, *operands, optimize="optimal")[0]
        with _EINSUM_LOCK:
            _EINSUM_PATHS.setdefault(key, path)
    return np.einsum(subscripts, *operands, optimize=path)


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax."""
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def one_hot(labels: np.ndarray, num_classes: int, dtype=None) -> np.ndarray:
    """Encode integer ``labels`` as one-hot rows.

    ``dtype`` defaults to the precision policy
    (:func:`repro.nn.dtype.get_default_dtype`); the loss passes its logits'
    dtype so float32 training does not silently upcast through the targets.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(
            f"labels must lie in [0, {num_classes}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    encoded = np.zeros((labels.shape[0], num_classes), dtype=resolve_dtype(dtype))
    encoded[np.arange(labels.shape[0]), labels] = 1.0
    return encoded
