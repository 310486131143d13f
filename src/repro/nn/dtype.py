"""Global floating-point precision policy for the numpy NN stack.

Every reward in the search loop is paid for by pure-numpy child training, so
the dtype of the hot path is a first-class performance knob: float32 halves
the memory traffic of every convolution, activation and optimizer step and
roughly doubles BLAS GEMM throughput on most CPUs.  The policy here is the
single source of truth for "what dtype does freshly created NN state use":
parameters, initialisers, one-hot targets and generated datasets all resolve
their dtype through :func:`get_default_dtype` unless given one explicitly.

The default is ``float64``, which reproduces the seed stack bit for bit.
Switching the policy (process-wide via :func:`set_default_dtype`, or scoped
via the :func:`default_dtype` context manager) opts new state into float32;
training at a given precision regardless of the ambient policy is handled by
``TrainingConfig.precision``, which casts the model and data at ``fit`` time.

The policy is deliberately process-global rather than thread-local: models
are built in the driving thread (the engine's wave loop) and only *trained*
concurrently, and a per-thread policy would silently diverge between the
parent and worker processes of the ``process`` backend.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional, Union

import numpy as np

DTYPE_NAMES = ("float32", "float64")

DtypeLike = Union[None, str, type, np.dtype]

_DEFAULT_DTYPE = np.dtype(np.float64)


def _as_dtype(dtype: DtypeLike) -> np.dtype:
    resolved = np.dtype(dtype)
    if resolved.name not in DTYPE_NAMES:
        raise ValueError(
            f"unsupported precision {resolved.name!r}; expected one of {DTYPE_NAMES}"
        )
    return resolved


def get_default_dtype() -> np.dtype:
    """The dtype newly created NN state (parameters, targets, data) uses."""
    return _DEFAULT_DTYPE


def set_default_dtype(dtype: DtypeLike) -> np.dtype:
    """Set the process-wide default dtype; returns the previous one."""
    global _DEFAULT_DTYPE
    previous = _DEFAULT_DTYPE
    _DEFAULT_DTYPE = _as_dtype(dtype)  # repro-lint: disable=THR001 -- documented process-wide policy switch, set from the driving thread before training
    return previous


def resolve_dtype(dtype: DtypeLike = None) -> np.dtype:
    """``dtype`` if given (validated), else the current default policy."""
    if dtype is None:
        return _DEFAULT_DTYPE
    return _as_dtype(dtype)


@contextmanager
def default_dtype(dtype: DtypeLike) -> Iterator[np.dtype]:
    """Scoped precision policy; ``None`` leaves the policy untouched."""
    if dtype is None:
        yield _DEFAULT_DTYPE
        return
    previous = set_default_dtype(dtype)
    try:
        yield _DEFAULT_DTYPE
    finally:
        set_default_dtype(previous)
