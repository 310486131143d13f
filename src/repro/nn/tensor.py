"""Trainable parameter container."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.dtype import DtypeLike, resolve_dtype


class Parameter:
    """A named, trainable array with an accumulated gradient.

    ``trainable`` supports the paper's freezing method: frozen blocks keep
    their pre-trained weights and the optimiser skips them, which both
    reduces the number of trained parameters and shrinks the search space.

    ``dtype`` defaults to the global precision policy
    (:mod:`repro.nn.dtype`), which is float64 unless a run opts into float32.

    ``grad`` is None on a frozen :meth:`alias`, which never accumulates one.
    """

    def __init__(
        self,
        data: np.ndarray,
        name: str = "",
        trainable: bool = True,
        dtype: DtypeLike = None,
    ):
        self.data = np.asarray(data, dtype=resolve_dtype(dtype))
        self.grad: Optional[np.ndarray] = np.zeros_like(self.data)
        self.name = name
        self.trainable = trainable

    def alias(self) -> "Parameter":
        """A frozen parameter over this one's ``data`` object, without a gradient."""
        alias = Parameter.__new__(Parameter)
        alias.data = self.data
        alias.grad = None
        alias.name = self.name
        alias.trainable = False
        return alias

    def astype(self, dtype: DtypeLike) -> "Parameter":
        """Cast the value and gradient to ``dtype`` in place (no-op if equal)."""
        resolved = resolve_dtype(dtype)
        if self.data.dtype != resolved:
            self.data = self.data.astype(resolved)
            if self.grad is not None:
                self.grad = self.grad.astype(resolved)
        return self

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return int(self.data.size)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient to zero."""
        if self.grad is not None:
            self.grad.fill(0.0)

    def accumulate_grad(self, grad: np.ndarray) -> None:
        """Add ``grad`` to the accumulated gradient (no-op when frozen)."""
        if not self.trainable:
            return
        if grad.shape != self.data.shape:
            raise ValueError(
                f"gradient shape {grad.shape} does not match parameter "
                f"shape {self.data.shape} for '{self.name}'"
            )
        self.grad += grad

    def copy_(self, other: "Parameter") -> None:
        """Copy the values of ``other`` into this parameter in place."""
        if other.data.shape != self.data.shape:
            raise ValueError(
                f"cannot copy parameter of shape {other.data.shape} into "
                f"shape {self.data.shape}"
            )
        self.data = other.data.copy()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = "" if self.trainable else ", frozen"
        return f"Parameter(name={self.name!r}, shape={self.data.shape}{flag})"
