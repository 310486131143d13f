"""Module base class and Sequential container."""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.nn.dtype import DtypeLike, resolve_dtype
from repro.nn.tensor import Parameter

# -- inference mode -----------------------------------------------------------------
# Inside ``inference_mode()`` the layers skip storing their backward caches
# (im2col workspaces, activation masks, argmax indices, ...), which makes
# prediction allocation-free beyond the activations themselves.  The flag is
# thread-local because the engine's thread backend trains children
# concurrently: one thread predicting must not disable another thread's
# backward caches.
_INFERENCE_STATE = threading.local()


def is_inference() -> bool:
    """True inside an :func:`inference_mode` block (current thread only)."""
    return getattr(_INFERENCE_STATE, "active", False)


@contextmanager
def inference_mode() -> Iterator[None]:
    """Forward passes inside this context keep no backward caches.

    A ``backward`` call after an inference-mode forward raises the usual
    "backward called before forward" error, exactly as if forward had never
    run -- which is the point: prediction leaves no training state behind.
    """
    previous = is_inference()
    _INFERENCE_STATE.active = True
    try:
        yield
    finally:
        _INFERENCE_STATE.active = previous


class Module:
    """Base class for every layer and composite block.

    Sub-classes implement :meth:`forward` (caching whatever the backward pass
    needs) and :meth:`backward` (returning the gradient with respect to the
    module input and accumulating parameter gradients).  Sub-modules and
    parameters assigned as attributes are discovered automatically, so
    ``parameters()`` / ``state_dict()`` / ``freeze()`` work recursively.
    """

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self._buffers: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self.training = True

    # -- attribute registration -------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        elif name in self.__dict__.get("_buffers", ()):
            # Re-assigning a registered buffer (batch-norm running stats)
            # keeps the registry in sync with the attribute.
            self.__dict__["_buffers"][name] = value
        object.__setattr__(self, name, value)

    def register_module(self, name: str, module: "Module") -> None:
        """Register a sub-module under an explicit name (used by containers)."""
        self._modules[name] = module
        object.__setattr__(self, name, module)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register non-trainable state that belongs to the module (running
        statistics etc.); buffers follow :meth:`astype` casts alongside the
        parameters and stay ordinary attributes for reading and assignment."""
        self.__dict__.setdefault("_buffers", OrderedDict())[name] = value
        object.__setattr__(self, name, value)

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        """Yield ``(qualified_name, buffer)`` pairs, depth first."""
        for name, value in self._buffers.items():
            yield (f"{prefix}{name}", value)
        for mod_name, module in self._modules.items():
            yield from module.named_buffers(prefix=f"{prefix}{mod_name}.")

    # -- parameter access -------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(qualified_name, parameter)`` pairs, depth first."""
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for mod_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{mod_name}.")

    def parameters(self) -> List[Parameter]:
        """Return all parameters of this module and its sub-modules."""
        return [param for _, param in self.named_parameters()]

    def trainable_parameters(self) -> List[Parameter]:
        """Return only the parameters the optimiser should update."""
        return [p for p in self.parameters() if p.trainable]

    def num_parameters(self, trainable_only: bool = False) -> int:
        """Total number of scalar parameters."""
        params = self.trainable_parameters() if trainable_only else self.parameters()
        return int(sum(p.size for p in params))

    def modules(self) -> Iterator["Module"]:
        """Yield this module and every sub-module, depth first."""
        yield self
        for module in self._modules.values():
            yield from module.modules()

    def children(self) -> List["Module"]:
        """Return the immediate sub-modules."""
        return list(self._modules.values())

    # -- train / eval / freeze --------------------------------------------------
    def train(self) -> "Module":
        """Put the module (and sub-modules) in training mode."""
        return self._set_training(True)

    def eval(self) -> "Module":
        """Put the module (and sub-modules) in inference mode."""
        return self._set_training(False)

    def _set_training(self, flag: bool) -> "Module":
        # The modules() order, walked with a stack instead of nested
        # generators, writing the flag past __setattr__'s type checks (a
        # bool is neither a Parameter, a Module nor a buffer).
        stack = [self]
        while stack:
            module = stack.pop()
            module.__dict__["training"] = flag
            if module._modules:
                stack.extend(reversed(module._modules.values()))
        return self

    def freeze(self) -> "Module":
        """Mark every parameter as non-trainable (used for frozen header blocks)."""
        for param in self.parameters():
            param.trainable = False
        return self

    def unfreeze(self) -> "Module":
        """Mark every parameter as trainable again."""
        for param in self.parameters():
            param.trainable = True
        return self

    def zero_grad(self) -> None:
        """Clear accumulated gradients on every parameter."""
        for param in self.parameters():
            param.zero_grad()

    def shell(self) -> "Module":
        """A frozen copy of this module over the same parameter arrays.

        The shell has its own module objects, its own copies of the buffers
        and, as parameters, frozen aliases of this module's (see
        :meth:`Parameter.alias`).  Every other attribute is shared: layer
        settings and specs, but also the caches and workspaces a forward
        fills, so only shell a module that has never run forward.
        """
        parameters = OrderedDict(
            (name, param.alias()) for name, param in self._parameters.items()
        )
        modules = OrderedDict(
            (name, module.shell()) for name, module in self._modules.items()
        )
        buffers = OrderedDict(
            (name, value.copy()) for name, value in self._buffers.items()
        )
        shell = object.__new__(type(self))
        shell.__dict__.update(vars(self))
        shell.__dict__.update(parameters)
        shell.__dict__.update(modules)
        shell.__dict__.update(buffers)
        shell.__dict__.update(
            _parameters=parameters, _modules=modules, _buffers=buffers
        )
        return shell

    # -- precision ---------------------------------------------------------------
    def astype(self, dtype: DtypeLike) -> "Module":
        """Cast every parameter, gradient and buffer to ``dtype`` in place.

        Used by :class:`~repro.nn.trainer.Trainer` to honour
        ``TrainingConfig.precision`` on models that were built under a
        different policy; casting to the current dtype is a no-op.
        """
        resolved = resolve_dtype(dtype)
        for module in self.modules():
            for param in module._parameters.values():
                param.astype(resolved)
            for name, value in module._buffers.items():
                if isinstance(value, np.ndarray) and np.issubdtype(
                    value.dtype, np.floating
                ) and value.dtype != resolved:
                    module.register_buffer(name, value.astype(resolved))
        return self

    @property
    def dtype(self) -> np.dtype:
        """The dtype of the module's parameters (policy default if it has none)."""
        for _, param in self.named_parameters():
            return param.data.dtype
        return resolve_dtype(None)

    # -- state dict --------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Return a copy of every parameter array keyed by qualified name."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray], strict: bool = True) -> None:
        """Load parameter values from ``state`` (as produced by ``state_dict``)."""
        own = dict(self.named_parameters())
        missing = [name for name in own if name not in state]
        unexpected = [name for name in state if name not in own]
        if strict and (missing or unexpected):
            raise KeyError(
                f"state dict mismatch: missing={missing}, unexpected={unexpected}"
            )
        for name, param in own.items():
            if name in state:
                # Cast into the parameter's own dtype (the seed forced
                # float64 here, which silently un-did a float32 policy).
                value = np.asarray(state[name], dtype=param.data.dtype)
                if value.shape != param.data.shape:
                    raise ValueError(
                        f"shape mismatch for '{name}': "
                        f"{value.shape} vs {param.data.shape}"
                    )
                param.data = value.copy()

    # -- forward / backward ------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class Sequential(Module):
    """Run sub-modules in order; backward runs them in reverse."""

    def __init__(self, *modules: Module):
        super().__init__()
        self._order: List[str] = []
        for index, module in enumerate(modules):
            name = f"layer{index}"
            self.register_module(name, module)
            self._order.append(name)

    def append(self, module: Module) -> "Sequential":
        """Add a module to the end of the pipeline."""
        name = f"layer{len(self._order)}"
        self.register_module(name, module)
        self._order.append(name)
        return self

    def shell(self) -> "Sequential":
        shell = super().shell()
        shell._order = list(self._order)
        return shell

    def __len__(self) -> int:
        return len(self._order)

    def __getitem__(self, index: int) -> Module:
        return self._modules[self._order[index]]

    def __iter__(self) -> Iterator[Module]:
        return iter(self._modules[name] for name in self._order)

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = x
        for name in self._order:
            out = self._modules[name].forward(out)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad = grad_output
        for name in reversed(self._order):
            grad = self._modules[name].backward(grad)
        return grad

    def forward_collect(self, x: np.ndarray) -> List[np.ndarray]:
        """Forward pass returning the output of every stage.

        Used by the freezing analysis (Figure 3), which compares the
        intermediate feature maps of demographic groups layer by layer.
        """
        outputs: List[np.ndarray] = []
        out = x
        for name in self._order:
            out = self._modules[name].forward(out)
            outputs.append(out)
        return outputs
