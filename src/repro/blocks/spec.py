"""Declarative block specifications.

A :class:`BlockSpec` fully describes one block of an architecture without
instantiating any weights.  Specifications are used in three places:

* the NAS controller emits them as its per-block decisions,
* the zoo describes the reference architectures with them (so parameter
  counts and analytic latency are computed at the paper's full scale), and
* the block factory instantiates trainable numpy modules from them (at a
  reduced training scale when requested).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Tuple, TypeVar

# The four searchable block types of the paper plus the depth-skip.
BLOCK_TYPES: Tuple[str, ...] = ("MB", "DB", "RB", "CB")

# Additional non-searchable block kinds: identity skips (depth control) and
# the bottleneck residual used only by the ResNet-50 zoo descriptor.
_VALID_TYPES = BLOCK_TYPES + ("SKIP", "RBB")

_T = TypeVar("_T")


def cached_method(method: Callable[..., _T]) -> Callable[..., _T]:
    """Compute a zero-argument method once per instance, then return that value.

    Only for frozen dataclasses: the result must depend on the fields alone,
    and a frozen instance's fields never change.  The value is stored in the
    instance's ``__dict__`` under a private name, as
    :class:`functools.cached_property` stores its value, so the method stays
    a method.  It is not a field, so ``==``, ``hash``, ``repr`` and
    :func:`dataclasses.asdict` never see it; :func:`dataclasses.replace`
    builds a new instance, which computes its own; ``pickle`` carries it.
    Two threads calling first at once may both compute; they store equal
    values.
    """
    slot = f"_cached_{method.__name__}"

    @functools.wraps(method)
    def wrapper(self):
        try:
            return self.__dict__[slot]
        except KeyError:
            value = self.__dict__[slot] = method(self)
            return value

    return wrapper


@dataclass(frozen=True)
class OpCost:
    """Cost descriptor of one primitive operation inside a block.

    ``macs`` counts multiply-accumulate operations; ``params`` counts scalar
    weights; ``input_elems`` / ``output_elems`` count activation elements
    read and written.  The hardware latency model consumes these.
    """

    kind: str  # "conv", "dwconv", "linear", "bn", "add", "pool"
    macs: float
    params: int
    input_elems: int
    output_elems: int


@dataclass(frozen=True)
class BlockSpec:
    """One block of an architecture.

    Channel semantics follow the paper: ``ch_in`` (CH1) is fixed by the
    preceding block, while ``ch_mid`` (CH2), ``ch_out`` (CH3) and ``kernel``
    (K) are searchable.  ``block_type == "SKIP"`` denotes a skipped (identity)
    block used to shorten the network.
    """

    block_type: str
    ch_in: int
    ch_mid: int
    ch_out: int
    kernel: int = 3
    stride: int = 1
    se_ratio: float = 0.0

    def __post_init__(self) -> None:
        if self.block_type not in _VALID_TYPES:
            raise ValueError(
                f"unknown block type {self.block_type!r}; expected one of {_VALID_TYPES}"
            )
        if self.block_type == "SKIP":
            if self.ch_in != self.ch_out:
                raise ValueError("a SKIP block must preserve the channel count")
            return
        if min(self.ch_in, self.ch_mid, self.ch_out) <= 0:
            raise ValueError("channel counts must be positive")
        if self.kernel <= 0 or self.kernel % 2 == 0:
            raise ValueError(f"kernel size must be a positive odd number, got {self.kernel}")
        if self.stride not in (1, 2):
            raise ValueError(f"stride must be 1 or 2, got {self.stride}")
        if self.block_type == "MB" and self.stride != 2:
            raise ValueError("MB blocks use stride 2 (use DB for stride 1)")
        if self.block_type == "DB" and self.stride != 1:
            raise ValueError("DB blocks use stride 1 (use MB for stride 2)")
        if not 0.0 <= self.se_ratio < 1.0:
            raise ValueError("se_ratio must be in [0, 1)")
        if self.se_ratio > 0.0 and self.block_type not in ("MB", "DB"):
            raise ValueError("squeeze-excitation is only supported on MB/DB blocks")

    # -- shape bookkeeping ------------------------------------------------------
    def output_spatial(self, height: int, width: int) -> Tuple[int, int]:
        """Spatial size after this block."""
        if self.block_type == "SKIP" or self.stride == 1:
            return (height, width)
        return (max(1, (height + 1) // 2), max(1, (width + 1) // 2))

    @property
    def has_residual(self) -> bool:
        """True when the block contains an elementwise residual addition."""
        if self.block_type in ("RB", "RBB"):
            return True
        if self.block_type == "DB":
            return self.ch_in == self.ch_out
        return False

    # -- analytic costs ----------------------------------------------------------
    def op_costs(self, height: int, width: int) -> List[OpCost]:
        """Primitive operations of the block at the given input resolution."""
        if self.block_type == "SKIP":
            return []
        out_h, out_w = self.output_spatial(height, width)
        in_hw = height * width
        out_hw = out_h * out_w
        k2 = self.kernel * self.kernel
        ops: List[OpCost] = []

        if self.block_type in ("MB", "DB"):
            # 1x1 expand -> KxK depthwise (stride) -> 1x1 project, BN after each.
            ops.append(
                OpCost(
                    "pwconv",
                    macs=self.ch_in * self.ch_mid * in_hw,
                    params=self.ch_in * self.ch_mid,
                    input_elems=self.ch_in * in_hw,
                    output_elems=self.ch_mid * in_hw,
                )
            )
            ops.append(_bn_cost(self.ch_mid, in_hw))
            ops.append(
                OpCost(
                    "dwconv",
                    macs=k2 * self.ch_mid * out_hw,
                    params=k2 * self.ch_mid,
                    input_elems=self.ch_mid * in_hw,
                    output_elems=self.ch_mid * out_hw,
                )
            )
            ops.append(_bn_cost(self.ch_mid, out_hw))
            if self.se_ratio > 0.0:
                hidden = max(1, int(round(self.ch_mid * self.se_ratio)))
                se_params = 2 * self.ch_mid * hidden + hidden + self.ch_mid
                ops.append(
                    OpCost(
                        "linear",
                        macs=float(2 * self.ch_mid * hidden + self.ch_mid * out_hw),
                        params=se_params,
                        input_elems=self.ch_mid * out_hw,
                        output_elems=self.ch_mid * out_hw,
                    )
                )
            ops.append(
                OpCost(
                    "pwconv",
                    macs=self.ch_mid * self.ch_out * out_hw,
                    params=self.ch_mid * self.ch_out,
                    input_elems=self.ch_mid * out_hw,
                    output_elems=self.ch_out * out_hw,
                )
            )
            ops.append(_bn_cost(self.ch_out, out_hw))
            if self.has_residual:
                ops.append(_add_cost(self.ch_out, out_hw))
        elif self.block_type == "RB":
            # KxK conv -> KxK conv with a residual add (projected when needed).
            ops.append(
                OpCost(
                    "conv",
                    macs=k2 * self.ch_in * self.ch_mid * out_hw,
                    params=k2 * self.ch_in * self.ch_mid,
                    input_elems=self.ch_in * in_hw,
                    output_elems=self.ch_mid * out_hw,
                )
            )
            ops.append(_bn_cost(self.ch_mid, out_hw))
            ops.append(
                OpCost(
                    "conv",
                    macs=k2 * self.ch_mid * self.ch_out * out_hw,
                    params=k2 * self.ch_mid * self.ch_out,
                    input_elems=self.ch_mid * out_hw,
                    output_elems=self.ch_out * out_hw,
                )
            )
            ops.append(_bn_cost(self.ch_out, out_hw))
            if self.ch_in != self.ch_out or self.stride != 1:
                ops.append(
                    OpCost(
                        "pwconv",
                        macs=self.ch_in * self.ch_out * out_hw,
                        params=self.ch_in * self.ch_out,
                        input_elems=self.ch_in * in_hw,
                        output_elems=self.ch_out * out_hw,
                    )
                )
                ops.append(_bn_cost(self.ch_out, out_hw))
            ops.append(_add_cost(self.ch_out, out_hw))
        elif self.block_type == "RBB":
            # Bottleneck: 1x1 reduce -> KxK -> 1x1 expand, with residual add.
            ops.append(
                OpCost(
                    "pwconv",
                    macs=self.ch_in * self.ch_mid * in_hw,
                    params=self.ch_in * self.ch_mid,
                    input_elems=self.ch_in * in_hw,
                    output_elems=self.ch_mid * in_hw,
                )
            )
            ops.append(_bn_cost(self.ch_mid, in_hw))
            ops.append(
                OpCost(
                    "conv",
                    macs=k2 * self.ch_mid * self.ch_mid * out_hw,
                    params=k2 * self.ch_mid * self.ch_mid,
                    input_elems=self.ch_mid * in_hw,
                    output_elems=self.ch_mid * out_hw,
                )
            )
            ops.append(_bn_cost(self.ch_mid, out_hw))
            ops.append(
                OpCost(
                    "pwconv",
                    macs=self.ch_mid * self.ch_out * out_hw,
                    params=self.ch_mid * self.ch_out,
                    input_elems=self.ch_mid * out_hw,
                    output_elems=self.ch_out * out_hw,
                )
            )
            ops.append(_bn_cost(self.ch_out, out_hw))
            if self.ch_in != self.ch_out or self.stride != 1:
                ops.append(
                    OpCost(
                        "pwconv",
                        macs=self.ch_in * self.ch_out * out_hw,
                        params=self.ch_in * self.ch_out,
                        input_elems=self.ch_in * in_hw,
                        output_elems=self.ch_out * out_hw,
                    )
                )
                ops.append(_bn_cost(self.ch_out, out_hw))
            ops.append(_add_cost(self.ch_out, out_hw))
        elif self.block_type == "CB":
            # 1x1 conv -> KxK conv, plain feed-forward.
            ops.append(
                OpCost(
                    "pwconv",
                    macs=self.ch_in * self.ch_mid * in_hw,
                    params=self.ch_in * self.ch_mid,
                    input_elems=self.ch_in * in_hw,
                    output_elems=self.ch_mid * in_hw,
                )
            )
            ops.append(_bn_cost(self.ch_mid, in_hw))
            ops.append(
                OpCost(
                    "conv",
                    macs=k2 * self.ch_mid * self.ch_out * out_hw,
                    params=k2 * self.ch_mid * self.ch_out,
                    input_elems=self.ch_mid * in_hw,
                    output_elems=self.ch_out * out_hw,
                )
            )
            ops.append(_bn_cost(self.ch_out, out_hw))
        return ops

    @cached_method
    def param_count(self) -> int:
        """Number of scalar weights in the block (resolution independent)."""
        return int(sum(op.params for op in self.op_costs(8, 8)))

    def macs(self, height: int, width: int) -> float:
        """Multiply-accumulate count at the given input resolution."""
        return float(sum(op.macs for op in self.op_costs(height, width)))

    @cached_method
    def cache_key(self) -> str:
        """Canonical content fingerprint of the block specification."""
        from repro.utils.fingerprint import content_fingerprint

        return content_fingerprint(
            {
                "kind": "BlockSpec",
                "block_type": self.block_type,
                "ch_in": self.ch_in,
                "ch_mid": self.ch_mid,
                "ch_out": self.ch_out,
                "kernel": self.kernel,
                "stride": self.stride,
                "se_ratio": self.se_ratio,
            }
        )

    # -- helpers ------------------------------------------------------------------
    def scaled(self, width_multiplier: float) -> "BlockSpec":
        """Return a copy with channel counts scaled (used by training presets)."""
        if width_multiplier <= 0:
            raise ValueError("width multiplier must be positive")
        if self.block_type == "SKIP":
            scaled_ch = _scale_channels(self.ch_in, width_multiplier)
            return replace(self, ch_in=scaled_ch, ch_mid=scaled_ch, ch_out=scaled_ch)
        return replace(
            self,
            ch_in=_scale_channels(self.ch_in, width_multiplier),
            ch_mid=_scale_channels(self.ch_mid, width_multiplier),
            ch_out=_scale_channels(self.ch_out, width_multiplier),
        )

    def describe(self) -> str:
        """Human-readable one-line description (used by Figure 7)."""
        if self.block_type == "SKIP":
            return f"SKIP {self.ch_in}"
        return (
            f"{self.block_type} {self.ch_in},{self.ch_mid},{self.ch_out},{self.kernel}"
        )


@dataclass(frozen=True)
class StemSpec:
    """The fixed stem convolution preceding the block stack."""

    ch_in: int = 3
    ch_out: int = 32
    kernel: int = 3
    stride: int = 2

    def op_costs(self, height: int, width: int) -> List[OpCost]:
        out_h = max(1, (height + self.stride - 1) // self.stride)
        out_w = max(1, (width + self.stride - 1) // self.stride)
        out_hw = out_h * out_w
        k2 = self.kernel * self.kernel
        return [
            OpCost(
                "conv",
                macs=k2 * self.ch_in * self.ch_out * out_hw,
                params=k2 * self.ch_in * self.ch_out,
                input_elems=self.ch_in * height * width,
                output_elems=self.ch_out * out_hw,
            ),
            _bn_cost(self.ch_out, out_hw),
        ]

    def output_spatial(self, height: int, width: int) -> Tuple[int, int]:
        return (
            max(1, (height + self.stride - 1) // self.stride),
            max(1, (width + self.stride - 1) // self.stride),
        )

    @cached_method
    def param_count(self) -> int:
        return int(sum(op.params for op in self.op_costs(8, 8)))

    @cached_method
    def cache_key(self) -> str:
        """Canonical content fingerprint of the stem specification."""
        from repro.utils.fingerprint import content_fingerprint

        return content_fingerprint(
            {
                "kind": "StemSpec",
                "ch_in": self.ch_in,
                "ch_out": self.ch_out,
                "kernel": self.kernel,
                "stride": self.stride,
            }
        )


@dataclass(frozen=True)
class ClassifierSpec:
    """Global average pooling followed by a linear classifier.

    ``hidden_features`` inserts an intermediate fully-connected layer (used
    by the MobileNetV3 descriptors, whose classifier is 576->1024->classes or
    960->1280->classes).
    """

    ch_in: int = 1280
    num_classes: int = 5
    hidden_features: int = 0

    def op_costs(self, height: int, width: int) -> List[OpCost]:
        hw = height * width
        ops = [
            OpCost(
                "pool",
                macs=self.ch_in * hw,
                params=0,
                input_elems=self.ch_in * hw,
                output_elems=self.ch_in,
            )
        ]
        features = self.ch_in
        if self.hidden_features > 0:
            ops.append(
                OpCost(
                    "linear",
                    macs=features * self.hidden_features,
                    params=features * self.hidden_features + self.hidden_features,
                    input_elems=features,
                    output_elems=self.hidden_features,
                )
            )
            features = self.hidden_features
        ops.append(
            OpCost(
                "linear",
                macs=features * self.num_classes,
                params=features * self.num_classes + self.num_classes,
                input_elems=features,
                output_elems=self.num_classes,
            )
        )
        return ops

    @cached_method
    def param_count(self) -> int:
        return int(sum(op.params for op in self.op_costs(8, 8)))

    @cached_method
    def cache_key(self) -> str:
        """Canonical content fingerprint of the classifier specification."""
        from repro.utils.fingerprint import content_fingerprint

        return content_fingerprint(
            {
                "kind": "ClassifierSpec",
                "ch_in": self.ch_in,
                "num_classes": self.num_classes,
                "hidden_features": self.hidden_features,
            }
        )


def _bn_cost(channels: int, hw: int) -> OpCost:
    return OpCost(
        "bn",
        macs=2.0 * channels * hw,
        params=2 * channels,
        input_elems=channels * hw,
        output_elems=channels * hw,
    )


def _add_cost(channels: int, hw: int) -> OpCost:
    return OpCost(
        "add",
        macs=float(channels * hw),
        params=0,
        input_elems=2 * channels * hw,
        output_elems=channels * hw,
    )


def _scale_channels(channels: int, multiplier: float) -> int:
    return max(1, int(round(channels * multiplier)))
