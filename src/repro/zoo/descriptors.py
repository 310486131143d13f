"""Architecture descriptors.

An :class:`ArchitectureDescriptor` is the common currency of the library: the
zoo describes every reference network with one, the FaHaNa producer emits one
for every child network, and the hardware model prices one analytically.  The
descriptor carries the *full-scale* layer specification (so parameter counts
and latency estimates correspond to the paper's deployment scale) and can
instantiate a *reduced-scale* trainable model for CPU-feasible training.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.blocks.factory import build_block
from repro.blocks.spec import (
    BlockSpec,
    ClassifierSpec,
    OpCost,
    StemSpec,
    cached_method,
)
from repro.nn.layers import (
    BatchNorm2d,
    Conv2d,
    Flatten,
    GlobalAvgPool2d,
    Linear,
    ReLU,
)
from repro.nn.module import Module, Sequential
from repro.utils.rng import SeedLike, spawn_rngs

BYTES_PER_PARAM = 4  # float32 deployment precision


@dataclass(frozen=True)
class HeadSpec:
    """Optional 1x1 convolution inserted between the last block and pooling.

    MobileNet-style networks expand to a wide embedding (e.g. 1280 channels)
    before global pooling; ResNet-style networks set ``ch_out == ch_in`` and
    skip the convolution entirely.
    """

    ch_in: int
    ch_out: int

    @property
    def is_identity(self) -> bool:
        return self.ch_in == self.ch_out

    def op_costs(self, height: int, width: int) -> List[OpCost]:
        if self.is_identity:
            return []
        hw = height * width
        return [
            OpCost(
                "pwconv",
                macs=self.ch_in * self.ch_out * hw,
                params=self.ch_in * self.ch_out,
                input_elems=self.ch_in * hw,
                output_elems=self.ch_out * hw,
            ),
            OpCost(
                "bn",
                macs=2.0 * self.ch_out * hw,
                params=2 * self.ch_out,
                input_elems=self.ch_out * hw,
                output_elems=self.ch_out * hw,
            ),
        ]

    @cached_method
    def param_count(self) -> int:
        return int(sum(op.params for op in self.op_costs(8, 8)))

    @cached_method
    def cache_key(self) -> str:
        """Canonical content fingerprint of the head specification."""
        from repro.utils.fingerprint import content_fingerprint

        return content_fingerprint(
            {"kind": "HeadSpec", "ch_in": self.ch_in, "ch_out": self.ch_out}
        )


@dataclass(frozen=True)
class ArchitectureDescriptor:
    """A complete network: stem, block stack, head and classifier."""

    name: str
    stem: StemSpec
    blocks: Tuple[BlockSpec, ...]
    head: HeadSpec
    classifier: ClassifierSpec
    input_resolution: int = 224
    family: str = "custom"

    # Labels, deliberately outside the content fingerprint: two structurally
    # identical children sampled under different names share one cache entry.
    CACHE_KEY_EXEMPT = ("name", "family")

    def __post_init__(self) -> None:
        if not self.blocks:
            raise ValueError("an architecture needs at least one block")
        expected = self.stem.ch_out
        for index, block in enumerate(self.blocks):
            if block.ch_in != expected:
                raise ValueError(
                    f"{self.name}: block {index} expects {block.ch_in} input "
                    f"channels but the previous stage produces {expected}"
                )
            expected = block.ch_in if block.block_type == "SKIP" else block.ch_out
        if self.head.ch_in != expected:
            raise ValueError(
                f"{self.name}: head expects {self.head.ch_in} channels, "
                f"previous stage produces {expected}"
            )
        if self.classifier.ch_in != self.head.ch_out:
            raise ValueError(
                f"{self.name}: classifier expects {self.classifier.ch_in} channels, "
                f"head produces {self.head.ch_out}"
            )

    # -- analytic accounting ----------------------------------------------------
    def walk_op_costs(
        self, resolution: Optional[int] = None
    ) -> List[Tuple[str, OpCost]]:
        """All primitive ops of the network with their owning stage name."""
        res = resolution or self.input_resolution
        height = width = res
        ops: List[Tuple[str, OpCost]] = []
        for op in self.stem.op_costs(height, width):
            ops.append(("stem", op))
        height, width = self.stem.output_spatial(height, width)
        for index, block in enumerate(self.blocks):
            for op in block.op_costs(height, width):
                ops.append((f"block{index}", op))
            height, width = block.output_spatial(height, width)
        for op in self.head.op_costs(height, width):
            ops.append(("head", op))
        for op in self.classifier.op_costs(height, width):
            ops.append(("classifier", op))
        return ops

    @cached_method
    def param_count(self) -> int:
        """Total number of scalar weights at full scale."""
        total = self.stem.param_count() + self.head.param_count()
        total += self.classifier.param_count()
        total += sum(block.param_count() for block in self.blocks)
        return int(total)

    def storage_mb(self) -> float:
        """Model storage in megabytes assuming float32 weights."""
        return self.param_count() * BYTES_PER_PARAM / 1e6

    def macs(self, resolution: Optional[int] = None) -> float:
        """Total multiply-accumulate operations for one inference."""
        return float(sum(op.macs for _, op in self.walk_op_costs(resolution)))

    def depth(self) -> int:
        """Number of non-skipped blocks."""
        return sum(1 for block in self.blocks if block.block_type != "SKIP")

    @cached_method
    def cache_key(self) -> str:
        """Canonical content fingerprint of the architecture.

        The key covers everything that determines the network's computation --
        stem, block stack, head, classifier and input resolution -- and
        deliberately excludes ``name`` and ``family``, which are labels: two
        structurally identical children sampled under different names must map
        to the same cached evaluation.
        """
        from repro.utils.fingerprint import combine_fingerprints, content_fingerprint

        return combine_fingerprints(
            content_fingerprint(
                {"kind": "ArchitectureDescriptor", "input_resolution": self.input_resolution}
            ),
            self.stem.cache_key(),
            *[block.cache_key() for block in self.blocks],
            self.head.cache_key(),
            self.classifier.cache_key(),
        )

    # -- model construction -------------------------------------------------------
    def build(
        self,
        num_classes: Optional[int] = None,
        width_multiplier: float = 1.0,
        rng: SeedLike = None,
        dense_classifier_features: Optional[int] = None,
        *,
        prefix: Sequence[Module] = (),
    ) -> Sequential:
        """Instantiate a trainable numpy model.

        ``width_multiplier`` scales every channel count, which is how the
        scale presets keep CPU training tractable while preserving the block
        structure.  The returned model is a :class:`Sequential` whose stages
        are: stem, one module per block, head, pooling, classifier.

        ``prefix`` holds already-built leading stages -- the stem, then the
        first blocks -- which the model takes as they are instead of building
        them.  Every stage still draws from its own stream of ``rng``, so the
        stages built here get the weights a full build would give them.
        """
        if len(prefix) > len(self.blocks) + 1:
            raise ValueError(
                f"{self.name}: a prefix of {len(prefix)} stages is longer than "
                f"the stem and {len(self.blocks)} blocks"
            )
        classes = num_classes or self.classifier.num_classes
        rngs = spawn_rngs(rng, len(self.blocks) + 3)

        def scale(channels: int) -> int:
            return max(1, int(round(channels * width_multiplier)))

        stages: List[Module] = list(prefix)
        if not stages:
            stages.append(
                Sequential(
                    Conv2d(
                        self.stem.ch_in,
                        scale(self.stem.ch_out),
                        self.stem.kernel,
                        stride=self.stem.stride,
                        bias=False,
                        rng=rngs[0],
                    ),
                    BatchNorm2d(scale(self.stem.ch_out)),
                    ReLU(),
                )
            )

        for index in range(len(stages) - 1, len(self.blocks)):
            scaled_spec = self.blocks[index].scaled(width_multiplier)
            stages.append(build_block(scaled_spec, rng=rngs[index + 1]))

        head_in = scale(self.head.ch_in)
        head_out = scale(self.head.ch_out)
        if self.head.is_identity:
            head_out = head_in
            head = Sequential()
        else:
            head = Sequential(
                Conv2d(head_in, head_out, 1, bias=False, rng=rngs[-2]),
                BatchNorm2d(head_out),
                ReLU(),
            )
        if len(head) > 0:
            stages.append(head)
        stages.append(GlobalAvgPool2d())
        features = dense_classifier_features or head_out
        if self.classifier.hidden_features > 0:
            hidden = scale(self.classifier.hidden_features)
            stages.append(
                Sequential(Linear(features, hidden, rng=rngs[-3]), ReLU())
            )
            features = hidden
        stages.append(Linear(features, classes, rng=rngs[-1]))
        return Sequential(*stages)

    # -- manipulation --------------------------------------------------------------
    def with_blocks(
        self, blocks: Sequence[BlockSpec], name: Optional[str] = None
    ) -> "ArchitectureDescriptor":
        """Return a copy with a different block stack (used by the producer)."""
        new_blocks = tuple(blocks)
        head = self.head
        if new_blocks:
            last_out = None
            for block in reversed(new_blocks):
                if block.block_type != "SKIP":
                    last_out = block.ch_out
                    break
            if last_out is None:
                last_out = new_blocks[-1].ch_in
            if head.ch_in != last_out:
                head = HeadSpec(ch_in=last_out, ch_out=max(head.ch_out, last_out))
        classifier = self.classifier
        if classifier.ch_in != head.ch_out:
            classifier = replace(classifier, ch_in=head.ch_out)
        return replace(
            self,
            name=name or self.name,
            blocks=new_blocks,
            head=head,
            classifier=classifier,
        )

    def describe(self) -> str:
        """Multi-line, human-readable architecture summary (Figure 7 style)."""
        lines = [
            f"{self.name} (input {self.input_resolution}x{self.input_resolution}, "
            f"{self.param_count():,} parameters, {self.storage_mb():.2f} MB)",
            f"  Conv {self.stem.kernel}x{self.stem.kernel} "
            f"{self.stem.ch_in}->{self.stem.ch_out} /s{self.stem.stride}",
        ]
        for block in self.blocks:
            lines.append(f"  {block.describe()}")
        if not self.head.is_identity:
            lines.append(f"  Conv 1x1 {self.head.ch_in}->{self.head.ch_out}")
        lines.append(
            f"  GlobalAvgPool + LINEAR {self.classifier.ch_in}->"
            f"{self.classifier.num_classes}"
        )
        return "\n".join(lines)
