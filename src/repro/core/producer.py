"""Backbone architecture producer (Figure 4, component 3).

The producer owns the backbone architecture (MobileNetV2 by default), decides
which of its blocks are frozen versus searchable (via the freezing analysis),
and materialises child networks from controller decisions:

* the *frozen header* keeps the backbone's pre-trained weights and is never
  trained again (its parameters are marked non-trainable),
* the *searchable tail* is rebuilt from the controller's block decisions and
  trained from scratch for every child.

With ``freeze=False`` the producer degenerates into the MONAS baseline: every
backbone position is searchable and no pre-trained weights are reused.

The frozen prefix -- the stem and the blocks before the split -- is the same
in every child, so the producer builds it once per precision
(:meth:`BackboneProducer.shared_prefix`): only those stages, holding
read-only copies of the backbone's weights and its batch-norm statistics,
cast once to the precision the children train in.  Every child gets shells
of them (:meth:`~repro.nn.module.Module.shell`) and builds only its
searchable tail.  A shell's frozen parameters point at the shared arrays and
carry no gradient, so an in-place write into a frozen weight raises.  Its
modules and batch-norm buffers are the child's own: a prefix that runs in
training mode moves its batch-norm statistics, children train concurrently
on the thread backend, and every layer keeps its own workspaces.  Shared
arrays are also what lets :class:`~repro.nn.trainer.Trainer` replay the
prefix's outputs from one child to the next without comparing the weights'
bytes.

A child is named by its decisions and its weight-init seed, so the engine's
workers build their own children.  The process pool hands every worker the
producer once; a producer pickled after its prefix exists leaves the
pre-trained backbone behind (children never read it) and unpickles its
prefix read-only again, so a worker's children share arrays exactly as the
parent's do.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.blocks.spec import BlockSpec
from repro.core.freezing import FreezingAnalysis, analyse_model_freezing
from repro.core.search_space import BlockDecision, SearchPosition, SearchSpace
from repro.data.dataset import GroupedDataset
from repro.nn.layers import BatchNorm2d
from repro.nn.module import Module, Sequential
from repro.nn.trainer import Trainer, TrainingConfig
from repro.utils.rng import SeedLike, new_rng
from repro.zoo.descriptors import ArchitectureDescriptor
from repro.zoo.registry import get_architecture


@dataclass
class ProducerConfig:
    """Configuration of the backbone producer."""

    backbone: Union[str, ArchitectureDescriptor] = "MobileNetV2"
    freeze: bool = True
    gamma: float = 0.5
    pretrain_epochs: int = 5
    width_multiplier: float = 0.35
    analysis_batch_size: int = 32
    max_searchable: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must be in (0, 1]")
        if self.pretrain_epochs < 0:
            raise ValueError("pretrain_epochs must be non-negative")
        if self.width_multiplier <= 0:
            raise ValueError("width_multiplier must be positive")
        if self.max_searchable is not None and self.max_searchable <= 0:
            raise ValueError("max_searchable must be positive when given")


@dataclass
class ChildArchitecture:
    """A materialised child network ready for evaluation."""

    descriptor: ArchitectureDescriptor
    model: Sequential
    decisions: List[BlockDecision]

    @property
    def num_trainable_parameters(self) -> int:
        return self.model.num_parameters(trainable_only=True)

    @property
    def num_frozen_parameters(self) -> int:
        """The frozen prefix's parameters, the only ones not trainable."""
        return self.model.num_parameters() - self.num_trainable_parameters


class BackboneProducer:
    """Builds child networks around a (partially frozen) backbone."""

    def __init__(
        self,
        dataset: GroupedDataset,
        search_space: Optional[SearchSpace] = None,
        config: Optional[ProducerConfig] = None,
        trainer_config: Optional[TrainingConfig] = None,
        num_classes: Optional[int] = None,
        rng: SeedLike = 0,
    ):
        self.dataset = dataset
        self.search_space = search_space or SearchSpace()
        self.config = config or ProducerConfig()
        self.trainer_config = trainer_config or TrainingConfig(epochs=self.config.pretrain_epochs)
        self.num_classes = num_classes or dataset.num_classes
        self._rng = new_rng(rng)

        backbone = self.config.backbone
        if isinstance(backbone, str):
            backbone = get_architecture(backbone, num_classes=self.num_classes)
        self.backbone: ArchitectureDescriptor = backbone

        self._prepared = False
        self._analysis: Optional[FreezingAnalysis] = None
        self._backbone_model: Optional[Sequential] = None
        self._split_block: int = 0
        self._positions: List[SearchPosition] = []
        # The shared frozen prefix per precision, built by its first use.
        self._prefix: Optional[Dict[Optional[str], List[Module]]] = None

    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        if self._prefix:
            # Children need only the prefix; the backbone and its
            # pre-training workspaces are most of the producer's bytes.
            state["_backbone_model"] = None
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        for stages in (self._prefix or {}).values():
            _share_read_only(stages)

    # -- preparation ---------------------------------------------------------------
    def prepare(self) -> Optional[FreezingAnalysis]:
        """Pre-train the backbone (if freezing) and fix the split point."""
        if self._prepared:
            return self._analysis
        if self.config.freeze:
            seed = int(self._rng.integers(0, 2**31 - 1))
            self._backbone_model = self.backbone.build(
                num_classes=self.num_classes,
                width_multiplier=self.config.width_multiplier,
                rng=seed,
            )
            if self.config.pretrain_epochs > 0:
                trainer = Trainer(self.trainer_config)
                trainer.fit(
                    self._backbone_model, self.dataset.images, self.dataset.labels
                )
            self._analysis = analyse_model_freezing(
                self._backbone_model,
                self.dataset,
                gamma=self.config.gamma,
                num_stages=1 + len(self.backbone.blocks),
                batch_size=self.config.analysis_batch_size,
                rng=self._rng,
            )
            # Stage 0 is the stem; stage i corresponds to backbone block i-1.
            self._split_block = max(0, self._analysis.split_index - 1)
        else:
            self._analysis = None
            self._split_block = 0

        if self.config.max_searchable is not None:
            min_split = len(self.backbone.blocks) - self.config.max_searchable
            self._split_block = max(self._split_block, min_split)
        # Never freeze everything: keep at least one searchable position.
        self._split_block = min(self._split_block, len(self.backbone.blocks) - 1)
        self._positions = self._compute_positions()
        self._prepared = True
        return self._analysis

    def _compute_positions(self) -> List[SearchPosition]:
        resolution = self.backbone.input_resolution
        height, width = self.backbone.stem.output_spatial(resolution, resolution)
        positions: List[SearchPosition] = []
        for index, block in enumerate(self.backbone.blocks):
            if index >= self._split_block:
                positions.append(
                    SearchPosition(
                        index=index, stride=block.stride, input_resolution=height
                    )
                )
            height, width = block.output_spatial(height, width)
        return positions

    # -- introspection ---------------------------------------------------------------
    @property
    def analysis(self) -> Optional[FreezingAnalysis]:
        return self._analysis

    @property
    def backbone_model(self) -> Optional[Sequential]:
        """The pre-trained backbone model (None when freezing is off)."""
        self._ensure_prepared()
        return self._backbone_model

    @property
    def split_block(self) -> int:
        """Index of the first searchable backbone block."""
        self._ensure_prepared()
        return self._split_block

    @property
    def positions(self) -> List[SearchPosition]:
        """The searchable positions handed to the controller."""
        self._ensure_prepared()
        return list(self._positions)

    def frozen_block_specs(self) -> Tuple[BlockSpec, ...]:
        """Backbone blocks that stay fixed in every child."""
        self._ensure_prepared()
        return self.backbone.blocks[: self._split_block]

    def space_size(self) -> float:
        """Number of candidate networks in the (possibly reduced) search space."""
        self._ensure_prepared()
        return self.search_space.space_size(self._positions)

    def full_space_size(self) -> float:
        """Search-space size without freezing (every backbone position searchable)."""
        resolution = self.backbone.input_resolution
        height, width = self.backbone.stem.output_spatial(resolution, resolution)
        positions = []
        for index, block in enumerate(self.backbone.blocks):
            positions.append(
                SearchPosition(index=index, stride=block.stride, input_resolution=height)
            )
            height, width = block.output_spatial(height, width)
        return self.search_space.space_size(positions)

    # -- child construction -------------------------------------------------------------
    def describe_child(self, decisions: Sequence[BlockDecision]) -> ArchitectureDescriptor:
        """Build only the child's descriptor, without instantiating a model.

        The engine's evaluation cache uses this to fingerprint a sampled child
        before deciding whether the (expensive) model build and training are
        needed at all.
        """
        self._ensure_prepared()
        if len(decisions) != len(self._positions):
            raise ValueError(
                f"expected {len(self._positions)} decisions, got {len(decisions)}"
            )
        frozen_specs = list(self.frozen_block_specs())
        if frozen_specs:
            tail_ch_in = frozen_specs[-1].ch_out
        else:
            tail_ch_in = self.backbone.stem.ch_out
        searched_specs = self.search_space.decisions_to_specs(
            self._positions, list(decisions), tail_ch_in
        )
        return self.backbone.with_blocks(
            frozen_specs + searched_specs, name="FaHaNa-child"
        )

    def produce(
        self,
        decisions: Sequence[BlockDecision],
        rng: SeedLike = None,
        *,
        seed: Optional[int] = None,
        precision: Optional[str] = None,
    ) -> ChildArchitecture:
        """Materialise the child network described by the controller decisions.

        ``seed`` initialises the weights when the caller already drew it;
        otherwise it is drawn from ``rng`` (the producer's own stream if None).
        ``precision`` (a ``TrainingConfig.precision``) is the dtype the child
        will train in: the child gets the shared prefix in that dtype and its
        tail is cast to it, so a fit's own cast changes nothing.  None keeps
        the dtype the child is built in.
        """
        descriptor = self.describe_child(decisions)

        if seed is None:
            stream = self._rng if rng is None else new_rng(rng)
            seed = int(stream.integers(0, 2**31 - 1))
        prefix = [stage.shell() for stage in self.shared_prefix(precision)]
        model = descriptor.build(
            num_classes=self.num_classes,
            width_multiplier=self.config.width_multiplier,
            rng=seed,
            prefix=prefix,
        )
        if precision is not None:
            # The prefix is in this precision already.
            for stage in list(model)[len(prefix) :]:
                stage.astype(precision)
        return ChildArchitecture(
            descriptor=descriptor,
            model=model,
            decisions=list(decisions),
        )

    def shared_prefix(self, precision: Optional[str] = None) -> List[Module]:
        """The frozen prefix in ``precision`` that every child shells (empty
        when not freezing).

        Stage 0 is the stem and stages 1..split_block are the frozen backbone
        blocks.  The first call per precision builds those stages alone,
        fresh -- the backbone's own stages still hold their pre-training
        workspaces -- with read-only copies of the backbone's weights and its
        batch-norm statistics, cast once to ``precision`` (None keeps the
        dtype they are built in).  Nothing runs these stages; children run
        shells of them.  A first call is not thread-safe: the engine makes
        it before its workers start.
        """
        if not self.config.freeze:
            return []
        self._ensure_prepared()
        if self._prefix is None:
            self._prefix = {}
        stages = self._prefix.get(precision)
        if stages is None:
            if self._backbone_model is None:
                raise RuntimeError(
                    f"this producer was pickled without its backbone and holds "
                    f"no frozen prefix in precision {precision!r}"
                )
            # The seed is immaterial: the copy below overwrites every weight
            # the build draws.
            fresh = self.backbone.build(
                num_classes=self.num_classes,
                width_multiplier=self.config.width_multiplier,
                rng=0,
                depth=1 + self._split_block,
            )
            stages = []
            for stage_index in range(1 + self._split_block):
                source = self._backbone_model[stage_index]
                target = fresh[stage_index]
                target.load_state_dict(source.state_dict())
                _copy_batchnorm_statistics(source, target)
                if precision is not None:
                    target.astype(precision)
                stages.append(target.shell())
            _share_read_only(stages)
            self._prefix[precision] = stages
        return stages

    def _ensure_prepared(self) -> None:
        if not self._prepared:
            self.prepare()


def _share_read_only(stages: Sequence[Module]) -> None:
    """Make every weight array of ``stages`` read-only and the owner of its
    memory.  An unpickled array is writable (protocol 4) or a read-only view
    of the pickle's buffer (protocol 5); the prefix memo takes only a
    read-only array that owns its memory by identity."""
    for stage in stages:
        for param in stage.parameters():
            if not param.data.flags.owndata:
                param.data = param.data.copy()
            param.data.flags.writeable = False


def _copy_batchnorm_statistics(source: Module, target: Module) -> None:
    """Copy batch-norm running statistics between structurally identical modules."""
    source_bns = [m for m in source.modules() if isinstance(m, BatchNorm2d)]
    target_bns = [m for m in target.modules() if isinstance(m, BatchNorm2d)]
    if len(source_bns) != len(target_bns):
        raise ValueError("modules have different batch-norm structure")
    for src, dst in zip(source_bns, target_bns):
        dst.running_mean = src.running_mean.copy()
        dst.running_var = src.running_var.copy()
