"""Evaluator & trainer (Figure 4, component 4).

For every child the evaluator:

1. prices the child with the offline per-block latency table; children that
   violate the timing constraint receive reward -1 *without being trained*
   (the paper's first acceleration),
2. otherwise trains the child's trainable parameters (the searchable tail
   when freezing is active) on the training split,
3. measures overall and per-group accuracy on the validation split, computes
   the unfairness score and evaluates the reward (Eq. 1).

The mechanics live in :class:`~repro.core.pipeline.EvaluationPipeline`
(gate stages -> fidelity stages -> scoring); :class:`ChildEvaluator` is the
stable facade around the default pipeline, and its configuration's
``pipeline`` settings add parameter/storage gates or proxy fidelity stages
for the engine's successive-halving promotion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.pipeline import EvaluationPipeline, PipelineSettings
from repro.core.producer import ChildArchitecture
from repro.core.reward import INVALID_REWARD, RewardConfig
from repro.data.dataset import GroupedDataset
from repro.hardware.latency import LatencyEstimator
from repro.nn.trainer import TrainingConfig


@dataclass
class EvaluationConfig:
    """Knobs of the child evaluation."""

    reward: RewardConfig = field(default_factory=RewardConfig)
    training: TrainingConfig = field(default_factory=lambda: TrainingConfig(epochs=5))
    bypass_invalid: bool = True
    # Shape of the evaluation pipeline: optional parameter/storage gates and
    # the fidelity ladder (default: a single full-fidelity stage, which
    # reproduces the seed evaluator exactly).
    pipeline: PipelineSettings = field(default_factory=PipelineSettings)

    def __post_init__(self) -> None:
        if self.training.epochs < 0:
            raise ValueError("training epochs must be non-negative")


@dataclass
class EvaluationResult:
    """Everything measured about one child network."""

    latency_ms: float
    storage_mb: float
    num_parameters: int
    trained: bool
    accuracy: float
    unfairness: float
    group_accuracy: Dict[str, float]
    reward: float
    meets_timing: bool
    meets_accuracy: bool
    train_seconds: float
    # Which fidelity stage produced the result ("full" unless a staged
    # pipeline stopped the child at a proxy stage).
    fidelity: str = "full"

    @property
    def is_valid(self) -> bool:
        """True when the child satisfied both specifications."""
        return self.reward > INVALID_REWARD


class ChildEvaluator:
    """Latency check, training and fairness scoring of child networks."""

    def __init__(
        self,
        train_dataset: GroupedDataset,
        validation_dataset: GroupedDataset,
        latency_estimator: LatencyEstimator,
        config: Optional[EvaluationConfig] = None,
    ):
        if len(train_dataset) == 0 or len(validation_dataset) == 0:
            raise ValueError("train and validation datasets must be non-empty")
        self.train_dataset = train_dataset
        self.validation_dataset = validation_dataset
        self.latency_estimator = latency_estimator
        self.config = config or EvaluationConfig()
        # Built (and validated) once: a different configuration takes a new
        # evaluator, as MonasSearch builds one.
        self.pipeline = EvaluationPipeline(
            train_dataset=train_dataset,
            validation_dataset=validation_dataset,
            latency_estimator=latency_estimator,
            reward=self.config.reward,
            training=self.config.training,
            settings=self.config.pipeline,
            bypass_invalid=self.config.bypass_invalid,
        )

    def evaluate(self, child: ChildArchitecture) -> EvaluationResult:
        """Price, (conditionally) train and score one child network."""
        return self.pipeline.evaluate(child)
