"""The FaHaNa search loop.

Ties together the four components of Figure 4: the RNN controller samples a
child architecture from the block-based search space, the producer
materialises it around the frozen backbone header, the evaluator prices /
trains / scores it, and the resulting reward (Eq. 1) updates the controller
with the Monte-Carlo policy gradient (Eq. 2).

Execution is delegated to :mod:`repro.engine`: the default engine
configuration (serial backend, no cache) reproduces the original sequential
loop bit for bit, while an explicit :class:`~repro.engine.EngineConfig`
unlocks parallel episode batches, evaluation memoization and
checkpoint/resume.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional

from repro.core.controller import LSTMController
from repro.core.evaluator import ChildEvaluator, EvaluationConfig
from repro.core.freezing import FreezingAnalysis
from repro.core.pipeline import PipelineSettings
from repro.core.policy import PolicyGradientConfig, PolicyGradientTrainer
from repro.core.producer import BackboneProducer, ProducerConfig
from repro.core.results import EpisodeRecord, SearchHistory
from repro.core.reward import RewardConfig
from repro.core.search_space import SearchSpace
from repro.data.dataset import GroupedDataset
from repro.hardware.constraints import DesignSpec
from repro.hardware.latency import LatencyEstimator
from repro.nn.trainer import TrainingConfig
from repro.utils.rng import SeedLike, spawn_rngs

if TYPE_CHECKING:
    from repro.engine.engine import EngineConfig, SearchEngine


@dataclass
class FaHaNaConfig:
    """All knobs of one FaHaNa run."""

    episodes: int = 50
    alpha: float = 1.0
    beta: float = 1.0
    controller_hidden: int = 64
    seed: int = 0
    search_space: SearchSpace = field(default_factory=SearchSpace)
    producer: ProducerConfig = field(default_factory=ProducerConfig)
    policy: PolicyGradientConfig = field(default_factory=PolicyGradientConfig)
    child_training: TrainingConfig = field(
        default_factory=lambda: TrainingConfig(epochs=5)
    )
    # Shape of the evaluation pipeline (extra gates, proxy fidelity stages);
    # the default single full-fidelity stage reproduces the seed evaluator.
    pipeline: PipelineSettings = field(default_factory=PipelineSettings)
    # Engine-level early stopping: stop the search once the best reward has
    # not improved by more than plateau_delta for plateau_patience episodes
    # (None disables plateau detection).
    plateau_patience: Optional[int] = None
    plateau_delta: float = 0.0
    # Engine-level adaptive wave sizing: grow waves while episodes are cheap
    # (gate rejections, cache hits), shrink back once every episode trains.
    adaptive_wave: bool = False
    # Execution knobs (backend, cache, checkpointing); None is the plain
    # serial engine, which matches the original sequential loop exactly.
    engine: Optional["EngineConfig"] = None

    def __post_init__(self) -> None:
        if self.episodes <= 0:
            raise ValueError("episodes must be positive")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be non-negative")
        if self.plateau_patience is not None and self.plateau_patience <= 0:
            raise ValueError("plateau_patience must be positive when given")
        if self.plateau_delta < 0:
            raise ValueError("plateau_delta must be non-negative")


@dataclass
class FaHaNaResult:
    """Outcome of a search run."""

    history: SearchHistory
    best: Optional[EpisodeRecord]
    fairest: Optional[EpisodeRecord]
    smallest: Optional[EpisodeRecord]
    freezing_analysis: Optional[FreezingAnalysis]

    def summary(self) -> str:
        lines = [
            f"episodes={len(self.history)}  valid={self.history.valid_ratio():.1%}  "
            f"space={self.history.space_size:.2e}  time={self.history.total_seconds:.1f}s"
        ]
        if self.best is not None:
            lines.append(
                f"best reward={self.best.reward:.4f} "
                f"(accuracy={self.best.accuracy:.2%}, unfairness={self.best.unfairness:.4f}, "
                f"params={self.best.num_parameters:,})"
            )
        if self.fairest is not None:
            lines.append(
                f"fairest unfairness={self.fairest.unfairness:.4f} "
                f"(accuracy={self.fairest.accuracy:.2%})"
            )
        if self.smallest is not None:
            lines.append(
                f"smallest valid {self.smallest.num_parameters:,} parameters "
                f"(accuracy={self.smallest.accuracy:.2%})"
            )
        return "\n".join(lines)


class FaHaNaSearch:
    """Fairness- and hardware-aware NAS (the paper's framework)."""

    def __init__(
        self,
        train_dataset: GroupedDataset,
        validation_dataset: GroupedDataset,
        design_spec: Optional[DesignSpec] = None,
        config: Optional[FaHaNaConfig] = None,
    ):
        self.train_dataset = train_dataset
        self.validation_dataset = validation_dataset
        self.design_spec = design_spec or DesignSpec()
        self.config = config or FaHaNaConfig()

        rngs = spawn_rngs(self.config.seed, 4)
        self.producer = BackboneProducer(
            dataset=train_dataset,
            search_space=self.config.search_space,
            config=self.config.producer,
            trainer_config=TrainingConfig(
                epochs=self.config.producer.pretrain_epochs,
                batch_size=self.config.child_training.batch_size,
                learning_rate=self.config.child_training.learning_rate,
                optimizer=self.config.child_training.optimizer,
                seed=self.config.seed,
            ),
            num_classes=train_dataset.num_classes,
            rng=rngs[0],
        )
        self.producer.prepare()

        self.controller = LSTMController(
            search_space=self.config.search_space,
            positions=self.producer.positions,
            hidden_size=self.config.controller_hidden,
            rng=rngs[1],
        )
        self.policy_trainer = PolicyGradientTrainer(self.controller, self.config.policy)

        reward_config = RewardConfig(
            alpha=self.config.alpha,
            beta=self.config.beta,
            accuracy_constraint=self.design_spec.accuracy_constraint,
            timing_constraint_ms=self.design_spec.timing_constraint_ms,
        )
        # The design spec's storage budget is enforced by the pipeline's
        # storage gate; an explicit pipeline limit takes precedence.
        pipeline_settings = self.config.pipeline
        design_storage = self.design_spec.hardware.max_storage_mb
        if pipeline_settings.max_storage_mb is None and design_storage is not None:
            pipeline_settings = replace(
                pipeline_settings, max_storage_mb=design_storage
            )
        estimator = LatencyEstimator(
            device=self.design_spec.hardware.device,
            resolution=self.producer.backbone.input_resolution,
        )
        self.evaluator = ChildEvaluator(
            train_dataset=train_dataset,
            validation_dataset=validation_dataset,
            latency_estimator=estimator,
            config=EvaluationConfig(
                reward=reward_config,
                training=self.config.child_training,
                bypass_invalid=True,
                pipeline=pipeline_settings,
            ),
        )
        self._sample_rng = rngs[2]
        self._child_rng = rngs[3]
        # The engine of every run() call, built by the first.
        self._engine: Optional["SearchEngine"] = None

    # -- search loop ------------------------------------------------------------------
    def run(self, episodes: Optional[int] = None) -> FaHaNaResult:
        """Run (or continue) the search up to ``episodes`` total episodes and
        return the history plus the headline networks.

        Delegates to one :class:`repro.engine.SearchEngine` per search, so a
        later call continues where the last one stopped; with the default
        engine configuration this is the original sample -> produce ->
        evaluate -> observe loop, bit for bit.
        """
        if self._engine is None:
            # Imported lazily: the engine builds on core, not the other way round.
            from repro.engine.engine import SearchEngine

            self._engine = SearchEngine(self, config=self.config.engine)
        return self._engine.run(episodes)
