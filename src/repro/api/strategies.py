"""Built-in search strategies: ``fahana``, ``monas``, ``random`` and
``regularized_evolution``.

``fahana`` and ``monas`` wrap the paper's two searches, FaHaNa and the MONAS
baseline of Table 2, configured from the spec's search section.
``random`` is a uniform random-search baseline that exists to prove the
registry's point: it plugs a new strategy into the same facade, engine,
cache and checkpointing without touching ``repro.core`` at all;
``regularized_evolution`` (aging evolution, Real et al. 2019) is the real
third baseline built the same way -- tournament parent selection plus
single-decision mutation over the sampled descriptors.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

import numpy as np

from repro.api.registry import register_strategy
from repro.api.spec import RunSpec
from repro.core.controller import ControllerSample, LSTMController
from repro.core.fahana import FaHaNaConfig, FaHaNaSearch
from repro.core.monas import MonasConfig, MonasSearch
from repro.core.policy import PolicyGradientConfig, PolicyGradientTrainer
from repro.core.producer import ProducerConfig
from repro.data.dataset import GroupedDataset
from repro.hardware.constraints import DesignSpec
from repro.nn.trainer import TrainingConfig
from repro.utils.rng import SeedLike, new_rng


def _child_precision(spec: RunSpec):
    """The (precision, inference_batch_size) pair for child training.

    A default-valued compute section maps back to ``(None, None)``: explicit
    float64 *is* the seed behaviour, and keeping the ``TrainingConfig``
    identical to a compute-less spec keeps the engine's evaluation-context
    fingerprint (and therefore every existing cache entry) unchanged.
    """
    compute = spec.compute
    if compute is None:
        return None, None
    precision = None if compute.precision == "float64" else compute.precision
    return precision, compute.inference_batch_size


def _fahana_config(spec: RunSpec) -> FaHaNaConfig:
    """The :class:`FaHaNaConfig` a spec's search section describes."""
    params = spec.search
    precision, inference_batch = _child_precision(spec)
    kwargs = {}
    if spec.evaluation is not None:
        kwargs["pipeline"] = spec.evaluation
    return FaHaNaConfig(
        episodes=params.episodes,
        alpha=params.alpha,
        beta=params.beta,
        seed=params.seed,
        producer=ProducerConfig(
            backbone=params.backbone,
            freeze=True,
            gamma=params.gamma,
            pretrain_epochs=params.pretrain_epochs,
            width_multiplier=params.width_multiplier,
            max_searchable=params.max_searchable,
        ),
        policy=PolicyGradientConfig(batch_episodes=params.policy_batch),
        child_training=TrainingConfig(
            epochs=params.child_epochs,
            batch_size=params.child_batch_size,
            seed=params.seed,
            precision=precision,
            inference_batch_size=inference_batch,
        ),
        plateau_patience=params.plateau_patience,
        plateau_delta=params.plateau_delta,
        adaptive_wave=params.adaptive_wave,
        **kwargs,
    )


@register_strategy(
    "fahana",
    description="FaHaNa: freezing + latency bypass + policy-gradient controller "
    "(the paper's framework)",
)
def build_fahana(
    spec: RunSpec,
    train_dataset: GroupedDataset,
    validation_dataset: GroupedDataset,
    design_spec: DesignSpec,
) -> FaHaNaSearch:
    return FaHaNaSearch(
        train_dataset, validation_dataset, design_spec, _fahana_config(spec)
    )


@register_strategy(
    "monas",
    description="MONAS baseline: no freezing, no latency bypass (Table 2)",
)
def build_monas(
    spec: RunSpec,
    train_dataset: GroupedDataset,
    validation_dataset: GroupedDataset,
    design_spec: DesignSpec,
) -> MonasSearch:
    params = spec.search
    precision, inference_batch = _child_precision(spec)
    # gamma, pretraining and the searchable cap do not apply: MONAS searches
    # every position and trains every child from scratch.
    kwargs = {}
    if spec.evaluation is not None:
        kwargs["pipeline"] = spec.evaluation
    config = MonasConfig(
        episodes=params.episodes,
        alpha=params.alpha,
        beta=params.beta,
        seed=params.seed,
        producer=ProducerConfig(
            backbone=params.backbone,
            freeze=False,
            pretrain_epochs=0,
            width_multiplier=params.width_multiplier,
        ),
        policy=PolicyGradientConfig(batch_episodes=params.policy_batch),
        child_training=TrainingConfig(
            epochs=params.child_epochs,
            batch_size=params.child_batch_size,
            seed=params.seed,
            precision=precision,
            inference_batch_size=inference_batch,
        ),
        plateau_patience=params.plateau_patience,
        plateau_delta=params.plateau_delta,
        adaptive_wave=params.adaptive_wave,
        **kwargs,
    )
    return MonasSearch(train_dataset, validation_dataset, design_spec, config)


# -- the random-search baseline -----------------------------------------------------
class _UniformController(LSTMController):
    """Controller that samples every decision uniformly from the search space.

    It keeps the LSTM parameters (so engine checkpoints round-trip through
    the same code path) but never consults them: ``sample`` draws uniform
    indices from the caller's RNG stream, consuming draws in the same
    per-decision order as the learned controller.
    """

    def sample(
        self,
        rng: SeedLike = None,
        temperature: float = 1.0,
        greedy: bool = False,
    ) -> ControllerSample:
        generator = new_rng(rng)
        decision_indices: List[List[int]] = []
        log_prob = 0.0
        entropy = 0.0
        for position in self.positions:
            sizes = self.search_space.decision_sizes(position.stride)
            per_position = [int(generator.integers(size)) for size in sizes]
            decision_indices.append(per_position)
            for size in sizes:
                log_prob += -float(np.log(size))
                entropy += float(np.log(size))
        decisions = [
            self.search_space.decode(position.stride, indices)
            for position, indices in zip(self.positions, decision_indices)
        ]
        # steps stays empty: there is no policy to backpropagate through.
        return ControllerSample(
            decision_indices=decision_indices,
            decisions=decisions,
            log_prob=log_prob,
            entropy=entropy,
            steps=[],
        )


class _NoUpdateTrainer(PolicyGradientTrainer):
    """Policy trainer that records rewards but never updates the policy."""

    def observe(self, sample: ControllerSample, reward: float) -> None:
        self.update_baseline(reward)  # keep the running-reward statistic

    def apply_update(self) -> None:
        pass


class RandomSearch(FaHaNaSearch):
    """Uniform random search over the (frozen-backbone) space.

    Shares the producer, evaluator, reward and engine integration with
    FaHaNa -- only the sampling distribution differs -- which makes it the
    canonical "how much does the controller actually learn?" baseline.
    """

    def __init__(
        self,
        train_dataset: GroupedDataset,
        validation_dataset: GroupedDataset,
        design_spec: Optional[DesignSpec] = None,
        config: Optional[FaHaNaConfig] = None,
    ):
        super().__init__(train_dataset, validation_dataset, design_spec, config)
        self.controller = _UniformController(
            search_space=self.config.search_space,
            positions=self.producer.positions,
            hidden_size=self.config.controller_hidden,
            rng=self.config.seed,
        )
        self.policy_trainer = _NoUpdateTrainer(self.controller, self.config.policy)


@register_strategy(
    "random",
    description="uniform random search over the frozen-backbone space "
    "(no-learning baseline)",
)
def build_random(
    spec: RunSpec,
    train_dataset: GroupedDataset,
    validation_dataset: GroupedDataset,
    design_spec: DesignSpec,
) -> RandomSearch:
    return RandomSearch(
        train_dataset, validation_dataset, design_spec, _fahana_config(spec)
    )


# -- the regularized-evolution baseline ---------------------------------------------
class _EvolutionPopulation:
    """The aging population shared by the evolution controller and trainer.

    The controller reads it to pick tournament parents; the trainer writes
    one ``(decision_indices, reward)`` member per observed episode and
    retires the oldest beyond ``capacity`` -- regularized ("aging")
    evolution, where survival requires being re-discovered, not merely
    having scored well once.
    """

    def __init__(self, capacity: int = 16, tournament_size: int = 4):
        if capacity <= 1:
            raise ValueError("population capacity must be at least 2")
        if tournament_size <= 0:
            raise ValueError("tournament_size must be positive")
        self.capacity = capacity
        self.tournament_size = tournament_size
        self.members: Deque[Tuple[List[List[int]], float]] = deque()

    @property
    def seeded(self) -> bool:
        """True once enough members exist to hold a meaningful tournament."""
        return len(self.members) >= self.tournament_size

    def record(self, decision_indices: List[List[int]], reward: float) -> None:
        self.members.append(([list(row) for row in decision_indices], reward))
        while len(self.members) > self.capacity:
            self.members.popleft()  # the oldest member ages out

    def tournament_parent(self, generator: np.random.Generator) -> List[List[int]]:
        """Best-of-``tournament_size`` uniformly drawn members' decisions."""
        draws = generator.integers(len(self.members), size=self.tournament_size)
        best_indices, best_reward = None, float("-inf")
        for draw in draws:
            indices, reward = self.members[int(draw)]
            if reward > best_reward:
                best_indices, best_reward = indices, reward
        return [list(row) for row in best_indices]


class _EvolutionController(LSTMController):
    """Samples children by mutating tournament winners of the population.

    Until the population holds a full tournament it samples uniformly (the
    classic random warm-up of regularized evolution).  The LSTM parameters
    are kept but never consulted, so engine checkpoints round-trip through
    the standard code path; on resume the population re-seeds from the
    episodes the resumed run observes (it is sampling state, not learned
    state, and is deliberately not part of the checkpoint schema).
    """

    population: _EvolutionPopulation  # attached by RegularizedEvolutionSearch

    def sample(
        self,
        rng: SeedLike = None,
        temperature: float = 1.0,
        greedy: bool = False,
    ) -> ControllerSample:
        generator = new_rng(rng)
        if not self.population.seeded:
            decision_indices = self._uniform_indices(generator)
        else:
            decision_indices = self._mutated_indices(generator)
        decisions = [
            self.search_space.decode(position.stride, indices)
            for position, indices in zip(self.positions, decision_indices)
        ]
        # No policy to backpropagate through: steps stays empty and the
        # log-prob/entropy bookkeeping is inert.
        return ControllerSample(
            decision_indices=decision_indices,
            decisions=decisions,
            log_prob=0.0,
            entropy=0.0,
            steps=[],
        )

    def _uniform_indices(self, generator: np.random.Generator) -> List[List[int]]:
        return [
            [
                int(generator.integers(size))
                for size in self.search_space.decision_sizes(position.stride)
            ]
            for position in self.positions
        ]

    def _mutated_indices(self, generator: np.random.Generator) -> List[List[int]]:
        """Tournament parent with exactly one decision slot re-drawn."""
        child = self.population.tournament_parent(generator)
        position_index = int(generator.integers(len(self.positions)))
        sizes = self.search_space.decision_sizes(
            self.positions[position_index].stride
        )
        slot = int(generator.integers(len(sizes)))
        size = sizes[slot]
        current = child[position_index][slot]
        if size > 1:
            # Uniform over the *other* values, so a mutation always mutates.
            offset = 1 + int(generator.integers(size - 1))
            child[position_index][slot] = (current + offset) % size
        return child


class _EvolutionTrainer(PolicyGradientTrainer):
    """Feeds observed rewards into the population; never updates the policy."""

    def __init__(self, controller, config, population: _EvolutionPopulation):
        super().__init__(controller, config)
        self._population = population

    def observe(self, sample: ControllerSample, reward: float) -> None:
        self.update_baseline(reward)  # keep the running-reward statistic
        self._population.record(sample.decision_indices, reward)

    def apply_update(self) -> None:
        pass


class RegularizedEvolutionSearch(FaHaNaSearch):
    """Aging evolution over the (frozen-backbone) space.

    Shares the producer, evaluator, reward, cache keys and engine
    integration with FaHaNa -- only the sampling distribution differs:
    children are single-decision mutations of tournament-selected parents,
    and the population forgets its oldest member every episode.
    """

    def __init__(
        self,
        train_dataset: GroupedDataset,
        validation_dataset: GroupedDataset,
        design_spec: Optional[DesignSpec] = None,
        config: Optional[FaHaNaConfig] = None,
        population_size: int = 16,
        tournament_size: int = 4,
    ):
        super().__init__(train_dataset, validation_dataset, design_spec, config)
        population = _EvolutionPopulation(
            capacity=population_size, tournament_size=tournament_size
        )
        self.controller = _EvolutionController(
            search_space=self.config.search_space,
            positions=self.producer.positions,
            hidden_size=self.config.controller_hidden,
            rng=self.config.seed,
        )
        self.controller.population = population
        self.policy_trainer = _EvolutionTrainer(
            self.controller, self.config.policy, population
        )


@register_strategy(
    "regularized_evolution",
    description="aging evolution: tournament parent selection + "
    "single-decision mutation (Real et al. 2019 baseline)",
)
def build_regularized_evolution(
    spec: RunSpec,
    train_dataset: GroupedDataset,
    validation_dataset: GroupedDataset,
    design_spec: DesignSpec,
) -> RegularizedEvolutionSearch:
    return RegularizedEvolutionSearch(
        train_dataset, validation_dataset, design_spec, _fahana_config(spec)
    )
