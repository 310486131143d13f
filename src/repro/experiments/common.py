"""Shared plumbing for the experiment harnesses.

``evaluate_architecture`` trains one architecture at the chosen scale preset
and measures everything the paper's tables report (accuracy, per-group
accuracy, unfairness, reward, parameters, storage, latency on both devices).
Results are cached per (architecture, preset, seed, dataset variant) so that
harnesses sharing networks -- Table 1, Table 3, Figures 1/2/6 -- train each
network only once per session.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.api.spec import DatasetSpec, DesignSpecConfig, RunSpec, SearchParams
from repro.core.reward import RewardConfig, compute_reward
from repro.data.balancing import balance_minority
from repro.data.dataset import DatasetSplits, GroupedDataset, stratified_split
from repro.data.dermatology import DermatologyConfig, DermatologyGenerator
from repro.data.transforms import normalize_images
from repro.experiments.presets import ScalePreset
from repro.fairness.report import evaluate_fairness
from repro.hardware.device import ODROID_XU4, RASPBERRY_PI_4
from repro.hardware.latency import estimate_latency_ms
from repro.nn.trainer import Trainer
from repro.zoo.descriptors import ArchitectureDescriptor
from repro.zoo.registry import get_architecture


@dataclass
class ArchitectureEvaluation:
    """Everything measured about one fully-trained architecture."""

    name: str
    params: int
    storage_mb: float
    latency_pi_ms: float
    latency_odroid_ms: float
    accuracy: float
    group_accuracy: Dict[str, float]
    unfairness: float
    reward: float
    meets_timing: bool
    meets_accuracy: bool
    train_accuracy: float

    @property
    def light_accuracy(self) -> float:
        return self.group_accuracy.get("light", float("nan"))

    @property
    def dark_accuracy(self) -> float:
        return self.group_accuracy.get("dark", float("nan"))


@dataclass
class PreparedData:
    """Normalised train/validation/test splits plus the generator that made them."""

    splits: DatasetSplits
    generator: DermatologyGenerator
    mean: np.ndarray
    std: np.ndarray


_DATA_CACHE: Dict[Tuple, PreparedData] = {}
_EVAL_CACHE: Dict[Tuple, ArchitectureEvaluation] = {}


def clear_caches() -> None:
    """Drop all cached datasets and evaluations (mainly for tests)."""
    _DATA_CACHE.clear()
    _EVAL_CACHE.clear()


def prepare_data(
    preset: ScalePreset,
    seed: int = 0,
    minority_multiplier: float = 1.0,
    balanced: bool = False,
) -> PreparedData:
    """Generate, split and normalise the dermatology dataset for a preset."""
    key = (preset.name, seed, round(minority_multiplier, 4), balanced)
    if key in _DATA_CACHE:
        return _DATA_CACHE[key]
    config = preset.dermatology_config(minority_multiplier)
    generator = DermatologyGenerator(config)
    dataset = generator.generate()
    splits = stratified_split(dataset, rng=seed)
    train = splits.train
    if balanced:
        train = balance_minority(train, generator, factor=5, rng=seed)
    train_images, mean, std = normalize_images(train.images)
    train = GroupedDataset(train_images, train.labels, train.groups, train.group_names)
    validation = _apply_normalisation(splits.validation, mean, std)
    test = _apply_normalisation(splits.test, mean, std)
    prepared = PreparedData(
        splits=DatasetSplits(train=train, validation=validation, test=test),
        generator=generator,
        mean=mean,
        std=std,
    )
    _DATA_CACHE[key] = prepared
    return prepared


def _apply_normalisation(
    dataset: GroupedDataset, mean: np.ndarray, std: np.ndarray
) -> GroupedDataset:
    images, _, _ = normalize_images(dataset.images, mean, std)
    return GroupedDataset(images, dataset.labels, dataset.groups, dataset.group_names)


def search_spec(
    preset: ScalePreset,
    strategy: str = "fahana",
    *,
    episodes: Optional[int] = None,
    seed: int = 0,
    timing_constraint_ms: float = 1500.0,
    accuracy_constraint: float = 0.0,
    minority_multiplier: float = 1.0,
) -> RunSpec:
    """The declarative :class:`RunSpec` for one search at a preset scale.

    This is the single translation point from :class:`ScalePreset` knobs to
    the run API -- the harnesses that run searches (Table 2, Figure 5) build
    their specs here and hand them to :func:`repro.api.run.run` together
    with the normalised splits from :func:`prepare_data`.  Child training
    uses the legacy batch size (32) so spec-driven runs reproduce the
    historical harness results exactly.
    """
    dermatology = preset.dermatology_config(minority_multiplier)
    return RunSpec(
        strategy=strategy,
        dataset=DatasetSpec(
            image_size=dermatology.image_size,
            num_classes=dermatology.num_classes,
            samples_per_class=dermatology.samples_per_class_majority,
            minority_fraction=dermatology.minority_fraction,
            dark_contrast=dermatology.dark_contrast,
            seed=dermatology.seed,
            split_seed=seed,
        ),
        design=DesignSpecConfig(
            timing_constraint_ms=timing_constraint_ms,
            accuracy_constraint=accuracy_constraint,
        ),
        search=SearchParams(
            episodes=episodes or preset.search_episodes,
            width_multiplier=preset.width_multiplier,
            child_epochs=preset.child_epochs,
            pretrain_epochs=preset.pretrain_epochs,
            max_searchable=preset.max_searchable,
            seed=seed,
        ),
    )


def evaluate_architecture(
    architecture: Union[str, ArchitectureDescriptor],
    preset: ScalePreset,
    seed: int = 0,
    data: Optional[PreparedData] = None,
    reward_config: Optional[RewardConfig] = None,
    cache_tag: str = "default",
) -> ArchitectureEvaluation:
    """Train one architecture at the preset scale and measure the paper's metrics."""
    if isinstance(architecture, str):
        descriptor = get_architecture(architecture)
        name = architecture
    else:
        descriptor = architecture
        name = architecture.name

    cache_key = (name, preset.name, seed, cache_tag)
    if data is None and cache_key in _EVAL_CACHE:
        return _EVAL_CACHE[cache_key]

    prepared = data or prepare_data(preset, seed)
    reward_config = reward_config or RewardConfig(
        alpha=1.0, beta=1.0, accuracy_constraint=0.0, timing_constraint_ms=1500.0
    )

    trainer = Trainer(preset.training_config(seed))
    model = descriptor.build(
        num_classes=prepared.splits.train.num_classes,
        width_multiplier=preset.width_multiplier,
        rng=seed,
    )
    history = trainer.fit(
        model, prepared.splits.train.images, prepared.splits.train.labels
    )
    report = evaluate_fairness(model, prepared.splits.test, trainer)

    latency_pi = estimate_latency_ms(descriptor, RASPBERRY_PI_4)
    latency_odroid = estimate_latency_ms(descriptor, ODROID_XU4)
    reward = compute_reward(
        accuracy=report.overall_accuracy,
        unfairness=report.unfairness,
        latency_ms=latency_pi,
        config=reward_config,
    )
    evaluation = ArchitectureEvaluation(
        name=name,
        params=descriptor.param_count(),
        storage_mb=descriptor.storage_mb(),
        latency_pi_ms=latency_pi,
        latency_odroid_ms=latency_odroid,
        accuracy=report.overall_accuracy,
        group_accuracy=dict(report.group_accuracy),
        unfairness=report.unfairness,
        reward=reward,
        meets_timing=latency_pi <= reward_config.timing_constraint_ms,
        meets_accuracy=report.overall_accuracy >= reward_config.accuracy_constraint,
        train_accuracy=history.final_accuracy,
    )
    if data is None:
        _EVAL_CACHE[cache_key] = evaluation
    return evaluation
