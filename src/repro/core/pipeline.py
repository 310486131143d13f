"""Composable child-evaluation pipeline: gates -> fidelities -> scoring.

The paper's central acceleration is *refusing to pay full training cost for
children that cannot win*: latency-violating children receive reward -1
without being trained.  The seed code hard-wired that idea as one ``if``
inside ``ChildEvaluator``; this module decomposes the evaluation into an
ordered pipeline so the same refusal generalises:

* **Gate stages** price a child from its descriptor alone (per-block latency
  table, parameter count, storage) and can short-circuit the evaluation to
  ``INVALID_REWARD`` before any model is built or trained.
* **Fidelity stages** train the survivors at increasing cost -- a proxy stage
  uses fewer epochs and/or a fraction of the training data -- and the engine
  promotes only the top quantile of each wave to the next stage
  (successive-halving style, as in the MnasNet/ProxylessNAS lineage).
* The **scoring stage** measures accuracy and per-group unfairness on the
  full validation split and evaluates the Eq. 1 reward.

The default configuration -- one latency gate followed by a single
full-fidelity stage -- reproduces the seed evaluator bit for bit, so every
existing entry point keeps its exact results unless a spec opts into more
stages.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.producer import ChildArchitecture
from repro.core.reward import INVALID_REWARD, RewardConfig, compute_reward
from repro.data.dataset import GroupedDataset
from repro.fairness.report import FairnessReport, evaluate_fairness
from repro.hardware.latency import LatencyEstimator
from repro.nn.trainer import Trainer, TrainingConfig
from repro.utils.fingerprint import content_fingerprint
from repro.utils.rng import new_rng
from repro.zoo.descriptors import ArchitectureDescriptor

FULL_FIDELITY_NAME = "full"


@dataclass(frozen=True)
class FidelityConfig:
    """One training fidelity: an (epochs, data fraction) budget.

    ``epochs=None`` means the full child-training budget of the evaluation's
    :class:`~repro.nn.trainer.TrainingConfig`; ``data_fraction`` selects a
    deterministic subset of the training split (drawn once per fidelity with
    ``subset_seed``).  ``promote_fraction`` is read by the engine: after a
    wave finishes this stage, only the top ``promote_fraction`` of the wave's
    valid children (by reward) advance to the next stage.
    """

    name: str = FULL_FIDELITY_NAME
    epochs: Optional[int] = None
    data_fraction: float = 1.0
    promote_fraction: float = 0.5
    subset_seed: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("fidelity name must be non-empty")
        if self.epochs is not None and self.epochs < 0:
            raise ValueError("fidelity epochs must be non-negative when given")
        if not 0.0 < self.data_fraction <= 1.0:
            raise ValueError("data_fraction must be in (0, 1]")
        if not 0.0 < self.promote_fraction <= 1.0:
            raise ValueError("promote_fraction must be in (0, 1]")

    @property
    def is_full(self) -> bool:
        """True when this stage trains at the full (un-reduced) budget."""
        return self.epochs is None and self.data_fraction >= 1.0

    def fingerprint(self) -> str:
        """Content fingerprint of the *training budget* this stage buys.

        The name and the promotion quantile are excluded: neither changes
        what a training run computes, so two schedules whose stages share a
        budget share cached results.
        """
        return content_fingerprint(
            {
                "epochs": self.epochs,
                "data_fraction": self.data_fraction,
                "subset_seed": self.subset_seed,
            }
        )


@dataclass(frozen=True)
class PipelineSettings:
    """Declarative shape of an evaluation pipeline (gates + fidelity ladder).

    The latency gate is always present (its limit lives in
    :class:`~repro.core.reward.RewardConfig`); ``max_parameters`` and
    ``max_storage_mb`` enable the optional parameter-count and memory gates.
    ``fidelities`` must end with a full-budget stage -- the final reward of a
    fully-promoted child is always measured at full fidelity.
    """

    max_parameters: Optional[int] = None
    max_storage_mb: Optional[float] = None
    fidelities: Tuple[FidelityConfig, ...] = (FidelityConfig(),)

    def __post_init__(self) -> None:
        if self.max_parameters is not None and self.max_parameters <= 0:
            raise ValueError("max_parameters must be positive when given")
        if self.max_storage_mb is not None and self.max_storage_mb <= 0:
            raise ValueError("max_storage_mb must be positive when given")
        if not self.fidelities:
            raise ValueError("the pipeline needs at least one fidelity stage")
        names = [fidelity.name for fidelity in self.fidelities]
        if len(set(names)) != len(names):
            raise ValueError(f"fidelity names must be unique, got {names}")
        if not self.fidelities[-1].is_full:
            raise ValueError(
                "the final fidelity stage must train at the full budget "
                "(epochs=None, data_fraction=1.0)"
            )
        for fidelity in self.fidelities[:-1]:
            if fidelity.is_full:
                raise ValueError(
                    f"fidelity {fidelity.name!r} trains at the full budget but "
                    "is not the final stage; proxy stages must reduce epochs "
                    "and/or data_fraction"
                )

    @property
    def staged(self) -> bool:
        """True when the pipeline has proxy stages (promotion applies)."""
        return len(self.fidelities) > 1


@dataclass(frozen=True)
class GateOutcome:
    """One gate's verdict on one child."""

    gate: str
    passed: bool
    measured: float
    limit: float


@dataclass(frozen=True)
class PricingReport:
    """Everything measured about a child before any training.

    All quantities derive from the descriptor alone (offline latency table,
    analytic parameter/storage counts), so pricing a child is cheap enough to
    run in the engine's sampling loop.
    """

    latency_ms: float
    storage_mb: float
    num_parameters: int
    gates: Tuple[GateOutcome, ...]

    @property
    def passed(self) -> bool:
        return all(outcome.passed for outcome in self.gates)

    @property
    def meets_timing(self) -> bool:
        for outcome in self.gates:
            if outcome.gate == "latency":
                return outcome.passed
        return True

    def failures(self) -> List[GateOutcome]:
        return [outcome for outcome in self.gates if not outcome.passed]


class LatencyGate:
    """Rejects children whose estimated latency violates the timing constraint."""

    name = "latency"

    def __init__(self, timing_constraint_ms: float):
        self.limit = timing_constraint_ms

    def check(self, pricing: "PricingReport") -> GateOutcome:
        return GateOutcome(
            gate=self.name,
            passed=pricing.latency_ms <= self.limit,
            measured=pricing.latency_ms,
            limit=self.limit,
        )


class ParameterCountGate:
    """Rejects children with more parameters than the configured budget."""

    name = "parameters"

    def __init__(self, max_parameters: int):
        self.limit = float(max_parameters)

    def check(self, pricing: "PricingReport") -> GateOutcome:
        return GateOutcome(
            gate=self.name,
            passed=pricing.num_parameters <= self.limit,
            measured=float(pricing.num_parameters),
            limit=self.limit,
        )


class MemoryGate:
    """Rejects children whose weight storage exceeds the configured budget."""

    name = "storage"

    def __init__(self, max_storage_mb: float):
        self.limit = max_storage_mb

    def check(self, pricing: "PricingReport") -> GateOutcome:
        return GateOutcome(
            gate=self.name,
            passed=pricing.storage_mb <= self.limit,
            measured=pricing.storage_mb,
            limit=self.limit,
        )


class EvaluationPipeline:
    """Prices, trains and scores child networks through configurable stages.

    The pipeline owns one trainer per fidelity (the full stage reuses the
    evaluation's training configuration verbatim) and one deterministic data
    subset per reduced-data fidelity.  :meth:`evaluate` is the single-child
    path (gates, then the final full-fidelity stage) and reproduces the seed
    evaluator exactly; the engine drives the staged path itself because
    promotion is a wave-relative decision.
    """

    def __init__(
        self,
        train_dataset: GroupedDataset,
        validation_dataset: GroupedDataset,
        latency_estimator: LatencyEstimator,
        reward: RewardConfig,
        training: TrainingConfig,
        settings: Optional[PipelineSettings] = None,
        bypass_invalid: bool = True,
    ):
        if len(train_dataset) == 0 or len(validation_dataset) == 0:
            raise ValueError("train and validation datasets must be non-empty")
        self.train_dataset = train_dataset
        self.validation_dataset = validation_dataset
        self.latency_estimator = latency_estimator
        self.reward = reward
        self.training = training
        self.settings = settings or PipelineSettings()
        self.bypass_invalid = bypass_invalid

        self.gates: List[object] = [LatencyGate(reward.timing_constraint_ms)]
        if self.settings.max_parameters is not None:
            self.gates.append(ParameterCountGate(self.settings.max_parameters))
        if self.settings.max_storage_mb is not None:
            self.gates.append(MemoryGate(self.settings.max_storage_mb))

        self._trainers: Dict[str, Trainer] = {}
        for fidelity in self.settings.fidelities:
            config = (
                training
                if fidelity.epochs is None
                else replace(training, epochs=fidelity.epochs)
            )
            self._trainers[fidelity.name] = Trainer(config)
        self._subsets: Dict[str, np.ndarray] = {}

    # -- stage lookup ------------------------------------------------------------
    @property
    def fidelities(self) -> Tuple[FidelityConfig, ...]:
        return self.settings.fidelities

    @property
    def final_fidelity(self) -> FidelityConfig:
        return self.settings.fidelities[-1]

    def fidelity(self, name: str) -> FidelityConfig:
        for candidate in self.settings.fidelities:
            if candidate.name == name:
                return candidate
        raise KeyError(
            f"unknown fidelity {name!r}; configured: "
            f"{[f.name for f in self.settings.fidelities]}"
        )

    def trainer(self, fidelity: FidelityConfig) -> Trainer:
        return self._trainers[fidelity.name]

    # -- gate stage --------------------------------------------------------------
    def price(self, descriptor: ArchitectureDescriptor) -> PricingReport:
        """Run every gate against a child's descriptor (no model, no training)."""
        latency = self.latency_estimator.network_latency_ms(descriptor)
        pricing = PricingReport(
            latency_ms=latency,
            storage_mb=descriptor.storage_mb(),
            num_parameters=descriptor.param_count(),
            gates=(),
        )
        outcomes = tuple(gate.check(pricing) for gate in self.gates)
        return replace(pricing, gates=outcomes)

    def rejection_result(self, pricing: PricingReport) -> "EvaluationResult":
        """The untrained ``INVALID_REWARD`` result of a gate-rejected child."""
        from repro.core.evaluator import EvaluationResult

        return EvaluationResult(
            latency_ms=pricing.latency_ms,
            storage_mb=pricing.storage_mb,
            num_parameters=pricing.num_parameters,
            trained=False,
            accuracy=0.0,
            unfairness=0.0,
            group_accuracy={},
            reward=INVALID_REWARD,
            meets_timing=pricing.meets_timing,
            meets_accuracy=False,
            train_seconds=0.0,
            fidelity=self.final_fidelity.name,
        )

    # -- fidelity + scoring stages -------------------------------------------------
    def _training_data(self, fidelity: FidelityConfig) -> Tuple[np.ndarray, np.ndarray]:
        """The (images, labels) arrays this fidelity trains on."""
        if fidelity.data_fraction >= 1.0:
            return self.train_dataset.images, self.train_dataset.labels
        if fidelity.name not in self._subsets:
            total = len(self.train_dataset)
            count = max(1, int(round(fidelity.data_fraction * total)))
            order = new_rng(fidelity.subset_seed).permutation(total)[:count]
            # Sorted so the subset preserves the split's sample order: the
            # trainer's own shuffling then behaves like on a smaller split.
            self._subsets[fidelity.name] = np.sort(order)
        indices = self._subsets[fidelity.name]
        return self.train_dataset.images[indices], self.train_dataset.labels[indices]

    def train_and_score(
        self,
        child: ChildArchitecture,
        fidelity: Optional[FidelityConfig] = None,
        pricing: Optional[PricingReport] = None,
    ) -> "EvaluationResult":
        """Train one child at ``fidelity`` and score it (accuracy, unfairness, Eq. 1).

        Training changes the child in place, so a child promoted to a later
        fidelity is built again from its seed rather than trained further.
        """
        from repro.core.evaluator import EvaluationResult

        fidelity = fidelity or self.final_fidelity
        pricing = pricing or self.price(child.descriptor)

        trainer = self._trainers[fidelity.name]
        images, labels = self._training_data(fidelity)
        start = time.perf_counter()
        trainer.fit(child.model, images, labels)
        train_seconds = time.perf_counter() - start

        report: FairnessReport = evaluate_fairness(
            child.model, self.validation_dataset, trainer
        )
        reward = compute_reward(
            accuracy=report.overall_accuracy,
            unfairness=report.unfairness,
            latency_ms=pricing.latency_ms,
            config=self.reward,
        )
        if not pricing.passed:
            # A failed gate always invalidates the child; with bypass off the
            # child still trains (matching the seed evaluator's behaviour for
            # the latency constraint) but cannot out-score the penalty.
            reward = INVALID_REWARD
        return EvaluationResult(
            latency_ms=pricing.latency_ms,
            storage_mb=pricing.storage_mb,
            num_parameters=pricing.num_parameters,
            trained=True,
            accuracy=report.overall_accuracy,
            unfairness=report.unfairness,
            group_accuracy=dict(report.group_accuracy),
            reward=reward,
            meets_timing=pricing.meets_timing,
            meets_accuracy=report.overall_accuracy >= self.reward.accuracy_constraint,
            train_seconds=train_seconds,
            fidelity=fidelity.name,
        )

    # -- the single-child path (gates, then full fidelity) -------------------------
    def evaluate(self, child: ChildArchitecture) -> "EvaluationResult":
        """Price and (conditionally) train one child at full fidelity.

        This is the seed evaluator's exact contract: promotion through proxy
        stages is wave-relative and therefore driven by the engine, not here.
        """
        pricing = self.price(child.descriptor)
        if not pricing.passed and self.bypass_invalid:
            return self.rejection_result(pricing)
        return self.train_and_score(child, self.final_fidelity, pricing)
