"""FaHaNa: fairness- and hardware-aware neural architecture search.

This package implements the paper's primary contribution:

* :mod:`repro.core.search_space` -- the block-based search space (Figure 4-2),
* :mod:`repro.core.controller` -- the RNN (LSTM) controller (Figure 4-1),
* :mod:`repro.core.policy` -- Monte-Carlo policy-gradient updates (Eq. 2),
* :mod:`repro.core.reward` -- the fairness/accuracy/latency reward (Eq. 1),
* :mod:`repro.core.freezing` -- per-layer group feature variation and the
  frozen/searchable split point (Observation 3 / Figure 3),
* :mod:`repro.core.producer` -- the backbone architecture producer
  (Figure 4-3),
* :mod:`repro.core.evaluator` -- the evaluator & trainer (Figure 4-4),
* :mod:`repro.core.pipeline` -- the composable evaluation pipeline
  (gates -> fidelities -> scoring) behind the evaluator,
* :mod:`repro.core.fahana` -- the full FaHaNa search loop,
* :mod:`repro.core.monas` -- the MONAS baseline used in Table 2.
"""

from repro.core.search_space import SearchSpace, BlockDecision, SearchPosition
from repro.core.reward import RewardConfig, compute_reward
from repro.core.controller import LSTMController, ControllerSample
from repro.core.policy import PolicyGradientTrainer, PolicyGradientConfig
from repro.core.freezing import FreezingAnalysis, feature_variation, find_split_point
from repro.core.producer import BackboneProducer, ProducerConfig
from repro.core.evaluator import ChildEvaluator, EvaluationConfig, EvaluationResult
from repro.core.pipeline import (
    EvaluationPipeline,
    FidelityConfig,
    PipelineSettings,
    PricingReport,
)
from repro.core.results import EpisodeRecord, SearchHistory
from repro.core.fahana import FaHaNaSearch, FaHaNaConfig
from repro.core.monas import MonasSearch, MonasConfig

__all__ = [
    "SearchSpace",
    "BlockDecision",
    "SearchPosition",
    "RewardConfig",
    "compute_reward",
    "LSTMController",
    "ControllerSample",
    "PolicyGradientTrainer",
    "PolicyGradientConfig",
    "FreezingAnalysis",
    "feature_variation",
    "find_split_point",
    "BackboneProducer",
    "ProducerConfig",
    "ChildEvaluator",
    "EvaluationConfig",
    "EvaluationResult",
    "EvaluationPipeline",
    "FidelityConfig",
    "PipelineSettings",
    "PricingReport",
    "EpisodeRecord",
    "SearchHistory",
    "FaHaNaSearch",
    "FaHaNaConfig",
    "MonasSearch",
    "MonasConfig",
]
