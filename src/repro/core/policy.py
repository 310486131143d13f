"""Monte-Carlo policy gradient (REINFORCE) for the controller (Equation 2).

    grad J(theta) = (1/m) * sum_k sum_t gamma^(T-t)
                    * grad_theta log pi(a_t | a_(t-1):1) * (R_k - b)

where ``m`` is the episode batch size, ``gamma`` the discount applied to the
per-step credit and ``b`` an exponential moving average of past rewards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.core.controller import ControllerSample, LSTMController
from repro.nn.optim import Adam


@dataclass
class PolicyGradientConfig:
    """Hyper-parameters of the controller update."""

    learning_rate: float = 5e-3
    discount: float = 0.97
    baseline_decay: float = 0.8
    batch_episodes: int = 1
    max_grad_norm: float = 10.0

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 < self.discount <= 1.0:
            raise ValueError("discount must be in (0, 1]")
        if not 0.0 <= self.baseline_decay < 1.0:
            raise ValueError("baseline_decay must be in [0, 1)")
        if self.batch_episodes <= 0:
            raise ValueError("batch_episodes must be positive")


class PolicyGradientTrainer:
    """Updates an :class:`LSTMController` from (sample, reward) pairs."""

    def __init__(self, controller: LSTMController, config: Optional[PolicyGradientConfig] = None):
        self.controller = controller
        self.config = config or PolicyGradientConfig()
        self._optimizer = Adam(
            controller.parameters(),
            lr=self.config.learning_rate,
            max_grad_norm=self.config.max_grad_norm,
        )
        self._baseline: Optional[float] = None
        self._pending: List[tuple] = []

    @property
    def baseline(self) -> float:
        """Current exponential-moving-average reward baseline."""
        return 0.0 if self._baseline is None else self._baseline

    @property
    def pending_episodes(self) -> int:
        """Episodes observed but not yet folded into a gradient update."""
        return len(self._pending)

    # -- checkpointing -----------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """Baseline and optimiser state (valid only between batch updates)."""
        if self._pending:
            raise ValueError(
                "cannot checkpoint a policy trainer with pending episodes; "
                "call apply_update() first or checkpoint at a batch boundary"
            )
        return {"baseline": self._baseline, "optimizer": self._optimizer.state_dict()}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore the state previously captured by :meth:`state_dict`."""
        baseline = state["baseline"]
        self._baseline = None if baseline is None else float(baseline)
        self._optimizer.load_state_dict(state["optimizer"])
        self._pending = []

    def update_baseline(self, reward: float) -> float:
        """Fold one observed reward into the EMA baseline and return it."""
        if self._baseline is None:
            self._baseline = reward
        else:
            decay = self.config.baseline_decay
            self._baseline = decay * self._baseline + (1.0 - decay) * reward
        return self._baseline

    def observe(self, sample: ControllerSample, reward: float) -> None:
        """Record one episode; applies an update every ``batch_episodes``."""
        advantage = reward - self.baseline
        self.update_baseline(reward)
        self._pending.append((sample, advantage))
        if len(self._pending) >= self.config.batch_episodes:
            self.apply_update()

    def apply_update(self) -> None:
        """Apply one gradient-ascent step from the pending episodes."""
        if not self._pending:
            return
        self.controller.zero_grad()
        batch = self._pending
        self._pending = []
        for sample, advantage in batch:
            coefficients = self._step_coefficients(sample, advantage)
            # Gradient *ascent* on expected reward: accumulate the negative so
            # that the (descending) optimiser moves parameters uphill.
            self.controller.accumulate_log_prob_gradient(
                sample, [-c / len(batch) for c in coefficients]
            )
        self._optimizer.step()

    def _step_coefficients(self, sample: ControllerSample, advantage: float) -> List[float]:
        total_steps = sample.num_steps
        gamma = self.config.discount
        return [
            (gamma ** (total_steps - 1 - t)) * advantage for t in range(total_steps)
        ]
