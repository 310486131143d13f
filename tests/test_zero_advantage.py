"""Zero-advantage episodes: the controller update is the floor's, bit for bit.

A gated search gives every child the reward -1, so once the EMA baseline is
exactly -1 every episode has an advantage of exactly 0, and the controller
does not back-propagate it.  The first test runs the live controller and
``PolicyGradientTrainer`` next to the reference of
``test_controller_floor`` (which back-propagates every episode) through
rewards that start with a run of -1 and then mix zero- and nonzero-advantage
episodes within one update, and demands the floor's bit-for-bit equality
after every update.  The others show that a zero-advantage episode runs no
backward step while Adam still steps, and that only all-zero coefficients
skip one.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import PolicyGradientConfig, PolicyGradientTrainer
from test_controller_floor import (
    BASELINE_DECAY,
    BATCH,
    DISCOUNT,
    LEARNING_RATE,
    MAX_GRAD_NORM,
    _assert_same_sample,
    _assert_same_state,
    _controller,
    _reference_sample,
    _ReferenceTrainer,
)

# A reward equal to the baseline at that episode: an advantage of exactly 0.
AT_BASELINE = "baseline"
# One row per update of BATCH episodes.
SCHEDULE = (
    (-1.0, -1.0, -1.0, -1.0),  # only the first episode has an advantage (-1)
    (-1.0, -1.0, -1.0, -1.0),  # the baseline is exactly -1: all zero
    (-1.0, 0.6, AT_BASELINE, -1.0),  # zero, nonzero, zero, nonzero
    (AT_BASELINE, AT_BASELINE, AT_BASELINE, AT_BASELINE),
    (2.5, AT_BASELINE, -0.3, AT_BASELINE),
    (-1.0, AT_BASELINE, 0.0, AT_BASELINE),
)


def _trainer(controller):
    return PolicyGradientTrainer(
        controller,
        PolicyGradientConfig(
            learning_rate=LEARNING_RATE,
            discount=DISCOUNT,
            baseline_decay=BASELINE_DECAY,
            batch_episodes=BATCH,
            max_grad_norm=MAX_GRAD_NORM,
        ),
    )


def _count_backward_steps(controller, monkeypatch):
    """Count the BPTT steps: each adds once into the LSTM weight's gradient."""
    steps = []
    accumulate = controller.lstm_weight.accumulate_grad

    def counting(grad):
        steps.append(None)
        accumulate(grad)

    monkeypatch.setattr(controller.lstm_weight, "accumulate_grad", counting)
    return steps


@pytest.mark.parametrize("temperature", [1.0, 0.7])
def test_zero_advantage_updates_equal_the_reference(temperature):
    reference, live = _controller(), _controller()
    ref_trainer, live_trainer = _ReferenceTrainer(reference), _trainer(live)
    ref_rng, live_rng = np.random.default_rng(11), np.random.default_rng(11)
    advantages = []
    for update, rewards in enumerate(SCHEDULE):
        for offset, reward in enumerate(rewards):
            greedy = (update * BATCH + offset) % 5 == 3
            ref_sample = _reference_sample(reference, ref_rng, temperature, greedy)
            live_sample = live.sample(rng=live_rng, temperature=temperature, greedy=greedy)
            _assert_same_sample(ref_sample, live_sample)
            if reward is AT_BASELINE:
                reward = ref_trainer.baseline
            advantages.append(reward - live_trainer.baseline)
            ref_trainer.observe(ref_sample, reward)
            live_trainer.observe(live_sample, reward)
        assert live_trainer.pending_episodes == 0
        _assert_same_state(reference, live, ref_trainer, live_trainer)
        assert live_rng.bit_generator.state == ref_rng.bit_generator.state
    # The schedule is what it says: after one -1, seven episodes on a
    # baseline of exactly -1, then zero and nonzero advantages side by side.
    assert advantages[:8] == [-1.0] + [0.0] * 7
    zero = [advantage == 0.0 for advantage in advantages]
    assert zero[8:12] == [True, False, True, False]
    assert all(zero[12:16])
    assert 0 < sum(zero[16:]) < len(zero[16:])


def test_zero_advantage_episodes_run_no_backward_step(monkeypatch):
    controller = _controller()
    trainer = _trainer(controller)
    steps = _count_backward_steps(controller, monkeypatch)
    rng = np.random.default_rng(3)
    for _ in range(BATCH):
        trainer.observe(controller.sample(rng=rng), -1.0)
    # The first episode (advantage -1, before any baseline) back-propagates
    # its eight steps; the three on a baseline of exactly -1 run none.
    assert trainer.baseline == -1.0
    assert len(steps) == 8
    before = [param.data.copy() for param in controller.parameters()]
    for _ in range(BATCH):
        trainer.observe(controller.sample(rng=rng), -1.0)
    assert len(steps) == 8
    # The all-zero update still zeroed the gradients and stepped Adam, whose
    # moments move the weights under a zero gradient.
    assert all(not param.grad.any() for param in controller.parameters())
    assert trainer.state_dict()["optimizer"]["step"] == 2
    after = controller.parameters()
    assert all(not np.array_equal(a, b.data) for a, b in zip(before, after))


def test_only_all_zero_coefficients_skip_the_backward(monkeypatch):
    controller = _controller()
    sample = controller.sample(rng=np.random.default_rng(5))
    steps = _count_backward_steps(controller, monkeypatch)
    controller.zero_grad()
    controller.accumulate_log_prob_gradient(sample, [0.0, -0.0] * 4)
    assert steps == []
    assert all(not param.grad.any() for param in controller.parameters())
    controller.accumulate_log_prob_gradient(sample, [0.0] * 7 + [1e-300])
    assert len(steps) == 8
    controller.zero_grad()
    controller.accumulate_log_prob_gradient(sample, [math.nan] * 8)
    assert len(steps) == 16
    assert np.isnan(controller.lstm_weight.grad).all()
    with pytest.raises(ValueError):
        controller.accumulate_log_prob_gradient(sample, [0.0] * 7)
