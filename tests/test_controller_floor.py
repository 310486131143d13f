"""Floor for the controller: sampling and policy updates equal their plain form.

The reference below is the LSTM controller and its REINFORCE update in their
plain form: one ``Generator.choice`` per sampled decision, one sigmoid call
per gate, a backward pass that rebuilds ``[x, h_prev]`` and ``tanh(c)`` at
every step, a fresh outer-product array per weight gradient and a zeroed copy
of the embedding table per step.  Each test runs the live controller and
``PolicyGradientTrainer`` next to it, from the same initial weights and the
same sampling seed, through several updates of four episodes with fixed
rewards.  It demands bit-for-bit equality of every decision, decision index,
log-probability and entropy, of every weight and gradient after each update,
of Adam's moments and step, and of the sampling generator's state.  The
reference runs on the same machine as the code under test, because a captured
golden value would depend on the BLAS kernels of the machine that captured it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np
import pytest

from repro.core import (
    LSTMController,
    PolicyGradientConfig,
    PolicyGradientTrainer,
    SearchPosition,
    SearchSpace,
)
from repro.nn.optim import Adam

HIDDEN = 64
LEARNING_RATE = 5e-3
DISCOUNT = 0.97
BASELINE_DECAY = 0.8
MAX_GRAD_NORM = 1.0
BATCH = 4
UPDATES = 12
# Fixed, varied rewards: gate rejections (-1), small and large valid ones.
REWARDS = (
    -1.0, 0.31, 0.74, -1.0, 0.05, 1.9, -1.0, -1.0, 0.52, 0.0, 3.25, -0.4,
    0.88, -1.0, 0.12, 0.67, -1.0, 2.4, 0.2, -0.75, 0.45, -1.0, 0.99, 0.33,
)


# -- the reference -----------------------------------------------------------------
def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))


def _softmax(logits):
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=-1, keepdims=True)


@dataclass
class _Step:
    head_key: str
    prev_token: int
    x: np.ndarray
    h_prev: np.ndarray
    c_prev: np.ndarray
    gates: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    c: np.ndarray
    h: np.ndarray
    probs: np.ndarray
    action: int


@dataclass
class _Sample:
    decision_indices: List[List[int]]
    decisions: list
    log_prob: float
    entropy: float
    steps: List[_Step]


def _reference_step(controller, prev_token, h_prev, c_prev, head_key, temperature):
    hidden = controller.hidden_size
    x = controller.embedding.data[prev_token]
    concat = np.concatenate([x, h_prev])
    z = controller.lstm_weight.data @ concat + controller.lstm_bias.data
    i = _sigmoid(z[:hidden])
    f = _sigmoid(z[hidden : 2 * hidden])
    g = np.tanh(z[2 * hidden : 3 * hidden])
    o = _sigmoid(z[3 * hidden :])
    c = f * c_prev + i * g
    h = o * np.tanh(c)
    weight, bias = controller._heads[head_key]
    logits = (weight.data @ h + bias.data) / temperature
    probs = _softmax(logits)
    step = _Step(head_key, prev_token, x, h_prev, c_prev, (i, f, g, o), c, h, probs, -1)
    return step, h, c


def _reference_sample(controller, generator, temperature, greedy):
    h = np.zeros(controller.hidden_size)
    c = np.zeros(controller.hidden_size)
    prev_token = 0
    steps: List[_Step] = []
    decision_indices: List[List[int]] = []
    log_prob = 0.0
    entropy = 0.0
    for position in controller.positions:
        per_position: List[int] = []
        for kind in ("type", "kernel", "ch_mid", "ch_out"):
            if kind == "type":
                head_key = "type_s2" if position.stride == 2 else "type_s1"
            else:
                head_key = kind
            step, h, c = _reference_step(controller, prev_token, h, c, head_key, temperature)
            probs = step.probs
            if greedy:
                action = int(np.argmax(probs))
            else:
                action = int(generator.choice(len(probs), p=probs))
            step.action = action
            steps.append(step)
            per_position.append(action)
            log_prob += float(np.log(probs[action] + 1e-12))
            entropy += float(-(probs * np.log(probs + 1e-12)).sum())
            prev_token = action + 1
        decision_indices.append(per_position)
    decisions = [
        controller.search_space.decode(position.stride, indices)
        for position, indices in zip(controller.positions, decision_indices)
    ]
    return _Sample(decision_indices, decisions, log_prob, entropy, steps)


def _reference_backward(controller, sample, step_coefficients):
    hidden = controller.hidden_size
    dh_next = np.zeros(hidden)
    dc_next = np.zeros(hidden)
    for t in reversed(range(len(sample.steps))):
        step = sample.steps[t]
        coeff = float(step_coefficients[t])
        dlogits = -step.probs * coeff
        dlogits[step.action] += coeff

        weight, bias = controller._heads[step.head_key]
        weight.accumulate_grad(np.outer(dlogits, step.h))
        bias.accumulate_grad(dlogits)
        dh = weight.data.T @ dlogits + dh_next

        i, f, g, o = step.gates
        tanh_c = np.tanh(step.c)
        do = dh * tanh_c
        dc = dh * o * (1 - tanh_c**2) + dc_next
        di = dc * g
        dg = dc * i
        df = dc * step.c_prev
        dc_next = dc * f

        dz = np.concatenate(
            [di * i * (1 - i), df * f * (1 - f), dg * (1 - g**2), do * o * (1 - o)]
        )
        concat = np.concatenate([step.x, step.h_prev])
        controller.lstm_weight.accumulate_grad(np.outer(dz, concat))
        controller.lstm_bias.accumulate_grad(dz)
        dconcat = controller.lstm_weight.data.T @ dz
        dx = dconcat[:hidden]
        dh_next = dconcat[hidden:]

        embedding_grad = np.zeros_like(controller.embedding.data)
        embedding_grad[step.prev_token] = dx
        controller.embedding.accumulate_grad(embedding_grad)


class _ReferenceTrainer:
    """REINFORCE with an EMA baseline, one Adam step per batch of episodes."""

    def __init__(self, controller):
        self.controller = controller
        self.optimizer = Adam(
            controller.parameters(), lr=LEARNING_RATE, max_grad_norm=MAX_GRAD_NORM
        )
        self.baseline = None
        self.pending = []
        self.clipped: List[bool] = []

    def observe(self, sample, reward):
        advantage = reward - (0.0 if self.baseline is None else self.baseline)
        if self.baseline is None:
            self.baseline = reward
        else:
            self.baseline = BASELINE_DECAY * self.baseline + (1.0 - BASELINE_DECAY) * reward
        self.pending.append((sample, advantage))
        if len(self.pending) >= BATCH:
            self.apply_update()

    def apply_update(self):
        params = self.controller.parameters()
        for param in params:
            param.grad.fill(0.0)
        batch = self.pending
        self.pending = []
        for sample, advantage in batch:
            total_steps = len(sample.steps)
            coefficients = [
                (DISCOUNT ** (total_steps - 1 - t)) * advantage for t in range(total_steps)
            ]
            _reference_backward(
                self.controller, sample, [-c / len(batch) for c in coefficients]
            )
        norm = float(np.sqrt(sum(float(np.sum(p.grad**2)) for p in params)))
        self.clipped.append(norm > MAX_GRAD_NORM)
        self.optimizer.step()


# -- the comparison ----------------------------------------------------------------
def _bits(value) -> bytes:
    return np.asarray(value, dtype=np.float64).tobytes()


def _controller():
    positions = [
        SearchPosition(index=0, stride=1, input_resolution=56),
        SearchPosition(index=1, stride=2, input_resolution=56),
    ]
    return LSTMController(SearchSpace(), positions, hidden_size=HIDDEN, rng=7)


def _assert_same_sample(reference, live):
    assert live.decision_indices == reference.decision_indices
    assert live.decisions == reference.decisions
    assert _bits(live.log_prob) == _bits(reference.log_prob)
    assert _bits(live.entropy) == _bits(reference.entropy)
    assert len(live.steps) == len(reference.steps)


def _assert_same_state(reference, live, ref_trainer, live_trainer):
    for ref_param, live_param in zip(reference.parameters(), live.parameters(), strict=True):
        assert live_param.name == ref_param.name
        assert live_param.data.tobytes() == ref_param.data.tobytes(), live_param.name
        assert live_param.grad.tobytes() == ref_param.grad.tobytes(), live_param.name
    ref_state = ref_trainer.optimizer.state_dict()
    live_state = live_trainer.state_dict()
    assert _bits(live_state["baseline"]) == _bits(ref_trainer.baseline)
    live_state = live_state["optimizer"]
    assert live_state["step"] == ref_state["step"]
    for moment in ("m", "v"):
        for ref_buffer, live_buffer in zip(ref_state[moment], live_state[moment], strict=True):
            assert live_buffer.tobytes() == ref_buffer.tobytes(), moment


@pytest.mark.parametrize("temperature", [1.0, 0.7])
def test_samples_and_updates_equal_the_reference(temperature):
    reference, live = _controller(), _controller()
    ref_trainer = _ReferenceTrainer(reference)
    live_trainer = PolicyGradientTrainer(
        live,
        PolicyGradientConfig(
            learning_rate=LEARNING_RATE,
            discount=DISCOUNT,
            baseline_decay=BASELINE_DECAY,
            batch_episodes=BATCH,
            max_grad_norm=MAX_GRAD_NORM,
        ),
    )
    ref_rng, live_rng = np.random.default_rng(2024), np.random.default_rng(2024)
    _assert_same_state(reference, live, ref_trainer, live_trainer)
    for update in range(UPDATES):
        for offset in range(BATCH):
            episode = update * BATCH + offset
            greedy = episode % 5 == 3
            ref_sample = _reference_sample(reference, ref_rng, temperature, greedy)
            live_sample = live.sample(rng=live_rng, temperature=temperature, greedy=greedy)
            _assert_same_sample(ref_sample, live_sample)
            reward = REWARDS[episode % len(REWARDS)]
            ref_trainer.observe(ref_sample, reward)
            live_trainer.observe(live_sample, reward)
        assert live_trainer.pending_episodes == 0
        _assert_same_state(reference, live, ref_trainer, live_trainer)
        assert live_rng.bit_generator.state == ref_rng.bit_generator.state
    # The setup reaches both sides of Adam's gradient clipping.
    assert any(ref_trainer.clipped) and not all(ref_trainer.clipped)


def test_log_prob_gradient_equals_the_reference():
    """One backward with arbitrary coefficients, including zero and negatives."""
    reference, live = _controller(), _controller()
    ref_sample = _reference_sample(reference, np.random.default_rng(5), 1.3, False)
    live_sample = live.sample(rng=np.random.default_rng(5), temperature=1.3)
    _assert_same_sample(ref_sample, live_sample)
    coefficients = [0.9, -0.25, 0.0, 1.7, -3.0, 0.125, 0.5, -0.01]
    for controller in (reference, live):
        for param in controller.parameters():
            param.grad.fill(0.0)
    _reference_backward(reference, ref_sample, coefficients)
    live.accumulate_log_prob_gradient(live_sample, coefficients)
    for ref_param, live_param in zip(reference.parameters(), live.parameters(), strict=True):
        assert live_param.grad.tobytes() == ref_param.grad.tobytes(), live_param.name
