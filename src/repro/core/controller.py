"""LSTM controller.

The controller autoregressively emits the four decisions of every searchable
position.  At each step the embedding of the previous decision is fed into an
LSTM cell; a per-decision-kind output head turns the hidden state into logits
over that decision's vocabulary.  Sampling records everything needed to
compute ``grad log pi(a_t)`` by backpropagation through time, which the
policy-gradient trainer (Eq. 2) consumes.

A search samples and back-propagates one small vector at a time, so the cost
is numpy calls, not arithmetic.  The code keeps their number down without
changing one bit of a sample or a gradient: every element still goes through
the same float64 operations in the same order.  Batching episodes would not
keep them, because a matrix-matrix product does not round like the
matrix-vector products it replaces.

An episode with zero advantage is not back-propagated at all.  In a gated
search every child misses the latency spec and draws the reward -1, so from
the second episode on the EMA baseline is exactly -1 and every advantage
exactly 0.  Such an episode's gradient terms are all products with a zero
coefficient, +0.0 or -0.0 as long as the weights are finite, and adding
those to gradients that start at +0.0 and are only summed into changes no
bit.  The update still zeroes the gradients and steps Adam, whose moments
move the weights even under a zero gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.search_space import BlockDecision, SearchPosition, SearchSpace
from repro.nn.tensor import Parameter
from repro.utils.rng import SeedLike, new_rng

# Decision kinds, in controller emission order for every position.
_KIND_TYPE = "type"
_KIND_KERNEL = "kernel"
_KIND_MID = "ch_mid"
_KIND_OUT = "ch_out"
_KINDS = (_KIND_TYPE, _KIND_KERNEL, _KIND_MID, _KIND_OUT)


@dataclass
class _StepCache:
    """Everything the BPTT backward pass needs for one emission step."""

    head_key: str
    prev_token: int
    concat: np.ndarray  # [x, h_prev], the LSTM's input
    c_prev: np.ndarray
    gates: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    c: np.ndarray
    tanh_c: np.ndarray
    h: np.ndarray
    probs: np.ndarray
    action: int


@dataclass
class ControllerSample:
    """One sampled architecture plus the log-probability bookkeeping."""

    decision_indices: List[List[int]]
    decisions: List[BlockDecision]
    log_prob: float
    entropy: float
    steps: List[_StepCache] = field(repr=False, default_factory=list)

    @property
    def num_steps(self) -> int:
        return len(self.steps)


class LSTMController:
    """Recurrent policy over block hyper-parameters."""

    def __init__(
        self,
        search_space: SearchSpace,
        positions: Sequence[SearchPosition],
        hidden_size: int = 64,
        rng: SeedLike = 0,
    ):
        if hidden_size <= 0:
            raise ValueError("hidden_size must be positive")
        if not positions:
            raise ValueError("the controller needs at least one searchable position")
        self.search_space = search_space
        self.positions = list(positions)
        self.hidden_size = hidden_size
        generator = new_rng(rng)

        vocab = search_space.max_decision_size() + 1  # +1 for the start token
        self._start_token = 0
        scale = 0.1
        self.embedding = Parameter(
            generator.normal(0.0, scale, size=(vocab, hidden_size)), name="embedding"
        )
        self.lstm_weight = Parameter(
            generator.normal(0.0, scale, size=(4 * hidden_size, 2 * hidden_size)),
            name="lstm_weight",
        )
        self.lstm_bias = Parameter(np.zeros(4 * hidden_size), name="lstm_bias")

        # One output head per (decision kind, stride variant where relevant).
        self._heads: Dict[str, Tuple[Parameter, Parameter]] = {}
        for key, size in self._head_sizes().items():
            weight = Parameter(
                generator.normal(0.0, scale, size=(size, hidden_size)),
                name=f"head_{key}_w",
            )
            bias = Parameter(np.zeros(size), name=f"head_{key}_b")
            self._heads[key] = (weight, bias)

    # -- parameter plumbing -------------------------------------------------------
    def _head_sizes(self) -> Dict[str, int]:
        space = self.search_space
        return {
            "type_s1": len(space.stride1_types),
            "type_s2": len(space.stride2_types),
            "kernel": len(space.kernel_choices),
            "ch_mid": len(space.ch_mid_choices),
            "ch_out": len(space.ch_out_choices),
        }

    def parameters(self) -> List[Parameter]:
        """All trainable parameters of the controller."""
        params = [self.embedding, self.lstm_weight, self.lstm_bias]
        for weight, bias in self._heads.values():
            params.extend([weight, bias])
        return params

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def _head_key(self, kind: str, stride: int) -> str:
        if kind == _KIND_TYPE:
            return "type_s2" if stride == 2 else "type_s1"
        return kind

    # -- forward (sampling) ---------------------------------------------------------
    def sample(
        self,
        rng: SeedLike = None,
        temperature: float = 1.0,
        greedy: bool = False,
    ) -> ControllerSample:
        """Sample one architecture from the current policy."""
        if temperature <= 0:
            raise ValueError("temperature must be positive")
        generator = new_rng(rng)
        h = np.zeros(self.hidden_size)
        c = np.zeros(self.hidden_size)
        prev_token = self._start_token
        steps: List[_StepCache] = []
        decision_indices: List[List[int]] = []
        log_prob = 0.0
        entropy = 0.0

        for position in self.positions:
            per_position: List[int] = []
            for kind in _KINDS:
                head_key = self._head_key(kind, position.stride)
                cache, h, c = self._step(prev_token, h, c, head_key, temperature)
                probs = cache.probs
                if greedy:
                    action = int(np.argmax(probs))
                else:
                    action = _draw(probs, generator)
                cache.action = action
                steps.append(cache)
                per_position.append(action)
                log_prob += float(np.log(probs[action] + 1e-12))
                entropy += float(-(probs * np.log(probs + 1e-12)).sum())
                prev_token = action + 1  # shift to leave 0 as the start token
            decision_indices.append(per_position)

        decisions = [
            self.search_space.decode(position.stride, indices)
            for position, indices in zip(self.positions, decision_indices)
        ]
        return ControllerSample(
            decision_indices=decision_indices,
            decisions=decisions,
            log_prob=log_prob,
            entropy=entropy,
            steps=steps,
        )

    def _step(
        self,
        prev_token: int,
        h_prev: np.ndarray,
        c_prev: np.ndarray,
        head_key: str,
        temperature: float,
    ) -> Tuple[_StepCache, np.ndarray, np.ndarray]:
        hidden = self.hidden_size
        concat = np.concatenate([self.embedding.data[prev_token], h_prev])
        z = self.lstm_weight.data @ concat + self.lstm_bias.data
        # The sigmoid is elementwise, so one call over all of z gives the
        # input, forget and output gates the bits of three separate calls;
        # its value over the g block is computed and ignored.
        sigmoid_z = _sigmoid(z)
        i = sigmoid_z[:hidden]
        f = sigmoid_z[hidden : 2 * hidden]
        g = np.tanh(z[2 * hidden : 3 * hidden])
        o = sigmoid_z[3 * hidden :]
        c = f * c_prev + i * g
        tanh_c = np.tanh(c)
        h = o * tanh_c
        weight, bias = self._heads[head_key]
        logits = weight.data @ h + bias.data
        if temperature != 1.0:  # x / 1.0 is x, bit for bit
            logits /= temperature
        # ``repro.nn.functional.softmax`` of a vector, calling the array
        # methods that its ``np.max`` and ``np.sum`` wrappers call.
        exp = np.exp(logits - logits.max())
        probs = exp / exp.sum()
        cache = _StepCache(
            head_key=head_key,
            prev_token=prev_token,
            concat=concat,
            c_prev=c_prev,
            gates=(i, f, g, o),
            c=c,
            tanh_c=tanh_c,
            h=h,
            probs=probs,
            action=-1,
        )
        return cache, h, c

    # -- backward (policy gradient) ---------------------------------------------------
    def accumulate_log_prob_gradient(
        self, sample: ControllerSample, step_coefficients: Sequence[float]
    ) -> None:
        """Accumulate ``sum_t coeff_t * grad log pi(a_t)`` into the parameter grads.

        ``step_coefficients`` holds one coefficient per emission step (the
        policy-gradient trainer passes ``gamma^(T-t) * (R - b)``); the caller
        is responsible for the outer 1/m averaging and for flipping signs if
        it wants gradient *descent* on a loss rather than ascent on reward.
        When every coefficient is zero the call adds nothing and returns
        without back-propagating (see the module docstring).
        """
        if len(step_coefficients) != len(sample.steps):
            raise ValueError(
                f"expected {len(sample.steps)} coefficients, got {len(step_coefficients)}"
            )
        if not any(step_coefficients):
            # All 0.0 or -0.0 (NaN is not zero and runs).  Every term the
            # loop adds is a product with a coefficient, so with finite
            # weights each is +0.0 or -0.0.  Adding either leaves every
            # gradient element as it is: the gradient starts at +0.0 and is
            # only summed into, so no element holds -0.0, the one value that
            # adding +0.0 changes.
            return
        hidden = self.hidden_size
        dh_next = np.zeros(hidden)
        dc_next = np.zeros(hidden)
        outer = np.empty_like(self.lstm_weight.data)  # reused by every step
        for t in reversed(range(len(sample.steps))):
            cache = sample.steps[t]
            coeff = float(step_coefficients[t])
            # d log pi(a_t) / d logits = onehot(a_t) - probs
            dlogits = -cache.probs * coeff
            dlogits[cache.action] += coeff

            weight, bias = self._heads[cache.head_key]
            weight.accumulate_grad(np.outer(dlogits, cache.h))
            bias.accumulate_grad(dlogits)
            dh = weight.data.T @ dlogits + dh_next

            i, f, g, o = cache.gates
            tanh_c = cache.tanh_c
            do = dh * tanh_c
            dc = dh * o * (1 - tanh_c**2) + dc_next
            di = dc * g
            dg = dc * i
            df = dc * cache.c_prev
            dc_next = dc * f

            dz = np.concatenate(
                [
                    di * i * (1 - i),
                    df * f * (1 - f),
                    dg * (1 - g**2),
                    do * o * (1 - o),
                ]
            )
            self.lstm_weight.accumulate_grad(np.outer(dz, cache.concat, out=outer))
            self.lstm_bias.accumulate_grad(dz)
            dconcat = self.lstm_weight.data.T @ dz
            dx = dconcat[:hidden]
            dh_next = dconcat[hidden:]

            # Only the fed token's row has a gradient.  Adding a zero table
            # would leave every other row as it is: the gradient starts at
            # +0.0 and is only summed into, so no row holds -0.0, the one
            # value that adding +0.0 changes.
            self.embedding.grad[cache.prev_token] += dx

    def log_prob_of(self, sample: ControllerSample) -> float:
        """Log-probability of a previously drawn sample under the current policy.

        Re-runs the forward pass with the sample's actions; useful for tests
        and for diagnosing policy drift.
        """
        h = np.zeros(self.hidden_size)
        c = np.zeros(self.hidden_size)
        prev_token = self._start_token
        total = 0.0
        step_index = 0
        for position in self.positions:
            for kind in _KINDS:
                head_key = self._head_key(kind, position.stride)
                cache, h, c = self._step(prev_token, h, c, head_key, 1.0)
                action = sample.steps[step_index].action
                total += float(np.log(cache.probs[action] + 1e-12))
                prev_token = action + 1
                step_index += 1
        return total


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # ``np.clip(x, ...)`` is a wrapper that calls this method.
    return 1.0 / (1.0 + np.exp(-x.clip(-60.0, 60.0)))


def _draw(probs: np.ndarray, generator: np.random.Generator) -> int:
    """``generator.choice(len(probs), p=probs)`` without its per-call overhead.

    These are the steps ``Generator.choice`` itself takes for one draw with
    replacement: the same cumulative sum, normalisation, single ``random()``
    and right-sided search.  So the draw picks the same index and leaves the
    generator in the same state, in about a third of the time.  ``choice``'s
    refusal of NaN probabilities is kept; its other checks (negative entries,
    a sum away from 1) cannot fail on a softmax.
    """
    cdf = probs.cumsum()
    if math.isnan(cdf[-1]):
        raise ValueError("Probabilities contain NaN")
    cdf /= cdf[-1]
    return int(cdf.searchsorted(generator.random(), side="right"))
