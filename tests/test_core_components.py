"""Tests for the FaHaNa core components: search space, reward, controller, policy."""

from __future__ import annotations

import numpy as np
import pytest

from repro.blocks.spec import BlockSpec
from repro.core import (
    BlockDecision,
    LSTMController,
    PolicyGradientConfig,
    PolicyGradientTrainer,
    RewardConfig,
    SearchPosition,
    SearchSpace,
    compute_reward,
)
from repro.core.reward import INVALID_REWARD, reward_is_valid


def make_positions(num=3):
    positions = []
    resolution = 112
    for index in range(num):
        stride = 2 if index % 2 == 0 else 1
        positions.append(SearchPosition(index=index, stride=stride, input_resolution=resolution))
        if stride == 2:
            resolution //= 2
    return positions


class TestSearchSpace:
    def test_stride2_types_exclude_skip(self):
        space = SearchSpace()
        assert "SKIP" not in space.type_choices(2)
        assert "SKIP" in space.type_choices(1)

    def test_decision_sizes(self):
        space = SearchSpace()
        sizes = space.decision_sizes(1)
        assert sizes == (4, 2, 5, 6)

    def test_position_cardinality(self):
        space = SearchSpace()
        assert space.position_cardinality(1) == 4 * 2 * 5 * 6
        assert space.position_cardinality(2) == 3 * 2 * 5 * 6

    def test_space_size_product(self):
        space = SearchSpace()
        positions = make_positions(3)
        expected = (
            space.position_cardinality(2) ** 2 * space.position_cardinality(1)
        )
        assert space.space_size(positions) == expected

    def test_freezing_reduces_space_size_exponentially(self):
        space = SearchSpace()
        assert space.space_size(make_positions(10)) / space.space_size(make_positions(4)) > 1e12

    def test_decode_roundtrip(self):
        space = SearchSpace()
        decision = space.decode(1, [1, 0, 2, 3])
        assert decision.block_type == space.stride1_types[1]
        assert decision.kernel == space.kernel_choices[0]
        assert decision.ch_mid == space.ch_mid_choices[2]
        assert decision.ch_out == space.ch_out_choices[3]

    def test_decode_out_of_range_raises(self):
        space = SearchSpace()
        with pytest.raises(ValueError):
            space.decode(1, [99, 0, 0, 0])
        with pytest.raises(ValueError):
            space.decode(1, [0, 0, 0])

    def test_to_block_spec_respects_stride(self):
        space = SearchSpace()
        decision = BlockDecision("MB", 3, 64, 96)
        spec2 = space.to_block_spec(decision, ch_in=32, stride=2)
        assert spec2.block_type == "MB" and spec2.stride == 2
        spec1 = space.to_block_spec(BlockDecision("DB", 3, 64, 96), ch_in=32, stride=1)
        assert spec1.block_type == "DB" and spec1.stride == 1

    def test_to_block_spec_skip(self):
        space = SearchSpace()
        spec = space.to_block_spec(BlockDecision("SKIP", 3, 64, 96), ch_in=32, stride=1)
        assert spec.block_type == "SKIP" and spec.ch_in == spec.ch_out == 32

    def test_decisions_to_specs_chains_channels(self):
        space = SearchSpace()
        positions = make_positions(3)
        decisions = [
            BlockDecision("MB", 3, 64, 96),
            BlockDecision("SKIP", 3, 64, 96),
            BlockDecision("RB", 5, 128, 64),
        ]
        specs = space.decisions_to_specs(positions, decisions, ch_in=32)
        assert specs[0].ch_in == 32 and specs[0].ch_out == 96
        assert specs[1].block_type == "SKIP" and specs[1].ch_in == 96
        assert specs[2].ch_in == 96 and specs[2].ch_out == 64

    def test_decisions_to_specs_length_mismatch(self):
        space = SearchSpace()
        with pytest.raises(ValueError):
            space.decisions_to_specs(make_positions(2), [BlockDecision("RB", 3, 64, 64)], 32)

    def test_invalid_space_configuration(self):
        with pytest.raises(ValueError):
            SearchSpace(stride2_types=("MB", "SKIP"))
        with pytest.raises(ValueError):
            SearchSpace(kernel_choices=())

    def test_search_position_validation(self):
        with pytest.raises(ValueError):
            SearchPosition(index=0, stride=3, input_resolution=8)
        with pytest.raises(ValueError):
            SearchPosition(index=0, stride=1, input_resolution=0)


class TestReward:
    def test_reward_formula(self):
        config = RewardConfig(alpha=1.0, beta=1.0, timing_constraint_ms=1000)
        assert compute_reward(0.8, 0.2, 500, config) == pytest.approx(0.6)

    def test_alpha_beta_weighting(self):
        config = RewardConfig(alpha=2.0, beta=0.5, timing_constraint_ms=1000)
        assert compute_reward(0.8, 0.2, 500, config) == pytest.approx(1.5)

    def test_latency_violation_gives_minus_one(self):
        config = RewardConfig(timing_constraint_ms=1000)
        assert compute_reward(0.9, 0.0, 1500, config) == INVALID_REWARD

    def test_accuracy_violation_gives_minus_one(self):
        config = RewardConfig(accuracy_constraint=0.81, timing_constraint_ms=1e9)
        assert compute_reward(0.78, 0.1, 100, config) == INVALID_REWARD

    def test_boundary_values_are_valid(self):
        config = RewardConfig(accuracy_constraint=0.8, timing_constraint_ms=1000)
        assert reward_is_valid(compute_reward(0.8, 0.0, 1000, config))

    def test_invalid_inputs_raise(self):
        config = RewardConfig()
        with pytest.raises(ValueError):
            compute_reward(1.5, 0.0, 10, config)
        with pytest.raises(ValueError):
            compute_reward(0.5, -0.1, 10, config)
        with pytest.raises(ValueError):
            compute_reward(0.5, 0.1, -10, config)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            RewardConfig(alpha=-1)
        with pytest.raises(ValueError):
            RewardConfig(timing_constraint_ms=0)
        with pytest.raises(ValueError):
            RewardConfig(accuracy_constraint=2.0)

    def test_reward_is_valid_helper(self):
        assert not reward_is_valid(INVALID_REWARD)
        assert reward_is_valid(0.0)


class TestController:
    def _controller(self, num_positions=3, hidden=16, seed=0):
        space = SearchSpace()
        return space, LSTMController(space, make_positions(num_positions), hidden, rng=seed)

    def test_sample_structure(self):
        space, controller = self._controller()
        sample = controller.sample(rng=0)
        assert len(sample.decisions) == 3
        assert len(sample.decision_indices) == 3
        assert all(len(step) == 4 for step in sample.decision_indices)
        assert sample.num_steps == 12

    def test_sample_log_prob_negative(self):
        _, controller = self._controller()
        assert controller.sample(rng=0).log_prob < 0

    def test_sample_is_deterministic_given_rng(self):
        _, controller = self._controller()
        a = controller.sample(rng=42)
        b = controller.sample(rng=42)
        assert a.decision_indices == b.decision_indices

    def test_greedy_sampling_picks_argmax(self):
        _, controller = self._controller()
        greedy1 = controller.sample(rng=0, greedy=True)
        greedy2 = controller.sample(rng=99, greedy=True)
        assert greedy1.decision_indices == greedy2.decision_indices

    def test_decisions_valid_for_stride(self):
        space, controller = self._controller(num_positions=4)
        sample = controller.sample(rng=1)
        for position, decision in zip(controller.positions, sample.decisions):
            assert decision.block_type in space.type_choices(position.stride)

    def test_log_prob_of_matches_sample(self):
        _, controller = self._controller()
        sample = controller.sample(rng=3)
        assert controller.log_prob_of(sample) == pytest.approx(sample.log_prob, abs=1e-9)

    def test_parameters_exposed(self):
        _, controller = self._controller()
        params = controller.parameters()
        assert len(params) == 3 + 2 * 5  # embedding, lstm W/b, 5 heads x (W, b)

    def test_invalid_construction(self):
        space = SearchSpace()
        with pytest.raises(ValueError):
            LSTMController(space, [], hidden_size=8)
        with pytest.raises(ValueError):
            LSTMController(space, make_positions(1), hidden_size=0)

    def test_temperature_must_be_positive(self):
        _, controller = self._controller()
        with pytest.raises(ValueError):
            controller.sample(temperature=0.0)

    def test_nan_probabilities_are_an_error(self):
        """A diverged head must not quietly sample its first choice."""
        _, controller = self._controller()
        for weight, _ in controller._heads.values():
            weight.data[:] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            controller.sample(rng=0)

    def test_log_prob_gradient_matches_numeric(self):
        """BPTT gradient of sum_t log pi(a_t) checked against finite differences."""
        _, controller = self._controller(num_positions=2, hidden=8, seed=1)
        sample = controller.sample(rng=0)
        coeffs = [1.0] * sample.num_steps
        controller.zero_grad()
        controller.accumulate_log_prob_gradient(sample, coeffs)
        eps = 1e-6
        for param in (controller.lstm_weight, controller.embedding):
            flat_index = 3
            idx = np.unravel_index(flat_index, param.data.shape)
            original = param.data[idx]
            param.data[idx] = original + eps
            plus = controller.log_prob_of(sample)
            param.data[idx] = original - eps
            minus = controller.log_prob_of(sample)
            param.data[idx] = original
            numeric = (plus - minus) / (2 * eps)
            assert abs(numeric - param.grad[idx]) < 1e-4, param.name

    def test_coefficient_length_mismatch_raises(self):
        _, controller = self._controller()
        sample = controller.sample(rng=0)
        with pytest.raises(ValueError):
            controller.accumulate_log_prob_gradient(sample, [1.0])


class TestPolicyGradient:
    def test_baseline_ema(self):
        _, controller = TestController()._controller()
        trainer = PolicyGradientTrainer(
            controller, PolicyGradientConfig(baseline_decay=0.5)
        )
        trainer.update_baseline(1.0)
        trainer.update_baseline(0.0)
        assert trainer.baseline == pytest.approx(0.5)

    def test_observe_applies_update_every_batch(self):
        _, controller = TestController()._controller(hidden=8)
        trainer = PolicyGradientTrainer(
            controller, PolicyGradientConfig(batch_episodes=1, learning_rate=0.05)
        )
        before = controller.lstm_weight.data.copy()
        sample = controller.sample(rng=0)
        trainer.observe(sample, reward=1.0)
        assert not np.allclose(before, controller.lstm_weight.data)

    def test_policy_gradient_increases_probability_of_rewarded_action(self):
        """REINFORCE sanity: repeatedly rewarding one sampled architecture
        should increase its log-probability under the policy."""
        _, controller = TestController()._controller(num_positions=2, hidden=8, seed=0)
        trainer = PolicyGradientTrainer(
            controller,
            PolicyGradientConfig(learning_rate=0.05, baseline_decay=0.0, batch_episodes=1),
        )
        target = controller.sample(rng=1)
        initial = controller.log_prob_of(target)
        for _ in range(10):
            trainer.observe(target, reward=1.0)
        assert controller.log_prob_of(target) > initial

    def test_step_coefficients_discounting(self):
        _, controller = TestController()._controller(num_positions=1)
        trainer = PolicyGradientTrainer(controller, PolicyGradientConfig(discount=0.5))
        sample = controller.sample(rng=0)
        coeffs = trainer._step_coefficients(sample, advantage=1.0)
        assert coeffs[-1] == pytest.approx(1.0)
        assert coeffs[0] == pytest.approx(0.5 ** (sample.num_steps - 1))

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            PolicyGradientConfig(learning_rate=0)
        with pytest.raises(ValueError):
            PolicyGradientConfig(discount=0)
        with pytest.raises(ValueError):
            PolicyGradientConfig(baseline_decay=1.0)
        with pytest.raises(ValueError):
            PolicyGradientConfig(batch_episodes=0)
