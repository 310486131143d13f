"""Tests for freezing, the producer, the evaluator and the full search loop."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    BackboneProducer,
    ChildEvaluator,
    EvaluationConfig,
    FaHaNaConfig,
    FaHaNaSearch,
    MonasConfig,
    MonasSearch,
    ProducerConfig,
    RewardConfig,
    SearchSpace,
    feature_variation,
    find_split_point,
)
from repro.core.freezing import analyse_model_freezing
from repro.core.producer import _copy_batchnorm_statistics
from repro.core.results import EpisodeRecord, SearchHistory
from repro.core.reward import INVALID_REWARD
from repro.hardware.constraints import DesignSpec, HardwareSpec, SoftwareSpec
from repro.hardware.latency import LatencyEstimator
from repro.hardware.device import RASPBERRY_PI_4
from repro.nn.trainer import TrainingConfig


@pytest.fixture()
def producer(tiny_splits, tiny_backbone):
    config = ProducerConfig(
        backbone=tiny_backbone,
        freeze=True,
        gamma=0.5,
        pretrain_epochs=1,
        width_multiplier=0.5,
    )
    producer = BackboneProducer(
        dataset=tiny_splits.train,
        config=config,
        trainer_config=TrainingConfig(epochs=1, batch_size=8, seed=0),
        rng=0,
    )
    producer.prepare()
    return producer


class TestFreezing:
    def test_feature_variation_zero_for_identical_features(self, rng):
        features = [rng.normal(size=(4, 8, 5, 5)) for _ in range(3)]
        variations = feature_variation(features, [f.copy() for f in features])
        assert all(v == pytest.approx(0.0, abs=1e-12) for v in variations)

    def test_feature_variation_positive_for_different_features(self, rng):
        a = [rng.normal(size=(4, 8, 5, 5))]
        b = [rng.normal(size=(4, 8, 5, 5))]
        assert feature_variation(a, b)[0] > 0

    def test_feature_variation_scale_invariant(self, rng):
        a = [rng.normal(size=(4, 8, 5, 5))]
        b = [2.0 * a[0]]
        # pure amplitude difference -> (near) zero pattern variation
        assert feature_variation(a, b)[0] == pytest.approx(0.0, abs=1e-9)

    def test_feature_variation_length_mismatch(self, rng):
        with pytest.raises(ValueError):
            feature_variation([rng.normal(size=(2, 2))], [])

    def test_find_split_point_first_exceeding_threshold(self):
        variations = [0.1, 0.2, 0.8, 0.9]
        assert find_split_point(variations, gamma=0.5) == 2

    def test_find_split_point_gamma_one_selects_max(self):
        variations = [0.1, 0.2, 0.9, 0.3]
        assert find_split_point(variations, gamma=1.0) == 2

    def test_find_split_point_invalid(self):
        with pytest.raises(ValueError):
            find_split_point([], gamma=0.5)
        with pytest.raises(ValueError):
            find_split_point([0.1], gamma=0.0)

    def test_analysis_on_model(self, tiny_splits, tiny_backbone):
        model = tiny_backbone.build(num_classes=5, width_multiplier=0.5, rng=0)
        analysis = analyse_model_freezing(
            model, tiny_splits.train, gamma=0.5, num_stages=1 + len(tiny_backbone.blocks)
        )
        assert len(analysis.variations) == 1 + len(tiny_backbone.blocks)
        assert 0 <= analysis.split_index < len(analysis.variations)
        assert analysis.threshold == pytest.approx(0.5 * max(analysis.variations))
        assert "frozen" in analysis.describe() or "searchable" in analysis.describe()


class TestProducer:
    def test_positions_cover_searchable_tail(self, producer, tiny_backbone):
        assert len(producer.positions) == len(tiny_backbone.blocks) - producer.split_block
        strides = [p.stride for p in producer.positions]
        expected = [b.stride for b in tiny_backbone.blocks[producer.split_block:]]
        assert strides == expected

    def test_space_size_reduced_by_freezing(self, producer):
        assert producer.space_size() <= producer.full_space_size()

    def test_produce_child_descriptor_consistency(self, producer):
        space = producer.search_space
        decisions = [
            space.decode(p.stride, [0, 0, 1, 1]) for p in producer.positions
        ]
        child = producer.produce(decisions, rng=0)
        # the frozen prefix of the child matches the backbone exactly
        frozen = producer.frozen_block_specs()
        assert child.descriptor.blocks[: len(frozen)] == frozen
        assert len(child.descriptor.blocks) == len(producer.backbone.blocks)

    def test_produce_wrong_decision_count_raises(self, producer):
        with pytest.raises(ValueError):
            producer.produce([])

    def test_child_frozen_parameters_marked(self, producer):
        space = producer.search_space
        decisions = [space.decode(p.stride, [0, 0, 0, 0]) for p in producer.positions]
        child = producer.produce(decisions, rng=0)
        if producer.split_block > 0:
            assert child.num_frozen_parameters > 0
        total = child.model.num_parameters()
        trainable = child.model.num_parameters(trainable_only=True)
        assert total - trainable >= child.num_frozen_parameters - total * 0  # frozen params not trainable

    def test_child_frozen_weights_equal_backbone(self, producer):
        space = producer.search_space
        decisions = [space.decode(p.stride, [0, 0, 0, 0]) for p in producer.positions]
        child = producer.produce(decisions, rng=0)
        backbone_model = producer._backbone_model
        # stage 0 (stem) is always part of the frozen prefix when freezing
        source_state = backbone_model[0].state_dict()
        target_state = child.model[0].state_dict()
        for key in source_state:
            np.testing.assert_allclose(source_state[key], target_state[key])

    def test_each_child_owns_a_copy_of_the_frozen_prefix(self, producer):
        space = producer.search_space
        first = producer.produce(
            [space.decode(p.stride, [0, 0, 0, 0]) for p in producer.positions], rng=0
        )
        second = producer.produce(
            [space.decode(p.stride, [1, 1, 1, 1]) for p in producer.positions], rng=1
        )
        backbone = producer.backbone_model
        for index in range(1 + producer.split_block):
            stages = (first.model[index], second.model[index], backbone[index])
            assert len({id(stage) for stage in stages}) == 3
            params = [stage.parameters() for stage in stages]
            for a, b, source in zip(*params):
                assert not a.trainable and not b.trainable
                # The children share one read-only array per frozen weight,
                # a copy of the backbone's.
                assert a is not b and a.data is b.data
                assert not a.data.flags.writeable
                assert not np.shares_memory(a.data, source.data)
                assert a.data.tobytes() == source.data.tobytes()
        assert first.num_frozen_parameters == second.num_frozen_parameters > 0

    def test_child_model_forward(self, producer, tiny_splits):
        space = producer.search_space
        decisions = [space.decode(p.stride, [0, 0, 1, 2]) for p in producer.positions]
        child = producer.produce(decisions, rng=0)
        out = child.model.forward(tiny_splits.train.images[:2])
        assert out.shape == (2, 5)

    def test_max_searchable_caps_positions(self, tiny_splits, tiny_backbone):
        config = ProducerConfig(
            backbone=tiny_backbone,
            freeze=True,
            pretrain_epochs=0,
            width_multiplier=0.5,
            max_searchable=2,
        )
        producer = BackboneProducer(
            dataset=tiny_splits.train, config=config,
            trainer_config=TrainingConfig(epochs=0, seed=0), rng=0,
        )
        producer.prepare()
        assert len(producer.positions) <= 2

    def test_no_freeze_mode_searches_everything(self, tiny_splits, tiny_backbone):
        config = ProducerConfig(backbone=tiny_backbone, freeze=False, width_multiplier=0.5)
        producer = BackboneProducer(
            dataset=tiny_splits.train, config=config,
            trainer_config=TrainingConfig(epochs=0, seed=0), rng=0,
        )
        producer.prepare()
        assert len(producer.positions) == len(tiny_backbone.blocks)
        assert producer.analysis is None
        assert producer.space_size() == producer.full_space_size()

    def test_backbone_by_name(self, tiny_splits):
        config = ProducerConfig(
            backbone="MobileNetV2", freeze=False, width_multiplier=0.25
        )
        producer = BackboneProducer(
            dataset=tiny_splits.train, config=config,
            trainer_config=TrainingConfig(epochs=0, seed=0), rng=0,
        )
        producer.prepare()
        assert producer.backbone.name == "MobileNetV2"

    def test_copy_batchnorm_statistics_mismatch_raises(self, tiny_backbone):
        model_a = tiny_backbone.build(rng=0)
        from repro.nn import Sequential, ReLU

        with pytest.raises(ValueError):
            _copy_batchnorm_statistics(model_a, Sequential(ReLU()))

    def test_invalid_producer_config(self):
        with pytest.raises(ValueError):
            ProducerConfig(gamma=0.0)
        with pytest.raises(ValueError):
            ProducerConfig(width_multiplier=0)
        with pytest.raises(ValueError):
            ProducerConfig(max_searchable=0)


class TestEvaluator:
    def _evaluator(self, tiny_splits, timing_constraint_ms=1e9, bypass=True, epochs=1):
        estimator = LatencyEstimator(RASPBERRY_PI_4, resolution=224)
        config = EvaluationConfig(
            reward=RewardConfig(timing_constraint_ms=timing_constraint_ms),
            training=TrainingConfig(epochs=epochs, batch_size=8, seed=0),
            bypass_invalid=bypass,
        )
        return ChildEvaluator(
            tiny_splits.train, tiny_splits.validation, estimator, config
        )

    def _child(self, producer):
        space = producer.search_space
        decisions = [space.decode(p.stride, [0, 0, 0, 0]) for p in producer.positions]
        return producer.produce(decisions, rng=0)

    def test_valid_child_is_trained_and_scored(self, producer, tiny_splits):
        evaluator = self._evaluator(tiny_splits)
        result = evaluator.evaluate(self._child(producer))
        assert result.trained
        assert 0.0 <= result.accuracy <= 1.0
        assert result.unfairness >= 0.0
        assert result.reward == pytest.approx(result.accuracy - result.unfairness)
        assert set(result.group_accuracy) == {"light", "dark"}

    def test_latency_violation_bypasses_training(self, producer, tiny_splits):
        evaluator = self._evaluator(tiny_splits, timing_constraint_ms=0.001)
        result = evaluator.evaluate(self._child(producer))
        assert not result.trained
        assert result.reward == INVALID_REWARD
        assert result.train_seconds == 0.0

    def test_monas_style_no_bypass_still_trains(self, producer, tiny_splits):
        evaluator = self._evaluator(tiny_splits, timing_constraint_ms=0.001, bypass=False)
        result = evaluator.evaluate(self._child(producer))
        assert result.trained
        assert result.reward == INVALID_REWARD

    def test_empty_dataset_rejected(self, tiny_splits):
        estimator = LatencyEstimator(RASPBERRY_PI_4)
        empty = tiny_splits.train.subset([])
        with pytest.raises(ValueError):
            ChildEvaluator(empty, tiny_splits.validation, estimator)


class TestSearchHistory:
    def _record(self, episode, reward, params=1000, trained=True, unfairness=0.1, accuracy=0.5):
        from repro.blocks.spec import BlockSpec, ClassifierSpec, StemSpec
        from repro.zoo.descriptors import ArchitectureDescriptor, HeadSpec

        descriptor = ArchitectureDescriptor(
            name=f"net{episode}",
            stem=StemSpec(3, 8),
            blocks=(BlockSpec("DB", 8, 8, 8),),
            head=HeadSpec(8, 8),
            classifier=ClassifierSpec(8, 5),
        )
        return EpisodeRecord(
            episode=episode,
            descriptor=descriptor,
            decisions=["DB 8,8,8,3"],
            reward=reward,
            accuracy=accuracy,
            unfairness=unfairness,
            latency_ms=10.0,
            storage_mb=0.1,
            num_parameters=params,
            trained=trained,
        )

    def test_valid_ratio(self):
        history = SearchHistory()
        history.append(self._record(0, 0.5))
        history.append(self._record(1, INVALID_REWARD, trained=False))
        assert history.valid_ratio() == 0.5

    def test_best_and_fairest_and_smallest(self):
        history = SearchHistory()
        history.append(self._record(0, 0.5, params=2000, unfairness=0.3))
        history.append(self._record(1, 0.7, params=5000, unfairness=0.1))
        history.append(self._record(2, INVALID_REWARD, trained=False))
        assert history.best_record().episode == 1
        assert history.fairest_record().episode == 1
        assert history.smallest_record().episode == 0

    def test_empty_history_statistics(self):
        history = SearchHistory()
        assert history.valid_ratio() == 0.0
        assert history.best_record() is None
        assert history.fairest_record() is None

    def test_best_reward_so_far_monotone(self):
        history = SearchHistory()
        for episode, reward in enumerate([0.1, 0.5, 0.2, 0.7]):
            history.append(self._record(episode, reward))
        trajectory = history.best_reward_so_far()
        assert trajectory == sorted(trajectory)

    def test_pareto_fronts(self):
        history = SearchHistory()
        history.append(self._record(0, 0.4, params=1000, accuracy=0.5, unfairness=0.05))
        history.append(self._record(1, 0.5, params=2000, accuracy=0.6, unfairness=0.1))
        history.append(self._record(2, 0.3, params=3000, accuracy=0.4, unfairness=0.3))
        front = history.pareto_accuracy_fairness()
        assert {r.episode for r in front} == {0, 1}
        size_front = history.pareto_reward_size()
        assert {r.episode for r in size_front} == {0, 1}

    def test_top_k(self):
        history = SearchHistory()
        for episode, reward in enumerate([0.1, 0.9, 0.5]):
            history.append(self._record(episode, reward))
        assert [r.episode for r in history.top_k(2)] == [1, 2]
        with pytest.raises(ValueError):
            history.top_k(0)

    def test_summary_keys(self):
        history = SearchHistory(space_size=1e9, full_space_size=1e19)
        history.append(self._record(0, 0.5))
        summary = history.summary()
        assert summary["space_size"] == 1e9
        assert summary["best_reward"] == 0.5


class TestSearchIntegration:
    def _config(self, tiny_backbone, episodes=3, freeze=True):
        producer = ProducerConfig(
            backbone=tiny_backbone,
            freeze=freeze,
            pretrain_epochs=1,
            width_multiplier=0.5,
        )
        return FaHaNaConfig(
            episodes=episodes,
            seed=0,
            producer=producer,
            child_training=TrainingConfig(epochs=1, batch_size=8, seed=0),
        )

    def _design_spec(self, tc=1e6):
        return DesignSpec(
            hardware=HardwareSpec(timing_constraint_ms=tc),
            software=SoftwareSpec(accuracy_constraint=0.0),
        )

    def test_fahana_search_runs(self, tiny_splits, tiny_backbone):
        search = FaHaNaSearch(
            tiny_splits.train,
            tiny_splits.validation,
            self._design_spec(),
            self._config(tiny_backbone),
        )
        result = search.run()
        assert len(result.history) == 3
        assert result.history.space_size > 0
        assert result.freezing_analysis is not None
        assert result.best is not None
        assert result.summary()

    def test_fahana_history_records_are_consistent(self, tiny_splits, tiny_backbone):
        search = FaHaNaSearch(
            tiny_splits.train,
            tiny_splits.validation,
            self._design_spec(),
            self._config(tiny_backbone, episodes=2),
        )
        result = search.run()
        for record in result.history.records:
            assert record.num_parameters > 0
            assert record.latency_ms > 0
            assert record.descriptor.blocks

    def test_tight_constraint_produces_invalid_children(self, tiny_splits, tiny_backbone):
        search = FaHaNaSearch(
            tiny_splits.train,
            tiny_splits.validation,
            self._design_spec(tc=0.001),
            self._config(tiny_backbone, episodes=2),
        )
        result = search.run()
        assert result.history.valid_ratio() == 0.0
        assert result.best is None

    def test_monas_search_uses_full_space(self, tiny_splits, tiny_backbone):
        producer = ProducerConfig(backbone=tiny_backbone, width_multiplier=0.5)
        config = MonasConfig(
            episodes=2,
            seed=0,
            producer=producer,
            child_training=TrainingConfig(epochs=1, batch_size=8, seed=0),
        )
        search = MonasSearch(
            tiny_splits.train, tiny_splits.validation, self._design_spec(), config
        )
        result = search.run()
        assert result.history.space_size == result.history.full_space_size
        assert result.history.frozen_blocks == 0
        assert all(record.trained for record in result.history.records)

    def test_fahana_space_smaller_than_monas(self, tiny_splits, tiny_backbone):
        fahana = FaHaNaSearch(
            tiny_splits.train,
            tiny_splits.validation,
            self._design_spec(),
            self._config(tiny_backbone, episodes=1),
        )
        assert fahana.producer.space_size() <= fahana.producer.full_space_size()

    def test_invalid_fahana_config(self):
        with pytest.raises(ValueError):
            FaHaNaConfig(episodes=0)
        with pytest.raises(ValueError):
            FaHaNaConfig(alpha=-1)
