"""Tests for the engine subsystem: cache keys, memoization, worker pools,
deterministic parallel execution and checkpoint/resume."""

from __future__ import annotations

import dataclasses
import json
import os
import time
import zlib

import numpy as np
import pytest

import repro
from repro.api import RunSpec, SearchParams
from repro.blocks.spec import BlockSpec, ClassifierSpec, StemSpec
from repro.core import FaHaNaConfig, FaHaNaSearch, ProducerConfig
from repro.core.evaluator import EvaluationResult
from repro.core.pipeline import FidelityConfig, PipelineSettings
from repro.core.policy import PolicyGradientConfig
from repro.core.results import EpisodeRecord, SearchHistory
from repro.core.reward import INVALID_REWARD
from repro.engine import (
    EngineConfig,
    EvaluationCache,
    SearchEngine,
    create_pool,
    has_checkpoint,
    load_checkpoint,
    resolve_engine_config,
    save_checkpoint,
    set_default_engine_config,
)
from repro.engine.cache import SharedCacheTier
from repro.engine.checkpoint import CHECKPOINT_JOURNAL, checkpoint_paths
from repro.engine.serde import (
    descriptor_from_dict,
    descriptor_to_dict,
    history_to_dict,
    record_to_dict,
    result_to_dict,
    rng_state_to_dict,
)
from repro.hardware.constraints import DesignSpec, HardwareSpec, SoftwareSpec
from repro.nn.trainer import TrainingConfig
from repro.store import LocalStore, TieredStore
from repro.utils.serialization import (
    load_json,
    load_state_dict,
    save_json,
)
from repro.zoo.descriptors import ArchitectureDescriptor, HeadSpec


def _make_descriptor(kernel: int = 3, name: str = "net") -> ArchitectureDescriptor:
    return ArchitectureDescriptor(
        name=name,
        stem=StemSpec(ch_in=3, ch_out=8),
        blocks=(BlockSpec("DB", 8, 16, 8, kernel=kernel),),
        head=HeadSpec(8, 16),
        classifier=ClassifierSpec(16, 5),
    )


def _make_result(reward: float = 0.5) -> EvaluationResult:
    return EvaluationResult(
        latency_ms=10.0,
        storage_mb=0.1,
        num_parameters=1000,
        trained=True,
        accuracy=0.8,
        unfairness=0.3,
        group_accuracy={"light": 0.9, "dark": 0.6},
        reward=reward,
        meets_timing=True,
        meets_accuracy=True,
        train_seconds=1.0,
    )


class TestCacheKey:
    def test_deterministic_across_instances(self):
        assert _make_descriptor().cache_key() == _make_descriptor().cache_key()

    def test_name_and_family_do_not_matter(self):
        a = _make_descriptor(name="a")
        b = _make_descriptor(name="b")
        assert a.cache_key() == b.cache_key()

    def test_structural_change_changes_key(self):
        assert _make_descriptor(kernel=3).cache_key() != _make_descriptor(kernel=5).cache_key()

    def test_block_spec_key_sensitivity(self):
        base = BlockSpec("DB", 8, 16, 8)
        assert base.cache_key() == BlockSpec("DB", 8, 16, 8).cache_key()
        assert base.cache_key() != BlockSpec("DB", 8, 32, 8).cache_key()
        assert base.cache_key() != BlockSpec("CB", 8, 16, 8).cache_key()

    def test_no_collisions_across_search_space_corner(self):
        # A small combinatorial sweep: all keys must be distinct.
        keys = set()
        count = 0
        for block_type in ("DB", "RB", "CB"):
            for kernel in (3, 5):
                for ch_mid in (16, 32):
                    for ch_out in (8, 24):
                        spec = BlockSpec(block_type, 8, ch_mid, ch_out, kernel=kernel)
                        keys.add(spec.cache_key())
                        count += 1
        assert len(keys) == count

    def test_descriptor_serde_roundtrip(self):
        descriptor = _make_descriptor(kernel=5)
        rebuilt = descriptor_from_dict(descriptor_to_dict(descriptor))
        assert rebuilt == descriptor
        assert rebuilt.cache_key() == descriptor.cache_key()


class TestEvaluationCache:
    def test_miss_then_hit(self):
        cache = EvaluationCache(capacity=4)
        assert cache.get("k") is None
        cache.put("k", _make_result())
        assert cache.get("k").reward == 0.5
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_lru_eviction(self):
        cache = EvaluationCache(capacity=2)
        cache.put("a", _make_result(0.1))
        cache.put("b", _make_result(0.2))
        cache.get("a")  # refresh a; b becomes the eviction candidate
        cache.put("c", _make_result(0.3))
        assert cache.get("b") is None
        assert cache.get("a") is not None
        assert cache.get("c") is not None

    def test_disk_persistence_roundtrip(self, tmp_path):
        root = str(tmp_path / "store")

        def cache_over_store() -> EvaluationCache:
            tier = SharedCacheTier(TieredStore(local=LocalStore(root)))
            return EvaluationCache(capacity=4, tier=tier)

        key = "deadbeef" * 8
        cache_over_store().put(key, _make_result(0.7))
        # A second cache over the same store root serves the entry from disk.
        entry = cache_over_store().get(key)
        assert entry is not None
        assert entry.reward == pytest.approx(0.7)
        assert entry.group_accuracy == {"light": 0.9, "dark": 0.6}

    def test_snapshot_restore(self):
        cache = EvaluationCache(capacity=4)
        cache.put("a", _make_result(0.1))
        cache.put("b", _make_result(0.2))
        snapshot = cache.snapshot()
        other = EvaluationCache(capacity=4)
        other.restore(snapshot)
        assert other.get("a").reward == pytest.approx(0.1)
        assert other.get("b").reward == pytest.approx(0.2)


def _square(x: int) -> int:
    return x * x


class TestWorkerPools:
    def test_serial_pool_order_and_label(self):
        pool = create_pool("serial")
        results = pool.map_ordered(_square, [1, 2, 3])
        assert [value for value, _ in results] == [1, 4, 9]
        assert all(worker == "serial-0" for _, worker in results)

    def test_thread_pool_preserves_submission_order(self):
        def slow_square(x: int) -> int:
            time.sleep(0.02 if x % 2 == 0 else 0.0)  # jitter the completion order
            return x * x

        with create_pool("thread", num_workers=3) as pool:
            results = pool.map_ordered(slow_square, list(range(6)))
        assert [value for value, _ in results] == [x * x for x in range(6)]
        assert all("engine-worker" in worker for _, worker in results)

    def test_process_pool_roundtrip(self):
        with create_pool("process", num_workers=2) as pool:
            results = pool.map_ordered(_square, [2, 3])
        assert [value for value, _ in results] == [4, 9]
        assert all(worker.startswith("process-") for _, worker in results)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            create_pool("quantum")


def _search(
    tiny_splits,
    tiny_backbone,
    episodes=4,
    policy_batch=1,
    seed=0,
    timing_constraint_ms=1e6,
    **config_kwargs,
):
    config = FaHaNaConfig(
        episodes=episodes,
        seed=seed,
        producer=ProducerConfig(
            backbone=tiny_backbone,
            freeze=True,
            pretrain_epochs=1,
            width_multiplier=0.5,
        ),
        policy=PolicyGradientConfig(batch_episodes=policy_batch),
        child_training=TrainingConfig(epochs=1, batch_size=8, seed=0),
        **config_kwargs,
    )
    spec = DesignSpec(
        hardware=HardwareSpec(timing_constraint_ms=timing_constraint_ms),
        software=SoftwareSpec(accuracy_constraint=0.0),
    )
    return FaHaNaSearch(tiny_splits.train, tiny_splits.validation, spec, config)


def _reference_sequential_rewards(search, episodes):
    """The seed repository's original loop, inlined as the parity reference."""
    rewards = []
    for _ in range(episodes):
        sample = search.controller.sample(rng=search._sample_rng)
        child = search.producer.produce(sample.decisions, rng=search._child_rng)
        evaluation = search.evaluator.evaluate(child)
        search.policy_trainer.observe(sample, evaluation.reward)
        rewards.append(evaluation.reward)
    search.policy_trainer.apply_update()
    return rewards


def _spy_produce(search):
    """Record the descriptor of every child the producer builds."""
    built = []
    original = search.producer.produce

    def produce(decisions, **kwargs):
        child = original(decisions, **kwargs)
        built.append(child.descriptor)
        return child

    search.producer.produce = produce
    return built


def _duplicate_samples(search):
    """Make the controller propose its first sample over and over."""
    original = search.controller.sample
    memo = {}

    def duplicated_sample(rng=None, **kwargs):
        if "sample" not in memo:
            memo["sample"] = original(rng=rng, **kwargs)
        return memo["sample"]

    search.controller.sample = duplicated_sample


class TestEngineDeterminism:
    def test_thread_backend_reproduces_sequential_rewards(self, tiny_splits, tiny_backbone):
        episodes, batch = 4, 4
        reference = _reference_sequential_rewards(
            _search(tiny_splits, tiny_backbone, episodes, policy_batch=batch), episodes
        )
        engine = SearchEngine(
            _search(tiny_splits, tiny_backbone, episodes, policy_batch=batch),
            EngineConfig(backend="thread", num_workers=2, batch_episodes=batch),
        )
        result = engine.run()
        assert result.history.reward_trajectory() == reference
        workers = {r.worker for r in result.history.records}
        assert all("engine-worker" in w for w in workers)

    def test_serial_and_thread_backends_equivalent(self, tiny_splits, tiny_backbone):
        episodes, batch = 4, 2
        serial = SearchEngine(
            _search(tiny_splits, tiny_backbone, episodes, policy_batch=batch),
            EngineConfig(backend="serial", batch_episodes=batch),
        ).run()
        threaded = SearchEngine(
            _search(tiny_splits, tiny_backbone, episodes, policy_batch=batch),
            EngineConfig(backend="thread", num_workers=2, batch_episodes=batch),
        ).run()
        assert serial.history.reward_trajectory() == threaded.history.reward_trajectory()
        assert [r.decisions for r in serial.history.records] == [
            r.decisions for r in threaded.history.records
        ]
        assert [r.descriptor for r in serial.history.records] == [
            r.descriptor for r in threaded.history.records
        ]

    def test_fahana_run_still_matches_reference_loop(self, tiny_splits, tiny_backbone):
        episodes = 3
        reference = _reference_sequential_rewards(
            _search(tiny_splits, tiny_backbone, episodes), episodes
        )
        result = _search(tiny_splits, tiny_backbone, episodes).run()
        assert result.history.reward_trajectory() == reference


class TestEngineCache:
    def test_warm_cache_skips_training(self, tiny_splits, tiny_backbone):
        episodes = 3
        cache = EvaluationCache(capacity=64)
        cold = SearchEngine(
            _search(tiny_splits, tiny_backbone, episodes),
            EngineConfig(use_cache=True, cache=cache),
        )
        cold_result = cold.run()
        assert cold.evaluations_run > 0

        # An identically seeded search replays the same descriptors: every
        # episode must come from the cache, with no training at all.
        warm = SearchEngine(
            _search(tiny_splits, tiny_backbone, episodes),
            EngineConfig(use_cache=True, cache=cache),
        )
        warm_result = warm.run()
        assert warm.evaluations_run == 0
        assert all(record.cache_hit for record in warm_result.history.records)
        assert all(record.worker == "cache" for record in warm_result.history.records)
        assert (
            warm_result.history.reward_trajectory()
            == cold_result.history.reward_trajectory()
        )
        # Provenance: the cold run trained, the warm run did not re-train.
        assert any(r.trained and not r.cache_hit for r in cold_result.history.records)

    def test_cache_events_emitted(self, tiny_splits, tiny_backbone):
        cache = EvaluationCache(capacity=64)
        SearchEngine(
            _search(tiny_splits, tiny_backbone, 2),
            EngineConfig(use_cache=True, cache=cache),
        ).run()
        engine = SearchEngine(
            _search(tiny_splits, tiny_backbone, 2),
            EngineConfig(use_cache=True, cache=cache),
        )
        seen = []
        engine.events.subscribe(lambda e: seen.append(e.kind), kinds=["cache-hit"])
        engine.run()
        assert seen == ["cache-hit", "cache-hit"]

    def test_context_changes_cache_key(self, tiny_splits, tiny_backbone):
        descriptor = _make_descriptor()
        engine_a = SearchEngine(
            _search(tiny_splits, tiny_backbone, 1), EngineConfig(use_cache=True)
        )
        # A different timing constraint is a different evaluation context.
        other = _search(tiny_splits, tiny_backbone, 1)
        other.evaluator.config.reward = dataclasses.replace(
            other.evaluator.config.reward, timing_constraint_ms=123.0
        )
        engine_b = SearchEngine(other, EngineConfig(use_cache=True))
        assert engine_a.child_cache_key(descriptor) != engine_b.child_cache_key(descriptor)

    def test_group_labels_are_part_of_the_context(self, tiny_splits, tiny_backbone):
        from repro.data.dataset import GroupedDataset

        descriptor = _make_descriptor()
        engine_a = SearchEngine(
            _search(tiny_splits, tiny_backbone, 1), EngineConfig(use_cache=True)
        )
        # Same images and labels, different demographic group assignment:
        # unfairness (and hence reward) would differ, so the key must too.
        regrouped = _search(tiny_splits, tiny_backbone, 1)
        validation = regrouped.validation_dataset
        regrouped.validation_dataset = GroupedDataset(
            images=validation.images,
            labels=validation.labels,
            groups=1 - validation.groups,
            group_names=validation.group_names,
        )
        engine_b = SearchEngine(regrouped, EngineConfig(use_cache=True))
        assert engine_a.child_cache_key(descriptor) != engine_b.child_cache_key(descriptor)

    def test_intra_wave_duplicates_train_once(self, tiny_splits, tiny_backbone):
        search = _search(tiny_splits, tiny_backbone, 2, policy_batch=2)
        # Force the controller to propose the same child twice in one wave.
        _duplicate_samples(search)
        engine = SearchEngine(search, EngineConfig(use_cache=True, batch_episodes=2))
        result = engine.run()
        assert engine.evaluations_run == 1
        records = result.history.records
        assert not records[0].cache_hit and records[1].cache_hit
        assert records[0].reward == records[1].reward

    def test_context_key_is_lazy(self, tiny_splits, tiny_backbone):
        engine = SearchEngine(_search(tiny_splits, tiny_backbone, 1), EngineConfig())
        assert engine._context_key is None  # nothing hashed on the no-cache path
        assert engine.context_key == engine.context_key  # computed once on demand
        assert engine._context_key is not None

    def test_backbone_pretraining_is_part_of_the_context(self, tiny_splits, tiny_backbone):
        descriptor = _make_descriptor()
        keys = []
        for pretrain_epochs in (1, 2):
            config = FaHaNaConfig(
                episodes=1,
                seed=0,
                producer=ProducerConfig(
                    backbone=tiny_backbone,
                    freeze=True,
                    pretrain_epochs=pretrain_epochs,
                    width_multiplier=0.5,
                ),
                child_training=TrainingConfig(epochs=1, batch_size=8, seed=0),
            )
            search = FaHaNaSearch(tiny_splits.train, tiny_splits.validation, None, config)
            engine = SearchEngine(search, EngineConfig(use_cache=True))
            keys.append(engine.child_cache_key(descriptor))
        # Different frozen-prefix weights -> different evaluation context.
        assert keys[0] != keys[1]


# Falls between the fixture's child latencies (~0.1 s to ~10 s on the default
# device), so a gated search rejects some children and trains the others.
# A run that rejects every child could not tell a missing child-RNG draw:
# the draws only matter to the children that are built.
GATED_MS = 1500.0


class TestPriceBeforeBuild:
    """Waves price children from their descriptors before building them."""

    episodes = 8

    def _gated(self, tiny_splits, tiny_backbone, **kwargs):
        return _search(
            tiny_splits,
            tiny_backbone,
            self.episodes,
            policy_batch=2,
            timing_constraint_ms=GATED_MS,
            **kwargs,
        )

    def test_rejected_children_are_never_built(self, tiny_splits, tiny_backbone):
        reference_search = self._gated(tiny_splits, tiny_backbone)
        reference = _reference_sequential_rewards(reference_search, self.episodes)

        search = self._gated(tiny_splits, tiny_backbone)
        built = _spy_produce(search)
        engine = SearchEngine(search, EngineConfig(batch_episodes=2))
        spans = []
        engine.events.subscribe(spans.append, kinds=["span"])
        result = engine.run()

        records = result.history.records
        rejected = [r for r in records if not r.trained]
        trained = [r for r in records if r.trained]
        assert rejected and trained, "the constraint must split the children"
        assert result.history.reward_trajectory() == reference
        assert (
            search._child_rng.bit_generator.state
            == reference_search._child_rng.bit_generator.state
        )
        # Exactly the children that trained were built, each within budget.
        assert [d.cache_key() for d in built] == [
            r.descriptor.cache_key() for r in trained
        ]
        pipeline = search.evaluator.pipeline
        assert all(pipeline.price(descriptor).passed for descriptor in built)
        # Rejections still count as evaluations: with the cache off, every
        # episode is one.
        assert engine.evaluations_run == self.episodes
        assert all(r.worker == "gate" for r in rejected)
        assert all(r.elapsed_seconds == 0.0 for r in rejected)
        assert all(r.reward == INVALID_REWARD for r in rejected)
        assert all(r.worker not in ("gate", "cache") for r in trained)
        train_episodes = {
            event.episode for event in spans if event.payload["name"] == "train"
        }
        assert train_episodes == {r.episode for r in trained}

    def test_cached_run_matches_a_run_that_builds_every_child(
        self, tiny_splits, tiny_backbone
    ):
        # With the gates advisory (bypass_invalid off) the engine builds and
        # trains every cache-missing child and scores the rejected ones -1
        # all the same: the counts, rewards and RNG streams must not differ.
        runs = []
        for bypass in (True, False):
            search = self._gated(tiny_splits, tiny_backbone)
            search.evaluator.config = dataclasses.replace(
                search.evaluator.config, bypass_invalid=bypass
            )
            built = _spy_produce(search)
            engine = SearchEngine(
                search, EngineConfig(use_cache=True, batch_episodes=2)
            )
            result = engine.run()
            runs.append((search, engine, result, built))
        (gated, gated_engine, gated_result, gated_built) = runs[0]
        (every, every_engine, every_result, every_built) = runs[1]

        assert len(gated_built) < len(every_built)
        assert gated_engine.evaluations_run == every_engine.evaluations_run
        assert (gated_engine.cache.hits, gated_engine.cache.misses) == (
            every_engine.cache.hits,
            every_engine.cache.misses,
        )
        assert (
            gated_result.history.reward_trajectory()
            == every_result.history.reward_trajectory()
        )
        assert [r.cache_hit for r in gated_result.history.records] == [
            r.cache_hit for r in every_result.history.records
        ]
        assert (
            gated._child_rng.bit_generator.state
            == every._child_rng.bit_generator.state
        )

    def test_serial_and_process_backends_agree(self, tiny_splits, tiny_backbone):
        runs = {}
        for backend in ("serial", "process"):
            search = self._gated(tiny_splits, tiny_backbone)
            engine = SearchEngine(
                search,
                EngineConfig(
                    backend=backend, num_workers=2, batch_episodes=2, use_cache=True
                ),
            )
            runs[backend] = (engine, engine.run().history.records, search)
        serial_engine, serial, serial_search = runs["serial"]
        process_engine, process, process_search = runs["process"]
        assert [r.reward for r in serial] == [r.reward for r in process]
        assert [r.decisions for r in serial] == [r.decisions for r in process]
        assert [r.cache_hit for r in serial] == [r.cache_hit for r in process]
        assert [r.worker == "gate" for r in serial] == [
            r.worker == "gate" for r in process
        ]
        assert any(r.worker == "gate" for r in serial)
        assert any(r.worker.startswith("process-") for r in process)
        assert serial_engine.evaluations_run == process_engine.evaluations_run
        assert (
            serial_search._child_rng.bit_generator.state
            == process_search._child_rng.bit_generator.state
        )

    def test_intra_wave_duplicate_rejection_evaluates_once(
        self, tiny_splits, tiny_backbone
    ):
        # A constraint no child meets: both proposals of the wave are rejected.
        reference_search = _search(
            tiny_splits, tiny_backbone, 2, policy_batch=2, timing_constraint_ms=1e-3
        )
        _duplicate_samples(reference_search)
        reference = _reference_sequential_rewards(reference_search, 2)

        search = _search(
            tiny_splits, tiny_backbone, 2, policy_batch=2, timing_constraint_ms=1e-3
        )
        _duplicate_samples(search)
        built = _spy_produce(search)
        pipeline = search.evaluator.pipeline
        priced = []
        original_price = pipeline.price

        def price(descriptor):
            priced.append(descriptor)
            return original_price(descriptor)

        pipeline.price = price
        engine = SearchEngine(search, EngineConfig(use_cache=True, batch_episodes=2))
        result = engine.run()

        assert engine.evaluations_run == 1
        assert len(priced) == 1
        assert built == []
        records = result.history.records
        assert [r.worker for r in records] == ["gate", "cache"]
        assert not records[0].cache_hit and records[1].cache_hit
        assert [r.reward for r in records] == reference == [INVALID_REWARD] * 2
        assert (engine.cache.hits, engine.cache.misses) == (0, 2)
        assert (
            search._child_rng.bit_generator.state
            == reference_search._child_rng.bit_generator.state
        )


    def test_staged_rejections_are_never_built(self, tiny_splits, tiny_backbone):
        ladder = PipelineSettings(
            fidelities=(
                FidelityConfig(
                    name="proxy", epochs=1, data_fraction=0.5, promote_fraction=0.5
                ),
                FidelityConfig(name="full"),
            )
        )
        runs = []
        for bypass in (True, False):
            search = self._gated(tiny_splits, tiny_backbone, pipeline=ladder)
            search.evaluator.config = dataclasses.replace(
                search.evaluator.config, bypass_invalid=bypass
            )
            built = _spy_produce(search)
            result = SearchEngine(search, EngineConfig(batch_episodes=2)).run()
            runs.append((search, result.history.records, built))
        (gated, gated_records, gated_built) = runs[0]
        (every, every_records, every_built) = runs[1]

        rejected = [r for r in gated_records if r.worker == "gate"]
        assert rejected and len(rejected) < len(gated_records)
        assert all(r.stages == ["gate:latency"] for r in rejected)
        assert [d.cache_key() for d in gated_built] == [
            r.descriptor.cache_key() for r in gated_records if r.worker != "gate"
        ]
        assert len(every_built) == self.episodes
        assert [r.reward for r in gated_records] == [r.reward for r in every_records]
        assert (
            gated._child_rng.bit_generator.state
            == every._child_rng.bit_generator.state
        )


class TestOneWavePath:
    """Plain and staged runs share one wave path: a plain run is one rung."""

    episodes = 8
    ladder = PipelineSettings(
        fidelities=(
            FidelityConfig(
                name="proxy", epochs=1, data_fraction=0.5, promote_fraction=0.5
            ),
            FidelityConfig(name="full"),
        )
    )

    def _staged(self, tiny_splits, tiny_backbone, timing_constraint_ms):
        return _search(
            tiny_splits,
            tiny_backbone,
            self.episodes,
            policy_batch=4,
            timing_constraint_ms=timing_constraint_ms,
            pipeline=self.ladder,
        )

    def test_staged_rejections_count_cache_and_replay(self, tiny_splits, tiny_backbone):
        # A gate rejection is evaluated at the child's first rung like any
        # other miss there: counted, cached under that rung's key, replayed.
        cache = EvaluationCache(capacity=64)

        def run():
            search = self._staged(tiny_splits, tiny_backbone, GATED_MS)
            built = _spy_produce(search)
            engine = SearchEngine(
                search, EngineConfig(use_cache=True, cache=cache, batch_episodes=4)
            )
            return engine, engine.run().history.records, built

        cold_engine, cold, _ = run()
        rejected = {r.descriptor.cache_key() for r in cold if not r.trained}
        assert rejected and any(r.trained for r in cold)
        assert cold_engine.evaluations_run == sum(
            cold_engine.evaluations_by_fidelity.values()
        ) + len(rejected)

        warm_engine, warm, warm_built = run()
        assert warm_engine.evaluations_run == 0
        assert all(r.cache_hit and r.worker == "cache" for r in warm)
        assert [r.reward for r in warm] == [r.reward for r in cold]
        assert [r.fidelity for r in warm] == [r.fidelity for r in cold]
        assert warm_built == []

    def test_partially_warm_staged_replay_builds_only_promoted_children(
        self, tiny_splits, tiny_backbone
    ):
        cold_engine = SearchEngine(
            self._staged(tiny_splits, tiny_backbone, 1e6),
            EngineConfig(use_cache=True, batch_episodes=4),
        )
        cold = cold_engine.run().history.records
        # Keep only the proxy rung's results: the replay must train exactly
        # the promoted children, at the full rung, from their initial weights.
        proxy = cold_engine.pipeline.fidelities[0]
        cache = EvaluationCache(capacity=64)
        for record in cold:
            key = cold_engine.child_cache_key(record.descriptor, proxy)
            cache.put(key, cold_engine.cache.get(key))

        search = self._staged(tiny_splits, tiny_backbone, 1e6)
        built = _spy_produce(search)
        engine = SearchEngine(search, EngineConfig(cache=cache, batch_episodes=4))
        warm = engine.run().history.records

        assert [r.reward for r in warm] == [r.reward for r in cold]
        assert [r.accuracy for r in warm] == [r.accuracy for r in cold]
        promoted = {r.descriptor.cache_key() for r in cold if r.fidelity == "full"}
        assert promoted
        assert engine.evaluations_by_fidelity.get("proxy", 0) == 0
        assert len(built) == engine.evaluations_by_fidelity["full"] == len(promoted)

    def test_plain_runs_record_their_one_rung(self, tiny_splits, tiny_backbone):
        search = _search(
            tiny_splits,
            tiny_backbone,
            self.episodes,
            policy_batch=2,
            timing_constraint_ms=GATED_MS,
        )
        engine = SearchEngine(search, EngineConfig(batch_episodes=2))
        events = []
        engine.events.subscribe(
            events.append, kinds=["stage-finished", "gate-rejected", "span"]
        )
        records = engine.run().history.records

        rejected = [r for r in records if not r.trained]
        trained = [r for r in records if r.trained]
        assert rejected and trained
        assert all(r.stages == ["gate:latency"] for r in rejected)
        assert all(r.stages == ["full"] for r in trained)
        kinds = [event.kind for event in events]
        assert kinds.count("stage-finished") == self.episodes // 2
        assert [e.episode for e in events if e.kind == "gate-rejected"] == [
            r.episode for r in rejected
        ]
        spans = [e.payload for e in events if e.kind == "span"]
        train = [span for span in spans if span["name"] == "train"]
        assert len(train) == len(trained)
        assert all(span["fidelity"] == "full" for span in train)
        assert sum(span["name"] == "stage:full" for span in spans) == self.episodes // 2


def _save_version_1(
    run_dir,
    *,
    next_episode,
    context_key,
    controller,
    policy_trainer,
    sample_rng,
    child_rng,
    history,
    cache=None,
):
    """The version-1 checkpoint writer, kept inline: ``checkpoint.npz`` holds
    the controller weights and Adam moments, ``checkpoint.json`` everything
    else as compact JSON."""
    policy_state = policy_trainer.state_dict()
    arrays = {}
    for param in controller.parameters():
        arrays[f"param__{param.name}"] = param.data
    for index, (m, v) in enumerate(
        zip(policy_state["optimizer"]["m"], policy_state["optimizer"]["v"])
    ):
        arrays[f"adam_m__{index}"] = m
        arrays[f"adam_v__{index}"] = v
    payload = {
        "version": 1,
        "next_episode": next_episode,
        "context_key": context_key,
        "baseline": policy_state["baseline"],
        "adam_step": policy_state["optimizer"]["step"],
        "rng": {
            "sample": rng_state_to_dict(sample_rng),
            "child": rng_state_to_dict(child_rng),
        },
        "history": history_to_dict(history),
        "cache": cache.snapshot() if cache is not None else [],
    }
    text = json.dumps(payload, sort_keys=True, default=lambda value: value.tolist())
    os.makedirs(run_dir, exist_ok=True)
    np.savez(os.path.join(run_dir, "checkpoint.npz"), **arrays)
    with open(os.path.join(run_dir, "checkpoint.json"), "w", encoding="utf-8") as handle:
        handle.write(text)


class TestCheckpointResume:
    def test_resume_matches_uninterrupted_run(self, tiny_splits, tiny_backbone, tmp_path):
        run_dir = str(tmp_path / "run")
        total, cut = 5, 3

        uninterrupted = SearchEngine(
            _search(tiny_splits, tiny_backbone, total), EngineConfig()
        ).run()

        first = SearchEngine(
            _search(tiny_splits, tiny_backbone, total),
            EngineConfig(run_dir=run_dir),
        )
        first.run(cut)
        assert has_checkpoint(run_dir)

        resumed_engine = SearchEngine.resume(
            _search(tiny_splits, tiny_backbone, total),
            EngineConfig(run_dir=run_dir),
        )
        assert resumed_engine._next_episode == cut
        resumed = resumed_engine.run(total)

        assert len(resumed.history) == total
        assert (
            resumed.history.reward_trajectory()
            == uninterrupted.history.reward_trajectory()
        )
        assert [r.decisions for r in resumed.history.records] == [
            r.decisions for r in uninterrupted.history.records
        ]
        assert [r.descriptor for r in resumed.history.records] == [
            r.descriptor for r in uninterrupted.history.records
        ]

    def test_restore_rejects_different_context(self, tiny_splits, tiny_backbone, tmp_path):
        run_dir = str(tmp_path / "run")
        SearchEngine(
            _search(tiny_splits, tiny_backbone, 2), EngineConfig(run_dir=run_dir)
        ).run()
        other = _search(tiny_splits, tiny_backbone, 2)
        other.evaluator.config.reward = dataclasses.replace(
            other.evaluator.config.reward, timing_constraint_ms=123.0
        )
        engine = SearchEngine(other, EngineConfig(run_dir=run_dir))
        with pytest.raises(ValueError):
            engine.restore()

    def test_telemetry_written(self, tiny_splits, tiny_backbone, tmp_path):
        run_dir = str(tmp_path / "run")
        SearchEngine(
            _search(tiny_splits, tiny_backbone, 2), EngineConfig(run_dir=run_dir)
        ).run()
        lines = [
            json.loads(line)
            for line in open(os.path.join(run_dir, "telemetry.jsonl"), encoding="utf-8")
        ]
        kinds = [line["kind"] for line in lines]
        assert kinds[0] == "run-started"
        assert kinds[-1] == "run-finished"
        assert kinds.count("episode-finished") == 2
        assert "checkpoint-written" in kinds

    def test_numpy_scalars_round_trip(self, tiny_splits, tiny_backbone, tmp_path):
        run_dir = str(tmp_path / "run")
        search = _search(tiny_splits, tiny_backbone, 1)
        result = EvaluationResult(
            latency_ms=np.float32(12.5),
            storage_mb=np.float64(0.1),
            num_parameters=np.int64(1000),
            trained=np.bool_(True),
            accuracy=np.float32(0.8),
            unfairness=np.float64(0.3),
            group_accuracy={"light": np.float32(0.9), "dark": np.float64(0.6)},
            reward=np.float32(0.25),
            meets_timing=np.bool_(True),
            meets_accuracy=np.bool_(False),
            train_seconds=np.float32(1.5),
        )
        record = EpisodeRecord(
            episode=np.int64(0),
            descriptor=_make_descriptor(),
            decisions=["DB-k3"],
            reward=np.float32(0.25),
            accuracy=np.float32(0.8),
            unfairness=np.float64(0.3),
            latency_ms=np.float32(12.5),
            storage_mb=np.float64(0.1),
            num_parameters=np.int64(1000),
            trained=np.bool_(True),
            group_accuracy={"light": np.float32(0.9)},
            elapsed_seconds=np.float64(2.0),
            cache_hit=np.bool_(False),
            worker="serial",
        )
        cache = EvaluationCache(capacity=4)
        cache.put("key", result)
        save_checkpoint(
            run_dir,
            next_episode=1,
            context_key="context",
            controller=search.controller,
            policy_trainer=search.policy_trainer,
            sample_rng=search._sample_rng,
            child_rng=search._child_rng,
            history=SearchHistory(records=[record], space_size=np.float64(8.0)),
            cache=cache,
        )
        loaded = load_checkpoint(run_dir)
        [loaded_record] = loaded.history.records
        assert loaded.history.space_size == 8.0
        assert record_to_dict(loaded_record) == record_to_dict(record)
        assert loaded_record.reward == float(np.float32(0.25))
        assert type(loaded_record.trained) is bool
        assert type(loaded_record.num_parameters) is int
        [(key, entry)] = loaded.cache_entries
        assert key == "key"
        assert entry == result_to_dict(result)
        assert type(entry["meets_timing"]) is bool

    def test_checkpoint_is_compact_json(self, tiny_splits, tiny_backbone, tmp_path):
        # Every journal line is one compact JSON object, a tab and its CRC-32.
        run_dir = str(tmp_path / "run")
        SearchEngine(
            _search(tiny_splits, tiny_backbone, 2),
            EngineConfig(run_dir=run_dir, checkpoint_every=1),
        ).run()
        journal, state = checkpoint_paths(run_dir)
        assert os.path.basename(journal) == CHECKPOINT_JOURNAL
        assert os.path.basename(state).endswith(".state")
        with open(journal, "rb") as handle:
            lines = handle.read().split(b"\n")
        assert lines.pop() == b""
        payloads = []
        for line in lines:
            text, tab, checksum = line.rpartition(b"\t")
            assert tab and checksum == b"%08x" % zlib.crc32(text)
            payload = json.loads(text)
            assert text == json.dumps(payload, sort_keys=True).encode("ascii")
            payloads.append(payload)
        assert [payload["next_episode"] for payload in payloads] == [1, 2, 2]

    def test_legacy_checkpoint_resumes_bit_for_bit(
        self, tiny_splits, tiny_backbone, tmp_path
    ):
        total, cut = 5, 3
        uninterrupted_search = _search(tiny_splits, tiny_backbone, total)
        uninterrupted = SearchEngine(uninterrupted_search, EngineConfig()).run()

        run_dir = str(tmp_path / "run")
        cut_search = _search(tiny_splits, tiny_backbone, total)
        cut_engine = SearchEngine(cut_search, EngineConfig())
        cut_history = cut_engine.run(cut).history
        _save_version_1(
            run_dir,
            next_episode=cut,
            context_key=cut_engine.context_key,
            controller=cut_search.controller,
            policy_trainer=cut_search.policy_trainer,
            sample_rng=cut_search._sample_rng,
            child_rng=cut_search._child_rng,
            history=cut_history,
        )
        # Rewrite the pair in the earlier layout: indented JSON and a
        # compressed archive.
        json_path = os.path.join(run_dir, "checkpoint.json")
        npz_path = os.path.join(run_dir, "checkpoint.npz")
        save_json(json_path, load_json(json_path))
        np.savez_compressed(npz_path, **load_state_dict(npz_path))
        with open(json_path, encoding="utf-8") as handle:
            assert handle.read().startswith("{\n  ")
        assert has_checkpoint(run_dir)

        resumed_search = _search(tiny_splits, tiny_backbone, total)
        resumed = SearchEngine.resume(
            resumed_search, EngineConfig(run_dir=run_dir)
        ).run(total)
        # The resumed run's journal superseded the pair.
        assert sorted(os.listdir(run_dir)) == sorted(
            [os.path.basename(path) for path in checkpoint_paths(run_dir)]
            + ["telemetry.jsonl"]
        )
        assert (
            resumed.history.reward_trajectory()
            == uninterrupted.history.reward_trajectory()
        )
        assert [r.decisions for r in resumed.history.records] == [
            r.decisions for r in uninterrupted.history.records
        ]
        for resumed_param, straight_param in zip(
            resumed_search.controller.parameters(),
            uninterrupted_search.controller.parameters(),
        ):
            assert np.array_equal(resumed_param.data, straight_param.data)


class TestEngineConfigResolution:
    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            EngineConfig(backend="gpu")
        with pytest.raises(ValueError):
            EngineConfig(num_workers=0)
        with pytest.raises(ValueError):
            EngineConfig(batch_episodes=0)
        with pytest.raises(ValueError):
            EngineConfig(checkpoint_every=-1)

    def test_live_cache_with_a_store_rejected(self, tmp_path):
        # A live cache keeps the tier it was built with, so a store setting
        # next to it would be silently ignored (or leak into a later engine).
        cache = EvaluationCache(capacity=4)
        with pytest.raises(ValueError, match="store_root or store_url"):
            EngineConfig(cache=cache, store_root=str(tmp_path / "store"))
        with pytest.raises(ValueError, match="store_root or store_url"):
            EngineConfig(cache=cache, store_url="http://127.0.0.1:1")

    def test_wave_larger_than_policy_batch_rejected(self, tiny_splits, tiny_backbone):
        engine = SearchEngine(
            _search(tiny_splits, tiny_backbone, 4, policy_batch=1),
            EngineConfig(batch_episodes=4),
        )
        with pytest.raises(ValueError, match="batch_episodes"):
            engine.run()

    def test_default_config_installation(self):
        installed = EngineConfig(backend="thread", num_workers=3)
        previous = set_default_engine_config(installed)
        try:
            assert resolve_engine_config() is installed
            explicit = EngineConfig()
            assert resolve_engine_config(explicit) is explicit
        finally:
            set_default_engine_config(previous)
        assert resolve_engine_config().backend == "serial"


class TestRunEngineSearch:
    def test_explicit_engine_config_is_honored(self, tiny_splits, tmp_path):
        run_dir = str(tmp_path / "run")
        spec = RunSpec(
            search=SearchParams(
                episodes=1,
                backbone="MobileNetV2",
                pretrain_epochs=0,
                child_epochs=1,
                max_searchable=2,
                width_multiplier=0.25,
                seed=0,
                policy_batch=1,
            )
        )
        report = repro.run(
            spec,
            engine=EngineConfig(run_dir=run_dir, use_cache=True),
            train_dataset=tiny_splits.train,
            validation_dataset=tiny_splits.validation,
        )
        assert len(report.result.history) == 1
        assert report.engine.config.run_dir == run_dir
        assert has_checkpoint(run_dir)
