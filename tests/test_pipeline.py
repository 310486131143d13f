"""Tests for the staged evaluation pipeline: gates, fidelity promotion,
bit-for-bit default parity, engine-level early stopping, adaptive waves and
cache-enabled resume."""

from __future__ import annotations

import json
import pickle
import time

import numpy as np
import pytest

from repro.core import FaHaNaConfig, FaHaNaSearch, ProducerConfig
from repro.core.pipeline import EvaluationPipeline, FidelityConfig, PipelineSettings
from repro.core.policy import PolicyGradientConfig
from repro.core.reward import INVALID_REWARD, RewardConfig, compute_reward
from repro.engine import EngineConfig, SearchEngine
from repro.engine.events import EARLY_STOPPED, WAVE_PROMOTED, WAVE_RESIZED
from repro.engine.workers import ProcessPool
from repro.fairness.report import evaluate_fairness
from repro.hardware.constraints import DesignSpec, HardwareSpec, SoftwareSpec
from repro.nn.trainer import TrainingConfig
from repro.api.cli import main as cli_main
from repro.api.spec import RunSpec


def _search(
    tiny_splits,
    tiny_backbone,
    episodes=4,
    policy_batch=1,
    seed=0,
    timing_ms=1e6,
    storage_mb=None,
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
        hardware=HardwareSpec(
            timing_constraint_ms=timing_ms, max_storage_mb=storage_mb
        ),
        software=SoftwareSpec(accuracy_constraint=0.0),
    )
    return FaHaNaSearch(tiny_splits.train, tiny_splits.validation, spec, config)


_PROXY_SETTINGS = PipelineSettings(
    fidelities=(
        FidelityConfig(name="proxy", epochs=1, data_fraction=0.5, promote_fraction=0.5),
        FidelityConfig(name="full"),
    )
)


# -- pipeline construction and gates ------------------------------------------------
class TestPipelineSettings:
    def test_default_is_single_full_stage(self):
        settings = PipelineSettings()
        assert not settings.staged
        assert len(settings.fidelities) == 1
        assert settings.fidelities[0].is_full

    def test_final_stage_must_be_full(self):
        with pytest.raises(ValueError, match="final fidelity"):
            PipelineSettings(fidelities=(FidelityConfig(name="proxy", epochs=1),))

    def test_proxy_stage_must_reduce_budget(self):
        with pytest.raises(ValueError, match="full budget"):
            PipelineSettings(
                fidelities=(FidelityConfig(name="a"), FidelityConfig(name="b"))
            )

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            PipelineSettings(
                fidelities=(
                    FidelityConfig(name="full", epochs=1),
                    FidelityConfig(name="full"),
                )
            )

    def test_invalid_fractions_rejected(self):
        with pytest.raises(ValueError, match="data_fraction"):
            FidelityConfig(name="proxy", data_fraction=0.0)
        with pytest.raises(ValueError, match="promote_fraction"):
            FidelityConfig(name="proxy", promote_fraction=1.5)
        with pytest.raises(ValueError, match="max_parameters"):
            PipelineSettings(max_parameters=0)

    def test_fidelity_fingerprint_ignores_name_and_promotion(self):
        a = FidelityConfig(name="a", epochs=2, data_fraction=0.5, promote_fraction=0.5)
        b = FidelityConfig(name="b", epochs=2, data_fraction=0.5, promote_fraction=0.25)
        c = FidelityConfig(name="a", epochs=3, data_fraction=0.5)
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()


class TestGates:
    def _pipeline(self, search, **settings_kwargs):
        evaluator = search.evaluator
        return EvaluationPipeline(
            train_dataset=evaluator.train_dataset,
            validation_dataset=evaluator.validation_dataset,
            latency_estimator=evaluator.latency_estimator,
            reward=evaluator.config.reward,
            training=evaluator.config.training,
            settings=PipelineSettings(**settings_kwargs),
        )

    def test_parameter_gate_rejects(self, tiny_splits, tiny_backbone):
        search = _search(tiny_splits, tiny_backbone)
        pipeline = self._pipeline(search, max_parameters=1)
        sample = search.controller.sample(rng=np.random.default_rng(0))
        descriptor = search.producer.describe_child(sample.decisions)
        pricing = pipeline.price(descriptor)
        assert not pricing.passed
        assert [g.gate for g in pricing.failures()] == ["parameters"]
        result = pipeline.rejection_result(pricing)
        assert result.reward == INVALID_REWARD and not result.trained
        # The latency gate still passed, so meets_timing is preserved.
        assert result.meets_timing

    def test_storage_gate_rejects(self, tiny_splits, tiny_backbone):
        search = _search(tiny_splits, tiny_backbone)
        pipeline = self._pipeline(search, max_storage_mb=1e-6)
        sample = search.controller.sample(rng=np.random.default_rng(0))
        descriptor = search.producer.describe_child(sample.decisions)
        pricing = pipeline.price(descriptor)
        assert [g.gate for g in pricing.failures()] == ["storage"]

    def test_all_gates_pass_with_default_limits(self, tiny_splits, tiny_backbone):
        search = _search(tiny_splits, tiny_backbone)
        pipeline = self._pipeline(search)
        sample = search.controller.sample(rng=np.random.default_rng(0))
        pricing = pipeline.price(search.producer.describe_child(sample.decisions))
        assert pricing.passed
        assert [g.gate for g in pricing.gates] == ["latency"]

    def test_design_spec_storage_budget_reaches_the_gate(
        self, tiny_splits, tiny_backbone
    ):
        """``design.max_storage_mb`` is enforced through the storage gate."""
        search = _search(tiny_splits, tiny_backbone, episodes=2, storage_mb=1e-6)
        assert search.evaluator.pipeline.settings.max_storage_mb == 1e-6
        result = search.run()
        assert all(not record.trained for record in result.history.records)
        assert all(
            record.reward == INVALID_REWARD for record in result.history.records
        )

    def test_monas_still_trains_latency_violating_children(
        self, tiny_splits, tiny_backbone
    ):
        """MONAS has no latency bypass: children train before the reward check."""
        from repro.core import MonasConfig, MonasSearch

        config = MonasConfig(
            episodes=2,
            seed=0,
            producer=ProducerConfig(backbone=tiny_backbone, width_multiplier=0.5),
            child_training=TrainingConfig(epochs=1, batch_size=8, seed=0),
        )
        design = DesignSpec(
            hardware=HardwareSpec(timing_constraint_ms=0.001),
            software=SoftwareSpec(accuracy_constraint=0.0),
        )
        search = MonasSearch(
            tiny_splits.train, tiny_splits.validation, design, config
        )
        assert search.evaluator.pipeline.bypass_invalid is False
        result = search.run()
        for record in result.history.records:
            assert record.trained  # trained despite violating the constraint
            assert record.reward == INVALID_REWARD
            assert record.accuracy > 0.0


# -- bit-for-bit parity of the default (single full-fidelity) pipeline --------------
def _seed_reference_episode(search, child, latency_estimator):
    """The seed repository's pre-refactor ChildEvaluator.evaluate, inlined."""
    evaluator = search.evaluator
    reward_config = evaluator.config.reward
    latency = latency_estimator.network_latency_ms(child.descriptor)
    storage = child.descriptor.storage_mb()
    num_parameters = child.descriptor.param_count()
    meets_timing = latency <= reward_config.timing_constraint_ms
    if not meets_timing:
        return {
            "latency_ms": latency,
            "storage_mb": storage,
            "num_parameters": num_parameters,
            "trained": False,
            "accuracy": 0.0,
            "unfairness": 0.0,
            "group_accuracy": {},
            "reward": INVALID_REWARD,
        }
    trainer = evaluator.pipeline.trainer(evaluator.pipeline.final_fidelity)
    trainer.fit(child.model, evaluator.train_dataset.images, evaluator.train_dataset.labels)
    report = evaluate_fairness(child.model, evaluator.validation_dataset, trainer)
    reward = compute_reward(
        accuracy=report.overall_accuracy,
        unfairness=report.unfairness,
        latency_ms=latency,
        config=reward_config,
    )
    return {
        "latency_ms": latency,
        "storage_mb": storage,
        "num_parameters": num_parameters,
        "trained": True,
        "accuracy": report.overall_accuracy,
        "unfairness": report.unfairness,
        "group_accuracy": dict(report.group_accuracy),
        "reward": reward,
    }


class TestDefaultParity:
    @pytest.mark.parametrize("timing_ms", [1e6, 120.0])
    def test_history_matches_pre_refactor_loop_bit_for_bit(
        self, tiny_splits, tiny_backbone, timing_ms
    ):
        episodes = 4
        reference_search = _search(
            tiny_splits, tiny_backbone, episodes, timing_ms=timing_ms
        )
        reference = []
        for _ in range(episodes):
            sample = reference_search.controller.sample(rng=reference_search._sample_rng)
            child = reference_search.producer.produce(
                sample.decisions, rng=reference_search._child_rng
            )
            outcome = _seed_reference_episode(
                reference_search, child, reference_search.evaluator.latency_estimator
            )
            reference_search.policy_trainer.observe(sample, outcome["reward"])
            outcome["decisions"] = [spec.describe() for spec in child.descriptor.blocks]
            reference.append(outcome)
        reference_search.policy_trainer.apply_update()

        result = _search(tiny_splits, tiny_backbone, episodes, timing_ms=timing_ms).run()
        assert len(result.history) == episodes
        for record, expected in zip(result.history.records, reference):
            assert record.reward == expected["reward"]
            assert record.accuracy == expected["accuracy"]
            assert record.unfairness == expected["unfairness"]
            assert record.latency_ms == expected["latency_ms"]
            assert record.storage_mb == expected["storage_mb"]
            assert record.num_parameters == expected["num_parameters"]
            assert record.trained == expected["trained"]
            assert record.group_accuracy == expected["group_accuracy"]
            assert record.decisions == expected["decisions"]
            assert record.fidelity == "full"

    def test_default_spec_history_matches_reference_loop(self, tmp_path):
        """A default (no evaluation section) RunSpec reproduces the seed loop."""
        import repro
        from repro.api.registry import get_strategy

        spec = RunSpec.from_dict(
            {
                "strategy": "fahana",
                "dataset": {"image_size": 10, "samples_per_class": 8,
                            "minority_fraction": 0.5, "seed": 0},
                "design": {"timing_constraint_ms": 1e6},
                "search": {"episodes": 3, "child_epochs": 1, "pretrain_epochs": 0,
                           "max_searchable": 2, "width_multiplier": 0.25,
                           "child_batch_size": 16},
            }
        )
        report = repro.run(spec)

        splits = spec.dataset.build()
        design = spec.design.build()
        search = get_strategy("fahana").factory(
            spec, splits.train, splits.validation, design
        )
        reference = []
        for _ in range(spec.search.episodes):
            sample = search.controller.sample(rng=search._sample_rng)
            child = search.producer.produce(sample.decisions, rng=search._child_rng)
            outcome = _seed_reference_episode(
                search, child, search.evaluator.latency_estimator
            )
            reference.append(outcome)
        assert [r.reward for r in report.history.records] == [
            o["reward"] for o in reference
        ]
        assert [r.accuracy for r in report.history.records] == [
            o["accuracy"] for o in reference
        ]
        assert [r.group_accuracy for r in report.history.records] == [
            o["group_accuracy"] for o in reference
        ]


# -- the staged (multi-fidelity) engine path ----------------------------------------
class TestMultiFidelity:
    def test_promotion_trains_fewer_full_children(self, tiny_splits, tiny_backbone):
        episodes, batch = 4, 4
        search = _search(
            tiny_splits,
            tiny_backbone,
            episodes,
            policy_batch=batch,
            pipeline=_PROXY_SETTINGS,
        )
        engine = SearchEngine(search, EngineConfig(batch_episodes=batch))
        promotions = []
        engine.events.subscribe(
            lambda event: promotions.append(event.payload), kinds=[WAVE_PROMOTED]
        )
        result = engine.run()
        assert len(result.history) == episodes
        assert engine.evaluations_by_fidelity["proxy"] == episodes
        # promote_fraction=0.5 of a 4-wave: exactly 2 full trainings.
        assert engine.evaluations_by_fidelity["full"] == 2
        assert len(promotions) == 1 and len(promotions[0]["promoted"]) == 2
        fidelities = [record.fidelity for record in result.history.records]
        assert sorted(fidelities) == ["full", "full", "proxy", "proxy"]
        for record in result.history.records:
            expected = ["proxy"] if record.fidelity == "proxy" else ["proxy", "full"]
            assert record.stages == expected

    def test_staged_backends_agree(self, tiny_splits, tiny_backbone):
        episodes, batch = 4, 4

        def run(backend):
            search = _search(
                tiny_splits,
                tiny_backbone,
                episodes,
                policy_batch=batch,
                pipeline=_PROXY_SETTINGS,
            )
            engine = SearchEngine(
                search,
                EngineConfig(backend=backend, num_workers=2, batch_episodes=batch),
            )
            return engine.run()

        serial = run("serial")
        for backend in ("thread", "process"):
            other = run(backend)
            assert serial.history.reward_trajectory() == other.history.reward_trajectory()
            assert [r.fidelity for r in serial.history.records] == [
                r.fidelity for r in other.history.records
            ]

    def test_promoted_children_match_single_stage_results(
        self, tiny_splits, tiny_backbone
    ):
        """A promoted child's full result equals its single-stage evaluation.

        Every rung builds the child afresh from its seed, so proxy training
        leaves no trace in the final numbers -- and the full-fidelity cache
        keys of staged and plain runs coincide.
        """
        episodes, batch = 4, 4
        staged_search = _search(
            tiny_splits,
            tiny_backbone,
            episodes,
            policy_batch=batch,
            pipeline=_PROXY_SETTINGS,
        )
        staged = SearchEngine(staged_search, EngineConfig(batch_episodes=batch)).run()
        plain = SearchEngine(
            _search(tiny_splits, tiny_backbone, episodes, policy_batch=batch),
            EngineConfig(batch_episodes=batch),
        ).run()
        plain_by_key = {
            record.descriptor.cache_key(): record for record in plain.history.records
        }
        compared = 0
        for record in staged.history.records:
            if record.fidelity != "full":
                continue
            reference = plain_by_key[record.descriptor.cache_key()]
            assert record.reward == reference.reward
            assert record.accuracy == reference.accuracy
            assert record.unfairness == reference.unfairness
            compared += 1
        assert compared > 0

    def test_a_child_rebuilt_for_its_second_rung_holds_the_shared_prefix(
        self, tiny_splits, tiny_backbone
    ):
        episodes, batch = 4, 4
        search = _search(
            tiny_splits,
            tiny_backbone,
            episodes,
            policy_batch=batch,
            pipeline=_PROXY_SETTINGS,
        )
        producer = search.producer
        built = []
        original = producer.produce

        def produce(decisions, **kwargs):
            child = original(decisions, **kwargs)
            built.append((kwargs["seed"], child))
            return child

        producer.produce = produce
        result = SearchEngine(search, EngineConfig(batch_episodes=batch)).run()

        promoted = [r for r in result.history.records if r.stages == ["proxy", "full"]]
        seeds = [seed for seed, _ in built]
        rebuilt = [
            child for index, (seed, child) in enumerate(built) if seed in seeds[:index]
        ]
        assert promoted and len(rebuilt) == len(promoted)
        shared = [
            param.data
            for stage in producer.shared_prefix()
            for param in stage.parameters()
        ]
        for child in rebuilt:
            frozen = [param for param in child.model.parameters() if not param.trainable]
            assert len(frozen) == len(shared) > 0
            for param, array in zip(frozen, shared):
                assert param.data is array
                assert not param.data.flags.writeable and param.grad is None

    def test_process_pool_tasks_name_their_child(
        self, tiny_splits, tiny_backbone, monkeypatch
    ):
        sizes = []
        original = ProcessPool.map_ordered

        def map_ordered(pool, fn, payloads):
            sizes.extend(len(pickle.dumps(payload)) for payload in payloads)
            return original(pool, fn, payloads)

        monkeypatch.setattr(ProcessPool, "map_ordered", map_ordered)
        episodes, batch = 4, 4
        search = _search(
            tiny_splits,
            tiny_backbone,
            episodes,
            policy_batch=batch,
            pipeline=_PROXY_SETTINGS,
        )
        engine = SearchEngine(
            search, EngineConfig(backend="process", num_workers=2, batch_episodes=batch)
        )
        records = engine.run().history.records
        # One task per rung each child trained at; none carries a model.
        assert len(sizes) == sum(len(r.stages) for r in records) > episodes
        assert max(sizes) < 4096
        # The parent built no child, but it built the prefix its workers share.
        assert search.producer._prefix is not None

    def test_warm_cache_replays_staged_run_without_training(
        self, tiny_splits, tiny_backbone, tmp_path
    ):
        episodes, batch = 4, 4
        store_root = str(tmp_path / "store")

        def run():
            search = _search(
                tiny_splits,
                tiny_backbone,
                episodes,
                policy_batch=batch,
                pipeline=_PROXY_SETTINGS,
            )
            engine = SearchEngine(
                search,
                EngineConfig(batch_episodes=batch, store_root=store_root),
            )
            return engine, engine.run()

        cold_engine, cold = run()
        assert cold_engine.evaluations_run > 0
        warm_engine, warm = run()
        assert warm_engine.evaluations_run == 0
        assert warm.history.reward_trajectory() == cold.history.reward_trajectory()
        assert [r.fidelity for r in warm.history.records] == [
            r.fidelity for r in cold.history.records
        ]

    def test_single_episode_waves_rejected_for_halving_ladders(
        self, tiny_splits, tiny_backbone
    ):
        # policy_batch=1 means one-child waves: promotion would select every
        # valid child, so each episode pays proxy AND full training.
        search = _search(
            tiny_splits, tiny_backbone, episodes=2, pipeline=_PROXY_SETTINGS
        )
        with pytest.raises(ValueError, match="at least 2 episodes"):
            SearchEngine(search, EngineConfig()).run()

    def test_proxy_and_full_cache_keys_never_collide(self, tiny_splits, tiny_backbone):
        search = _search(tiny_splits, tiny_backbone, pipeline=_PROXY_SETTINGS)
        engine = SearchEngine(search, EngineConfig(use_cache=True))
        sample = search.controller.sample(rng=np.random.default_rng(0))
        descriptor = search.producer.describe_child(sample.decisions)
        proxy, full = engine.pipeline.fidelities
        assert engine.child_cache_key(descriptor, proxy) != engine.child_cache_key(
            descriptor, full
        )
        # The full stage keeps the historical two-part key.
        assert engine.child_cache_key(descriptor, full) == engine.child_cache_key(
            descriptor
        )


# -- engine-level early stopping and adaptive wave sizing ---------------------------
class TestEngineScheduling:
    def test_reward_plateau_stops_the_run(self, tiny_splits, tiny_backbone):
        # A sub-millisecond constraint gate-rejects every child: all rewards
        # are -1, the best never improves, and the engine must stop after
        # exactly patience episodes beyond the first.
        search = _search(
            tiny_splits,
            tiny_backbone,
            episodes=10,
            timing_ms=0.001,
            plateau_patience=3,
        )
        engine = SearchEngine(search, EngineConfig())
        stops = []
        engine.events.subscribe(
            lambda event: stops.append(event.payload), kinds=[EARLY_STOPPED]
        )
        result = engine.run()
        assert engine.early_stopped
        assert len(result.history) == 4  # episode 0 + patience more
        assert stops and stops[0]["best_episode"] == 0

    def test_no_plateau_runs_to_budget(self, tiny_splits, tiny_backbone):
        search = _search(tiny_splits, tiny_backbone, episodes=3, timing_ms=0.001)
        engine = SearchEngine(search, EngineConfig())
        result = engine.run()
        assert not engine.early_stopped
        assert len(result.history) == 3

    def test_adaptive_wave_grows_on_cheap_episodes(self, tiny_splits, tiny_backbone):
        search = _search(
            tiny_splits,
            tiny_backbone,
            episodes=8,
            policy_batch=8,
            timing_ms=0.001,  # every child is gate-free: rejected untrained
            adaptive_wave=True,
        )
        engine = SearchEngine(search, EngineConfig(batch_episodes=2))
        resizes = []
        engine.events.subscribe(
            lambda event: resizes.append(event.payload), kinds=[WAVE_RESIZED]
        )
        result = engine.run()
        assert len(result.history) == 8
        assert resizes and resizes[0] == {"wave_size": 4, "previous": 2, "trained": 0}

    def test_adaptive_wave_is_results_neutral_single_fidelity(
        self, tiny_splits, tiny_backbone
    ):
        def run(adaptive):
            search = _search(
                tiny_splits,
                tiny_backbone,
                episodes=4,
                policy_batch=2,
                adaptive_wave=adaptive,
            )
            return SearchEngine(search, EngineConfig(batch_episodes=2)).run()

        assert (
            run(False).history.reward_trajectory()
            == run(True).history.reward_trajectory()
        )

    def test_plateau_spec_fields_reach_the_engine(self, tiny_splits):
        spec = RunSpec().with_overrides(
            values={"search.plateau_patience": 5, "search.adaptive_wave": True}
        )
        assert spec.search.plateau_patience == 5
        with pytest.raises(ValueError, match="plateau_patience"):
            RunSpec().with_overrides(values={"search.plateau_patience": 0})


# -- checkpoint/resume mid-run with the cache enabled (satellite) -------------------
class TestResumeWithCache:
    def test_resume_after_interrupted_wave_is_bit_for_bit(
        self, tiny_splits, tiny_backbone, tmp_path
    ):
        """Resume mid-run with caching on: identical history and RNG streams.

        The cache is pre-warmed by an identically-seeded full run, so the
        interrupted run takes the sample-time cache-hit path (which must burn
        one child-RNG draw per hit to stay aligned) before and after resume.
        """
        episodes, policy_batch = 6, 2

        def make_search():
            return _search(
                tiny_splits, tiny_backbone, episodes, policy_batch=policy_batch
            )

        # Pre-warm a persistent cache with an identically-configured run.
        warm_dir = str(tmp_path / "cache")
        SearchEngine(
            make_search(), EngineConfig(use_cache=True, store_root=warm_dir)
        ).run()

        # Uninterrupted reference run on the warmed cache.
        reference = SearchEngine(
            make_search(), EngineConfig(use_cache=True, store_root=warm_dir)
        ).run()
        assert any(record.cache_hit for record in reference.history.records)

        # Interrupted run: stop at a wave boundary mid-search, then resume.
        run_dir = str(tmp_path / "run")
        first = SearchEngine(
            make_search(),
            EngineConfig(use_cache=True, store_root=warm_dir, run_dir=run_dir),
        )
        first.run(episodes=4)
        resumed_engine = SearchEngine.resume(
            make_search(),
            EngineConfig(use_cache=True, store_root=warm_dir, run_dir=run_dir),
        )
        assert resumed_engine._next_episode == 4
        resumed = resumed_engine.run(episodes=episodes)

        assert len(resumed.history) == episodes
        assert (
            resumed.history.reward_trajectory()
            == reference.history.reward_trajectory()
        )
        assert [r.descriptor for r in resumed.history.records] == [
            r.descriptor for r in reference.history.records
        ]
        assert [r.cache_hit for r in resumed.history.records] == [
            r.cache_hit for r in reference.history.records
        ]
        # RNG-stream alignment: both searches end on identical stream states.
        resumed_state = resumed_engine.search._child_rng.bit_generator.state
        # Build the reference state from a fresh uninterrupted engine so the
        # comparison covers sample and child streams after the final episode.
        fresh = SearchEngine(
            make_search(), EngineConfig(use_cache=True, store_root=warm_dir)
        )
        fresh.run()
        assert resumed_state == fresh.search._child_rng.bit_generator.state
        assert (
            resumed_engine.search._sample_rng.bit_generator.state
            == fresh.search._sample_rng.bit_generator.state
        )


# -- the declarative surface ---------------------------------------------------------
class TestEvaluationSpecSection:
    def test_roundtrip_with_fidelities(self):
        spec = RunSpec.from_dict(
            {
                "strategy": "fahana",
                "evaluation": {
                    "max_parameters": 1000000,
                    "fidelities": [
                        {"name": "proxy", "epochs": 1, "data_fraction": 0.25},
                        {"name": "full"},
                    ],
                },
            }
        )
        assert spec.evaluation is not None
        assert spec.evaluation.staged
        assert spec.evaluation.fidelities[0].epochs == 1
        again = RunSpec.from_json(spec.to_json())
        assert again == spec

    def test_absent_section_stays_none_and_keeps_cache_key(self):
        base = RunSpec()
        assert base.evaluation is None
        assert "evaluation" not in base.to_dict()
        explicit = RunSpec(evaluation=PipelineSettings())
        # The evaluation section changes the computation's fingerprint even
        # when it spells out the defaults (unlike the engine section).
        assert explicit.cache_key() != base.cache_key()

    def test_unknown_fidelity_key_rejected(self):
        with pytest.raises(ValueError, match="fidelities\\[0\\]"):
            RunSpec.from_dict(
                {"evaluation": {"fidelities": [{"name": "p", "epoch": 1}]}}
            )

    def test_invalid_ladder_rejected_with_section_context(self):
        with pytest.raises(ValueError, match="evaluation"):
            RunSpec.from_dict(
                {"evaluation": {"fidelities": [{"name": "proxy", "epochs": 1}]}}
            )

    def test_plateau_fields_in_cache_key(self):
        base = RunSpec()
        patient = base.with_overrides(values={"search.plateau_patience": 5})
        assert base.cache_key() != patient.cache_key()

    def test_multi_fidelity_spec_runs_through_facade(self):
        import repro

        spec = RunSpec.from_dict(
            {
                "strategy": "fahana",
                "dataset": {"image_size": 10, "samples_per_class": 8,
                            "minority_fraction": 0.5, "seed": 0},
                "design": {"timing_constraint_ms": 1e6},
                "search": {"episodes": 4, "child_epochs": 1, "pretrain_epochs": 0,
                           "max_searchable": 2, "width_multiplier": 0.25,
                           "child_batch_size": 16, "policy_batch": 4},
                "evaluation": {"fidelities": [
                    {"name": "proxy", "epochs": 1, "data_fraction": 0.5,
                     "promote_fraction": 0.5},
                    {"name": "full"},
                ]},
            }
        )
        report = repro.run(spec)
        assert report.evaluations_by_fidelity == {"proxy": 4, "full": 2}
        assert "trainings by fidelity" in report.summary()
        payload = report.to_dict()
        assert payload["evaluations_by_fidelity"] == {"proxy": 4, "full": 2}
        assert payload["early_stopped"] is False


class TestValidatePrintKey:
    def test_print_key_outputs_key_and_resolved_engine(self, tmp_path, capsys):
        path = str(tmp_path / "spec.json")
        spec = RunSpec().with_overrides(values={"engine.backend": "thread"})
        spec.to_file(path)
        assert cli_main(["validate", path, "--print-key"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cache_key"] == spec.cache_key()
        assert payload["engine"]["backend"] == "thread"
        assert "cache" not in payload["engine"]

    def test_print_key_ignores_engine_section(self, tmp_path, capsys):
        serial = str(tmp_path / "serial.json")
        threaded = str(tmp_path / "thread.json")
        RunSpec().to_file(serial)
        RunSpec().with_overrides(values={"engine.backend": "thread"}).to_file(threaded)
        assert cli_main(["validate", serial, "--print-key"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert cli_main(["validate", threaded, "--print-key"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert first["cache_key"] == second["cache_key"]
