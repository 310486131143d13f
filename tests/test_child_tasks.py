"""Tasks name their child: workers build it around a frozen prefix shipped once.

A training task carries a child's decisions and weight-init seed, not the
child; the worker builds it with the producer, in the run's precision.
These tests pin what that rests on: a float32 child's frozen arrays stay
the producer's shared ones through a fit, casting at the build trains like
casting at the fit, and a producer pickled for a worker leaves the backbone
behind and unpickles its prefix read-only, so the worker's children train
bit for bit like the parent's and replay the prefix memo.
"""

from __future__ import annotations

import pickle
from dataclasses import replace

import numpy as np
import pytest

import repro.nn.trainer as trainer_module
from repro.core import FaHaNaConfig, FaHaNaSearch, ProducerConfig
from repro.core.policy import PolicyGradientConfig
from repro.engine import EngineConfig, SearchEngine
from repro.hardware.constraints import DesignSpec, HardwareSpec, SoftwareSpec
from repro.nn.trainer import Trainer, TrainingConfig


def _search(tiny_splits, tiny_backbone, precision):
    config = FaHaNaConfig(
        episodes=2,
        producer=ProducerConfig(
            backbone=tiny_backbone,
            freeze=True,
            pretrain_epochs=1,
            width_multiplier=0.5,
            max_searchable=2,
        ),
        policy=PolicyGradientConfig(batch_episodes=2),
        child_training=TrainingConfig(
            epochs=1, batch_size=8, seed=0, precision=precision
        ),
    )
    design = DesignSpec(
        hardware=HardwareSpec(timing_constraint_ms=1e6),
        software=SoftwareSpec(accuracy_constraint=0.0),
    )
    return FaHaNaSearch(tiny_splits.train, tiny_splits.validation, design, config)


def _decisions(producer, number):
    space = producer.search_space
    return [
        space.decode(p.stride, [number % 3, 0, number % 2, 0])
        for p in producer.positions
    ]


def _frozen(child):
    return [param for param in child.model.parameters() if not param.trainable]


def _numbers(model):
    """Every parameter and buffer of ``model``, as bytes."""
    arrays = [param.data for param in model.parameters()]
    arrays.extend(buffer for _, buffer in model.named_buffers())
    return [(array.dtype.str, array.tobytes()) for array in arrays]


class TestFloat32ChildrenKeepTheSharedPrefix:
    def test_two_fitted_children_hold_the_shared_float32_arrays(
        self, tiny_splits, tiny_backbone
    ):
        search = _search(tiny_splits, tiny_backbone, "float32")
        producer = search.producer
        children = []
        original = producer.produce

        def produce(decisions, **kwargs):
            children.append(original(decisions, **kwargs))
            return children[-1]

        producer.produce = produce
        engine = SearchEngine(search, EngineConfig(backend="serial"))
        records = engine.run().history.records
        assert [r.trained for r in records] == [True, True]
        assert len(children) == 2

        shared = [
            param.data
            for stage in producer.shared_prefix("float32")
            for param in stage.parameters()
        ]
        for child in children:
            frozen = _frozen(child)
            assert len(frozen) == len(shared) > 0
            for param, array in zip(frozen, shared):
                assert param.data is array
                assert array.dtype == np.float32
                assert not array.flags.writeable and array.flags.owndata
            assert {p.data.dtype for p in child.model.parameters()} == {
                np.dtype(np.float32)
            }

    def test_casting_at_the_build_trains_like_casting_at_the_fit(
        self, tiny_splits, tiny_backbone
    ):
        producer = _search(tiny_splits, tiny_backbone, "float32").producer
        config = TrainingConfig(epochs=2, batch_size=8, seed=0, precision="float32")
        outcomes = []
        for precision in (None, "float32"):
            child = producer.produce(_decisions(producer, 1), seed=7, precision=precision)
            trainer = Trainer(config)
            history = trainer.fit(
                child.model, tiny_splits.train.images, tiny_splits.train.labels
            )
            predictions = trainer.predict(child.model, tiny_splits.validation.images)
            outcomes.append(
                (
                    history.losses,
                    history.accuracies,
                    _numbers(child.model),
                    predictions.tobytes(),
                )
            )
        assert outcomes[0] == outcomes[1]


class TestAPickledProducerBuildsTheSameChildren:
    """Spawned process workers and fleet agents get the producer pickled."""

    @pytest.mark.parametrize("precision", [None, "float32"], ids=["float64", "float32"])
    @pytest.mark.parametrize(
        "protocol",
        [pickle.DEFAULT_PROTOCOL, pickle.HIGHEST_PROTOCOL],
        ids=["default-protocol", "highest-protocol"],
    )
    def test_round_trip(self, tiny_splits, tiny_backbone, monkeypatch, protocol, precision):
        search = _search(tiny_splits, tiny_backbone, precision)
        evaluator, producer = search.evaluator, search.producer
        # As the engine does before its workers start.
        producer.shared_prefix(precision)
        copy_evaluator, copy_producer = pickle.loads(
            pickle.dumps((evaluator, producer), protocol=protocol)
        )
        assert producer.backbone_model is not None
        assert copy_producer.backbone_model is None
        with pytest.raises(RuntimeError, match="without its backbone"):
            copy_producer.shared_prefix("float32" if precision is None else None)

        prefix_forwards = []
        run = trainer_module._run

        def counting_run(stages, x):
            if stages and all(
                not param.trainable for stage in stages for param in stage.parameters()
            ):
                prefix_forwards.append(len(x))
            return run(stages, x)

        monkeypatch.setattr(trainer_module, "_run", counting_run)
        forwards = []
        for number in range(2):
            decisions, seed = _decisions(producer, number), 100 + number
            expected = evaluator.pipeline.train_and_score(
                producer.produce(decisions, seed=seed, precision=precision)
            )
            child = copy_producer.produce(decisions, seed=seed, precision=precision)
            for param in _frozen(child):
                assert not param.data.flags.writeable and param.data.flags.owndata
            prefix_forwards.clear()
            result = copy_evaluator.pipeline.train_and_score(child)
            forwards.append(sum(prefix_forwards))
            assert replace(result, train_seconds=0.0) == replace(
                expected, train_seconds=0.0
            )
        assert forwards[0] > 0 and forwards[1] == 0
