"""One frozen prefix per search: children share its read-only weights.

The producer builds the frozen prefix's arrays once and gives every child
its own module shells over them.  These tests pin that contract, the prefix
memo's two ways of recognising an equal prefix (the same shared arrays, or
equal bytes in a pickled child), and that children training at once on the
thread backend neither race on nor write into the shared arrays.
"""

from __future__ import annotations

import os
import pickle
import sys
import threading

import numpy as np
import pytest

import repro.nn.trainer as trainer_module
from repro.core import FaHaNaConfig, FaHaNaSearch, ProducerConfig
from repro.core.policy import PolicyGradientConfig
from repro.engine import EngineConfig, SearchEngine
from repro.hardware.constraints import DesignSpec, HardwareSpec, SoftwareSpec
from repro.nn.layers import BatchNorm2d
from repro.nn.trainer import Trainer, TrainingConfig


def _search(tiny_splits, tiny_backbone, episodes, policy_batch):
    config = FaHaNaConfig(
        episodes=episodes,
        producer=ProducerConfig(
            backbone=tiny_backbone,
            freeze=True,
            pretrain_epochs=1,
            width_multiplier=0.5,
            max_searchable=2,
        ),
        policy=PolicyGradientConfig(batch_episodes=policy_batch),
        child_training=TrainingConfig(epochs=1, batch_size=8, seed=0),
    )
    design = DesignSpec(
        hardware=HardwareSpec(timing_constraint_ms=1e6),
        software=SoftwareSpec(accuracy_constraint=0.0),
    )
    return FaHaNaSearch(tiny_splits.train, tiny_splits.validation, design, config)


@pytest.fixture(scope="module")
def search(tiny_splits, tiny_backbone):
    search = _search(tiny_splits, tiny_backbone, episodes=2, policy_batch=2)
    # The stem and at least two blocks are frozen in every child.
    assert search.producer.split_block >= 2
    return search


def _children(producer, count=2):
    """``count`` distinct children of ``producer``."""
    space = producer.search_space
    return [
        producer.produce(
            [space.decode(p.stride, [number % 3, 0, number % 2, 0]) for p in producer.positions],
            seed=100 + number,
        )
        for number in range(count)
    ]


def _frozen(child):
    return [param for param in child.model.parameters() if not param.trainable]


def _batchnorms(child):
    return [m for m in child.model.modules() if isinstance(m, BatchNorm2d)]


class TestChildrenShareTheFrozenPrefix:
    def test_an_in_place_write_into_a_frozen_weight_raises(self, search):
        (child,) = _children(search.producer, 1)
        weight = child.model[0][0].weight
        assert not weight.trainable
        with pytest.raises(ValueError):
            weight.data.flat[0] = 1.0
        with pytest.raises(ValueError):
            weight.data += 1.0

    def test_two_children_share_every_frozen_array(self, search):
        first, second = _children(search.producer)
        assert first.num_frozen_parameters == second.num_frozen_parameters > 0
        assert len(_frozen(first)) == len(_frozen(second))
        pairs = list(zip(_frozen(first), _frozen(second)))
        assert sum(a.size for a, _ in pairs) == first.num_frozen_parameters
        for a, b in pairs:
            assert a is not b
            assert a.data is b.data

    def test_the_two_children_own_their_batchnorm_buffers(self, search):
        first, second = _children(search.producer)
        assert len(_batchnorms(first)) == len(_batchnorms(second))
        pairs = list(zip(_batchnorms(first), _batchnorms(second)))
        # The stem's and the frozen blocks' batch norms are among them.
        assert len(pairs) > 1 + search.producer.split_block
        for a, b in pairs:
            assert a is not b
            assert not np.shares_memory(a.running_mean, b.running_mean)
            assert not np.shares_memory(a.running_var, b.running_var)

    def test_no_frozen_parameter_holds_a_per_child_gradient(self, search):
        for child in _children(search.producer):
            assert all(param.grad is None for param in _frozen(child))
            assert all(
                param.grad is not None
                for param in child.model.parameters()
                if param.trainable
            )


class TestPickledChildrenReplayThePrefix:
    """Process-pool and fleet tasks carry pickled children, whose frozen
    arrays are copies: the memo must recognise them by their bytes."""

    @pytest.mark.parametrize(
        "protocol",
        [pickle.DEFAULT_PROTOCOL, pickle.HIGHEST_PROTOCOL],
        ids=["default-protocol", "highest-protocol"],
    )
    def test_the_prefix_runs_for_the_first_fit_only(
        self, search, tiny_splits, monkeypatch, protocol
    ):
        prefix_forwards = []
        run = trainer_module._run

        def counting_run(stages, x):
            if stages and all(
                not param.trainable for stage in stages for param in stage.parameters()
            ):
                prefix_forwards.append(len(x))
            return run(stages, x)

        monkeypatch.setattr(trainer_module, "_run", counting_run)
        trainer = Trainer(TrainingConfig(epochs=2, batch_size=8, seed=0))
        children = [
            pickle.loads(pickle.dumps(child, protocol=protocol))
            for child in _children(search.producer)
        ]
        for a, b in zip(_frozen(children[0]), _frozen(children[1])):
            assert a.data is not b.data

        images, labels = tiny_splits.train.images, tiny_splits.train.labels
        forwards = []
        for child in children:
            prefix_forwards.clear()
            trainer.fit(child.model, images, labels)
            trainer.predict(child.model, tiny_splits.validation.images)
            forwards.append(sum(prefix_forwards))
        assert forwards == [2 * len(images) + len(tiny_splits.validation.images), 0]


class TestThreadBackendStress:
    def test_more_workers_than_cores_match_a_serial_run(self, tiny_splits, tiny_backbone):
        workers = max(4, (os.cpu_count() or 1) + 1)
        episodes = 2 * workers

        def outcomes(history):
            return [
                (
                    record.episode,
                    record.decisions,
                    record.descriptor,
                    record.reward,
                    record.accuracy,
                    record.unfairness,
                    record.group_accuracy,
                    record.trained,
                )
                for record in history.records
            ]

        serial = SearchEngine(
            _search(tiny_splits, tiny_backbone, episodes, policy_batch=workers),
            EngineConfig(backend="serial", batch_episodes=workers),
        ).run()

        threaded_search = _search(tiny_splits, tiny_backbone, episodes, policy_batch=workers)
        engine = SearchEngine(
            threaded_search,
            EngineConfig(backend="thread", num_workers=workers, batch_episodes=workers),
        )
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            runner = threading.Thread(target=lambda: results.append(engine.run()), daemon=True)
            runner.start()
            runner.join(timeout=300)
            assert not runner.is_alive(), "the thread-backend search did not finish"
        finally:
            sys.setswitchinterval(interval)

        (threaded,) = results
        assert outcomes(threaded.history) == outcomes(serial.history)
        assert all("engine-worker" in record.worker for record in threaded.history.records)

        producer = threaded_search.producer
        (child,) = _children(producer, 1)
        backbone_params = [
            param
            for stage_index in range(1 + producer.split_block)
            for param in producer.backbone_model[stage_index].parameters()
        ]
        shared = _frozen(child)
        assert len(shared) == len(backbone_params)
        for array, source in zip(shared, backbone_params):
            assert not array.data.flags.writeable
            assert array.data.tobytes() == source.data.tobytes()
