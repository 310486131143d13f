"""The frozen specs compute their key and parameter count once per instance.

``cache_key()`` and ``param_count()`` of ``BlockSpec``, ``StemSpec``,
``HeadSpec``, ``ClassifierSpec`` and ``ArchitectureDescriptor`` are memoized
on the instance.  A search's children share the backbone's frozen block
specs, stem and (while the head's width is unchanged) classifier by
identity, so keying or pricing a child computes only its searched blocks and
head.  These tests pin that the memo does that work once, that every key
stays what it was, and that nothing else sees it.
"""

from __future__ import annotations

import dataclasses
import pickle
from collections import Counter

import pytest

import repro.utils.fingerprint as fingerprint
from repro.blocks.spec import BlockSpec
from repro.core import BackboneProducer, ProducerConfig
from repro.core.pipeline import EvaluationPipeline
from repro.core.reward import RewardConfig
from repro.engine import serde
from repro.hardware.device import RASPBERRY_PI_4
from repro.hardware.latency import LatencyEstimator
from repro.nn.trainer import TrainingConfig
from repro.zoo import get_architecture, list_architectures

# Keys of the registered zoo and of one producer child, as computed before
# the memo existed.  Stores are addressed by these keys: a changed value
# would orphan every stored evaluation.
ZOO_KEYS = {
    "FaHaNa-Fair": "1f1c14032e5e6716f1db6547b86fb86744e41460a53b65b8611140186d2dd531",
    "FaHaNa-Small": "df433751c290795658768875af126125ea7db48e2b243d6988362d5888d050c3",
    "MnasNet 0.5": "3a94b7ec9b2d533b5c9d3736d3f71c5fa988984b0d44fcde8081ce063f66d735",
    "MnasNet 1.0": "1d7d1ebc01c40d98e9611fb19c0f980309c90238fe7659318569fc8a49261f89",
    "MobileNetV2": "33fbb6fe0db67dda10def1d0d15abdc031f16fcc5f7e47e389f9c0870e911f45",
    "MobileNetV3(L)": "393522192b843264d6467541ff7bbed7a66f2a32c87be5e4bd2a78b0638685bd",
    "MobileNetV3(S)": "c65d6b64af9befc3298b5565b229b23d3f844460c93af5c50fd67e6e1ead917e",
    "ProxylessNAS(G)": "be8b8d69890ba931833db963a79e484a755e6724f3bbf352b6c18b3d10f5d373",
    "ProxylessNAS(M)": "c565bd58cf72174e819fa12b11f62b5894da6a235a591a293269c3d466dd0c44",
    "ResNet-18": "f4a064c55e3c574d2bcf7f8c56f40fd9cd2eca1995c9e50c513506614b16b40f",
    "ResNet-34": "baa0e62e9102136ea040b61f7559f246b599e61150d6134b084bbad6bacf6973",
    "ResNet-50": "07a8d74b81ddea210bcbcc6a6927bff92e1c64ec2b737e7e4fc9e2e258a106b7",
    "SqueezeNet 1.0": "d5f7a11b58dd32e4e328e1d1b020c0fc12dc3e586333894f3c3e7320da7a6b4b",
}
CHILD_KEY = "9c768b8140d5563a21175125d502771edcf13bd859bce6b9b6c9d3ad636e6d88"
CHILD_PARAMS = 2954245


@pytest.fixture()
def producer(tiny_splits):
    """MobileNetV2 with its last two blocks searchable: 15 frozen blocks."""
    producer = BackboneProducer(
        dataset=tiny_splits.train,
        config=ProducerConfig(freeze=False, max_searchable=2),
        num_classes=5,
    )
    producer.prepare()
    assert producer.split_block == 15
    return producer


def _decisions(producer, child):
    """The ``child``-th of a fixed set of distinct decision lists (no SKIP)."""
    return [
        producer.search_space.decode(
            position.stride,
            (child % 3, child % 2, (child + offset) % 5, (3 * child + offset) % 6),
        )
        for offset, position in enumerate(producer.positions)
    ]


def test_registered_zoo_keys_are_unchanged():
    keys = {name: get_architecture(name).cache_key() for name in list_architectures()}
    assert keys == ZOO_KEYS


def test_producer_child_key_is_unchanged(producer):
    space = producer.search_space
    decisions = [space.decode(p.stride, (1, 1, 2, 3)) for p in producer.positions]
    child = producer.describe_child(decisions)
    assert child.cache_key() == CHILD_KEY
    assert child.param_count() == CHILD_PARAMS


def test_keying_children_fingerprints_each_frozen_spec_once(producer, monkeypatch):
    payloads = Counter()
    original = fingerprint.content_fingerprint

    def counting(payload):
        payloads[fingerprint.canonical_json(payload)] += 1
        return original(payload)

    monkeypatch.setattr(fingerprint, "content_fingerprint", counting)
    children = [producer.describe_child(_decisions(producer, k)) for k in range(8)]
    keys = [child.cache_key() for child in children]
    assert len(set(keys)) == 8

    frozen = producer.frozen_block_specs()
    searched = [block for child in children for block in child.blocks[len(frozen) :]]
    # No searched block equals a frozen one, so the counts below are the
    # frozen specs' own.
    assert not set(searched) & set(frozen)
    # Each shared instance is fingerprinted once.  MobileNetV2 repeats some
    # block specs as equal but distinct instances; each of those counts once.
    shared = {id(spec): spec for spec in (producer.backbone.stem, *frozen)}
    expected = Counter(
        fingerprint.canonical_json({"kind": type(spec).__name__, **dataclasses.asdict(spec)})
        for spec in shared.values()
    )
    assert {payload: payloads[payload] for payload in expected} == expected


def test_children_share_the_backbone_classifier(producer):
    first, second = (producer.describe_child(_decisions(producer, k)) for k in (4, 5))
    assert first.cache_key() != second.cache_key()
    assert first.classifier is second.classifier is producer.backbone.classifier


def test_pricing_twice_derives_each_block_op_costs_once(producer, tiny_splits, monkeypatch):
    pipeline = EvaluationPipeline(
        train_dataset=tiny_splits.train,
        validation_dataset=tiny_splits.validation,
        latency_estimator=LatencyEstimator(RASPBERRY_PI_4),
        reward=RewardConfig(timing_constraint_ms=1500.0),
        training=TrainingConfig(epochs=1),
    )
    calls = Counter()
    original = BlockSpec.op_costs

    def counting(self, height, width):
        calls[(id(self), height, width)] += 1
        return original(self, height, width)

    monkeypatch.setattr(BlockSpec, "op_costs", counting)
    child = producer.describe_child(_decisions(producer, 1))
    first, second = pipeline.price(child), pipeline.price(child)
    assert first == second
    # Once at 8x8 for the parameter count, once at the block's input
    # resolution for its latency (none of MobileNetV2's is 8).
    assert {(id(block), 8, 8) for block in child.blocks} <= set(calls)
    assert set(calls.values()) == {1}


def test_the_memo_is_invisible(producer):
    child = producer.describe_child(_decisions(producer, 2))
    fresh = serde.descriptor_from_dict(serde.descriptor_to_dict(child))
    assert child.cache_key() == fresh.cache_key()
    assert child.param_count() == fresh.param_count()

    assert child == fresh
    assert hash(child) == hash(fresh)
    assert repr(child) == repr(fresh)
    assert dataclasses.asdict(child) == dataclasses.asdict(fresh)
    assert serde.descriptor_to_dict(child) == serde.descriptor_to_dict(fresh)
    assert fingerprint.canonical_json(child) == fingerprint.canonical_json(fresh)
    loaded = pickle.loads(pickle.dumps(child))
    assert loaded == fresh and repr(loaded) == repr(fresh)
    assert loaded.cache_key() == fresh.cache_key() == child.cache_key()
    assert loaded.param_count() == fresh.param_count()


def test_replace_computes_its_own_values(producer):
    child = producer.describe_child(_decisions(producer, 3))
    block = child.blocks[0]
    key, params = block.cache_key(), block.param_count()
    wider = dataclasses.replace(block, ch_mid=block.ch_mid + 8)
    assert wider.cache_key() != key and wider.param_count() > params
    assert wider.cache_key() == BlockSpec(**dataclasses.asdict(wider)).cache_key()

    child_key = child.cache_key()
    smaller = dataclasses.replace(child, input_resolution=160)
    assert smaller.cache_key() != child_key
    assert smaller.cache_key() == serde.descriptor_from_dict(
        serde.descriptor_to_dict(smaller)
    ).cache_key()
