"""Tests for the architecture zoo: descriptors, parameter counts, builders."""

from __future__ import annotations

import numpy as np
import pytest

from repro.blocks.spec import BlockSpec, ClassifierSpec, StemSpec
from repro.experiments import paper_values
from repro.zoo import (
    ArchitectureDescriptor,
    GROUP_LARGE,
    GROUP_SMALL,
    HeadSpec,
    get_architecture,
    list_architectures,
    register_architecture,
)
from repro.zoo.stages import inverted_residual_stage, make_divisible, residual_stage

ALL_PAPER_NETWORKS = list(paper_values.TABLE3)


class TestRegistry:
    def test_all_paper_networks_registered(self):
        registered = set(list_architectures())
        for name in ALL_PAPER_NETWORKS:
            assert name in registered

    def test_squeezenet_registered(self):
        assert "SqueezeNet 1.0" in list_architectures()

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            get_architecture("NotANetwork")

    def test_groups_partition_table3(self):
        assert set(GROUP_SMALL) | set(GROUP_LARGE) == set(ALL_PAPER_NETWORKS)
        assert not set(GROUP_SMALL) & set(GROUP_LARGE)

    def test_group_small_under_4m_parameters(self):
        for name in GROUP_SMALL:
            assert get_architecture(name).param_count() < 4_000_000, name

    def test_group_large_over_4m_parameters(self):
        for name in GROUP_LARGE:
            assert get_architecture(name).param_count() >= 4_000_000, name

    def test_register_custom_architecture(self, tiny_backbone):
        name = "UnitTestNet"
        if name not in list_architectures():
            register_architecture(name, lambda num_classes=5: tiny_backbone)
        assert get_architecture(name).name == "TinyBackbone"

    def test_register_duplicate_raises(self, tiny_backbone):
        with pytest.raises(ValueError):
            register_architecture("MobileNetV2", lambda: tiny_backbone)


class TestParameterCounts:
    @pytest.mark.parametrize("name", ALL_PAPER_NETWORKS)
    def test_param_count_within_10_percent_of_paper(self, name):
        descriptor = get_architecture(name)
        paper = paper_values.TABLE3[name]["params"]
        assert abs(descriptor.param_count() - paper) / paper < 0.10, name

    def test_exact_match_networks_within_1_percent(self):
        for name in ("MobileNetV2", "MnasNet 0.5", "MnasNet 1.0", "ResNet-18",
                     "ResNet-34", "ResNet-50", "ProxylessNAS(M)"):
            descriptor = get_architecture(name)
            paper = paper_values.TABLE3[name]["params"]
            assert abs(descriptor.param_count() - paper) / paper < 0.01, name

    def test_size_ordering_matches_paper(self):
        sizes = {n: get_architecture(n).param_count() for n in ALL_PAPER_NETWORKS}
        paper_sizes = {n: paper_values.TABLE3[n]["params"] for n in ALL_PAPER_NETWORKS}
        assert sorted(sizes, key=sizes.get) == sorted(paper_sizes, key=paper_sizes.get)

    def test_storage_is_params_times_four_bytes(self):
        descriptor = get_architecture("MobileNetV2")
        assert descriptor.storage_mb() == pytest.approx(
            descriptor.param_count() * 4 / 1e6
        )

    def test_num_classes_changes_classifier_only(self):
        base = get_architecture("ResNet-18", num_classes=5).param_count()
        more = get_architecture("ResNet-18", num_classes=10).param_count()
        assert more - base == 512 * 5 + 5


class TestDescriptorValidation:
    def test_channel_chain_mismatch_raises(self):
        with pytest.raises(ValueError):
            ArchitectureDescriptor(
                name="bad",
                stem=StemSpec(3, 8),
                blocks=(BlockSpec("DB", 16, 16, 16),),
                head=HeadSpec(16, 16),
                classifier=ClassifierSpec(16, 5),
            )

    def test_head_mismatch_raises(self):
        with pytest.raises(ValueError):
            ArchitectureDescriptor(
                name="bad",
                stem=StemSpec(3, 8),
                blocks=(BlockSpec("DB", 8, 8, 8),),
                head=HeadSpec(16, 16),
                classifier=ClassifierSpec(16, 5),
            )

    def test_classifier_mismatch_raises(self):
        with pytest.raises(ValueError):
            ArchitectureDescriptor(
                name="bad",
                stem=StemSpec(3, 8),
                blocks=(BlockSpec("DB", 8, 8, 8),),
                head=HeadSpec(8, 16),
                classifier=ClassifierSpec(32, 5),
            )

    def test_empty_blocks_raises(self):
        with pytest.raises(ValueError):
            ArchitectureDescriptor(
                name="bad",
                stem=StemSpec(3, 8),
                blocks=(),
                head=HeadSpec(8, 8),
                classifier=ClassifierSpec(8, 5),
            )

    def test_depth_ignores_skip_blocks(self, tiny_backbone):
        blocks = tiny_backbone.blocks[:1] + (BlockSpec("SKIP", 8, 8, 8),) + tiny_backbone.blocks[1:]
        descriptor = tiny_backbone.with_blocks(blocks)
        assert descriptor.depth() == tiny_backbone.depth()

    def test_with_blocks_adjusts_head_and_classifier(self, tiny_backbone):
        new_blocks = (
            BlockSpec("DB", 8, 16, 8),
            BlockSpec("MB", 8, 24, 48, stride=2),
        )
        descriptor = tiny_backbone.with_blocks(new_blocks, name="modified")
        assert descriptor.name == "modified"
        assert descriptor.head.ch_in == 48
        assert descriptor.classifier.ch_in == descriptor.head.ch_out

    def test_macs_positive_and_resolution_dependent(self, tiny_backbone):
        assert tiny_backbone.macs(224) > tiny_backbone.macs(64) > 0

    def test_describe_mentions_every_block(self, tiny_backbone):
        description = tiny_backbone.describe()
        for block in tiny_backbone.blocks:
            assert block.describe() in description


class TestModelBuilding:
    def test_tiny_backbone_builds_and_runs(self, tiny_backbone, rng):
        model = tiny_backbone.build(num_classes=5, width_multiplier=0.5, rng=0)
        out = model.forward(rng.normal(size=(2, 3, 16, 16)))
        assert out.shape == (2, 5)

    def test_backward_shape(self, tiny_backbone, rng):
        model = tiny_backbone.build(num_classes=5, width_multiplier=0.5, rng=0)
        out = model.forward(rng.normal(size=(2, 3, 16, 16)))
        grad = model.backward(np.ones_like(out))
        assert grad.shape == (2, 3, 16, 16)

    def test_width_multiplier_shrinks_model(self, tiny_backbone):
        full = tiny_backbone.build(num_classes=5, width_multiplier=1.0, rng=0)
        half = tiny_backbone.build(num_classes=5, width_multiplier=0.5, rng=0)
        assert half.num_parameters() < full.num_parameters()

    def test_full_width_build_matches_analytic_count(self, tiny_backbone):
        model = tiny_backbone.build(num_classes=5, width_multiplier=1.0, rng=0)
        assert model.num_parameters() == tiny_backbone.param_count()

    def test_build_is_deterministic_given_seed(self, tiny_backbone):
        a = tiny_backbone.build(num_classes=5, rng=7)
        b = tiny_backbone.build(num_classes=5, rng=7)
        for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            np.testing.assert_allclose(pa.data, pb.data)

    def test_build_around_a_prefix_keeps_the_tail_weights(self, tiny_backbone):
        full = tiny_backbone.build(num_classes=5, width_multiplier=0.5, rng=7)
        prefix = list(tiny_backbone.build(num_classes=5, width_multiplier=0.5, rng=1))[:3]
        model = tiny_backbone.build(
            num_classes=5, width_multiplier=0.5, rng=7, prefix=prefix
        )
        assert len(model) == len(full)
        assert all(model[i] is prefix[i] for i in range(3))
        for index in range(3, len(full)):
            built = [p.data.tobytes() for p in model[index].parameters()]
            assert built == [p.data.tobytes() for p in full[index].parameters()]

    def test_build_rejects_a_prefix_longer_than_the_blocks(self, tiny_backbone):
        stages = list(tiny_backbone.build(num_classes=5, width_multiplier=0.5, rng=0))
        with pytest.raises(ValueError, match="prefix"):
            tiny_backbone.build(width_multiplier=0.5, prefix=stages[:6])

    def test_mobilenetv3_with_hidden_classifier_builds(self, rng):
        descriptor = get_architecture("MobileNetV3(S)")
        model = descriptor.build(num_classes=5, width_multiplier=0.125, rng=0)
        assert model.forward(rng.normal(size=(1, 3, 32, 32))).shape == (1, 5)

    @pytest.mark.parametrize("name", ["MobileNetV2", "MnasNet 0.5", "FaHaNa-Small",
                                      "FaHaNa-Fair", "SqueezeNet 1.0", "ResNet-18"])
    def test_zoo_models_forward_at_reduced_scale(self, name, rng):
        descriptor = get_architecture(name)
        model = descriptor.build(num_classes=5, width_multiplier=0.125, rng=0)
        assert model.forward(rng.normal(size=(1, 3, 32, 32))).shape == (1, 5)


class TestStages:
    def test_make_divisible_multiple_of_8(self):
        assert make_divisible(37) % 8 == 0

    def test_make_divisible_does_not_shrink_much(self):
        assert make_divisible(100) >= 90

    def test_make_divisible_invalid(self):
        with pytest.raises(ValueError):
            make_divisible(0)

    def test_inverted_stage_first_block_has_stride(self):
        blocks = inverted_residual_stage(16, 24, 6, 3, 2)
        assert blocks[0].block_type == "MB" and blocks[0].stride == 2
        assert all(b.block_type == "DB" for b in blocks[1:])

    def test_inverted_stage_channel_chaining(self):
        blocks = inverted_residual_stage(16, 24, 6, 3, 2)
        assert blocks[0].ch_in == 16
        assert all(b.ch_in == 24 for b in blocks[1:])
        assert all(b.ch_out == 24 for b in blocks)

    def test_inverted_stage_expansion_follows_input(self):
        blocks = inverted_residual_stage(16, 24, 6, 2, 2)
        assert blocks[0].ch_mid == 96
        assert blocks[1].ch_mid == 144

    def test_residual_stage_bottleneck_flag(self):
        blocks = residual_stage(64, 256, 3, 1, bottleneck=True, bottleneck_mid=64)
        assert all(b.block_type == "RBB" for b in blocks)
        assert blocks[0].ch_mid == 64

    def test_residual_stage_invalid_repeats(self):
        with pytest.raises(ValueError):
            residual_stage(64, 64, 0, 1)

    def test_fahana_fair_uses_larger_tail_blocks(self):
        descriptor = get_architecture("FaHaNa-Fair")
        tail = descriptor.blocks[-2:]
        assert all(block.block_type in ("RB", "CB") for block in tail)

    def test_fahana_small_is_smallest_g1_network(self):
        sizes = {name: get_architecture(name).param_count() for name in GROUP_SMALL}
        assert min(sizes, key=sizes.get) == "FaHaNa-Small"
