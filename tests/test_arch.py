"""Block/stem composition, model assembly, and cost accounting."""

import numpy as np
import pytest

from fedconv.autodiff import NumericsError, Tensor, no_grad
from fedconv.layers import Activation, BatchNorm2d, Conv2d, LayerNormC, Linear, MaxPool2d
from fedconv.models import (ArchConfig, Block, ConfigError, Network,
                            build_stem, calibrate_depths, count_flops,
                            count_params, fedconv_config, fedconv_tiny_config,
                            mean_activation_stat, resnet_m_config)

from helpers import enumerate_conv_macs


def toy_config(**overrides) -> ArchConfig:
    base = dict(stem="conv", block="invert_up", channels=(8, 16, 32, 64),
                depths=(1, 1, 2, 1), kernel_size=9, activation="silu",
                act_placement="act2", norm_placement="none", norm_kind="none",
                num_classes=4, input_resolution=32)
    base.update(overrides)
    return ArchConfig(**base)


class TestBlockComposition:
    def layer_kinds(self, block):
        return [(name, type(layer).__name__) for name, layer in block.layers]

    def test_invert_act1_single_activation_after_expansion(self):
        block = Block("invert", 8, 3, "silu", "act1", "all", "ln")
        names = [n for n, _ in block.layers]
        assert names == ["conv1", "norm1", "act1", "conv2", "norm2", "conv3", "norm3"]
        # conv1 is the expanding 1x1: 8 -> 32
        assert block.layers[0][1].cout == 32

    def test_normal_act3_single_activation_after_final_expansion(self):
        block = Block("normal", 8, 3, "gelu", "act3", "all", "ln")
        names = [n for n, _ in block.layers]
        assert names == ["conv1", "norm1", "conv2", "norm2", "conv3", "norm3", "act3"]
        assert block.layers[4][1].cout == 8  # conv3 projects 2 -> 8

    def test_invert_up_act2_nonorm_param_count(self):
        w, k = 16, 5
        block = Block("invert_up", w, k, "silu", "act2", "none", "none")
        total = sum(t.data.size for _, layer in block.layers
                    for _, t in layer.named_params())
        # depth-wise w*k^2 (+w bias), expand 4w^2 (+4w), project 4w^2 (+w)
        assert total == w * k * k + 8 * w * w + 6 * w

    def test_normal_block_geometry(self):
        block = Block("normal", 16, 3, "relu", "all", "all", "bn")
        convs = [l for _, l in block.layers if isinstance(l, Conv2d)]
        assert [c.cout for c in convs] == [4, 4, 16]
        assert convs[1].groups == 4  # depth-wise middle conv

    def test_invert_hidden_is_four_times_input(self):
        block = Block("invert", 12, 3, "silu", "all", "none", "none")
        convs = [l for _, l in block.layers if isinstance(l, Conv2d)]
        assert [c.cout for c in convs] == [48, 48, 12]
        assert convs[1].groups == 48

    def test_invert_up_places_depthwise_first(self):
        block = Block("invert_up", 12, 9, "silu", "all", "none", "none")
        convs = [l for _, l in block.layers if isinstance(l, Conv2d)]
        assert convs[0].groups == 12 and convs[0].k == 9
        assert [c.cout for c in convs] == [12, 48, 12]

    def test_residual_identity_with_zero_final_conv(self):
        block = Block("invert_up", 8, 3, "silu", "act2", "none", "none")
        rng = np.random.default_rng(0)
        for _, layer in block.layers:
            layer.init_params(rng)
        final = [l for _, l in block.layers if isinstance(l, Conv2d)][-1]
        final.weight.data[...] = 0
        final.bias.data[...] = 0
        x = rng.standard_normal((2, 8, 6, 6)).astype(np.float32)
        out = block.forward(Tensor(x))
        np.testing.assert_array_equal(out.data, x)

    def test_bad_width_for_normal_block(self):
        with pytest.raises(ConfigError):
            Block("normal", 10, 3, "relu", "all", "all", "ln")


class TestStems:
    @pytest.mark.parametrize("kind", ["resnet", "swin", "conv", "swin_k5", "resnet_nopool"])
    @pytest.mark.parametrize("res", [32, 64])
    def test_every_stem_downsamples_4x(self, kind, res):
        layers = build_stem(kind, 16, "silu", "ln")
        h = w = res
        for _, layer in layers:
            h, w = layer.out_hw(h, w)
        assert (h, w) == (res // 4, res // 4)

    def test_swin_stem_is_bare_patchify(self):
        layers = build_stem("swin", 16, "silu", "ln")
        assert len(layers) == 1
        conv = layers[0][1]
        assert (conv.k, conv.stride, conv.padding) == (4, 4, 0)

    def test_swin_k5_overlaps_patches(self):
        conv = build_stem("swin_k5", 16, "silu", "none")[0][1]
        assert conv.k == 5 and conv.stride == 4 and conv.padding == 2
        assert conv.k > conv.stride

    def test_conv_stem_overlapping_and_conv_only(self):
        layers = build_stem("conv", 16, "silu", "none")
        convs = [l for _, l in layers if isinstance(l, Conv2d)]
        assert [c.cout for c in convs] == [8, 16]
        assert all(c.k > c.stride for c in convs)  # overlapping patches
        assert not any(isinstance(l, MaxPool2d) for _, l in layers)
        assert not any(isinstance(l, (LayerNormC, BatchNorm2d)) for _, l in layers)

    def test_resnet_stem_has_pool_nopool_does_not(self):
        with_pool = build_stem("resnet", 16, "gelu", "ln")
        assert any(isinstance(l, MaxPool2d) for _, l in with_pool)
        nopool = build_stem("resnet_nopool", 16, "gelu", "ln")
        assert not any(isinstance(l, MaxPool2d) for _, l in nopool)
        assert nopool[0][1].stride == 4

    def test_resnet_nopool_output_size_at_224(self):
        conv = build_stem("resnet_nopool", 16, "gelu", "ln")[0][1]
        assert conv.out_hw(224, 224) == (56, 56)


class TestNetwork:
    @pytest.mark.parametrize("res", [32, 64, 224])
    def test_model_maps_input_to_logits(self, res):
        cfg = toy_config(channels=(4, 8, 8, 8), depths=(1, 1, 1, 1),
                         kernel_size=3, input_resolution=res)
        net = Network(cfg)
        net.init_params(np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((2, 3, res, res)).astype(np.float32)
        with no_grad():
            out = net.forward(Tensor(x))
        assert out.shape == (2, 4)

    @pytest.mark.parametrize("stem", ["resnet", "swin", "conv", "swin_k5", "resnet_nopool"])
    @pytest.mark.parametrize("norm_kind,norm_placement", [("ln", "all"), ("bn", "all"), ("none", "none")])
    def test_variants_build_and_run(self, stem, norm_kind, norm_placement):
        cfg = toy_config(stem=stem, channels=(8, 8, 8, 8), depths=(1, 1, 1, 1),
                         kernel_size=3, norm_kind=norm_kind,
                         norm_placement=norm_placement, activation="gelu",
                         act_placement="all")
        net = Network(cfg)
        net.init_params(np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((1, 3, 32, 32)).astype(np.float32)
        with no_grad():
            assert net.forward(Tensor(x)).shape == (1, 4)

    def test_registry_is_stable_and_unique(self):
        cfg = toy_config()
        names_a = list(Network(cfg).named_parameters().keys())
        names_b = list(Network(cfg).named_parameters().keys())
        assert names_a == names_b
        assert len(names_a) == len(set(names_a))

    def test_registry_is_bijection_onto_tensors(self):
        net = Network(toy_config())
        params = net.named_parameters()
        ids = {id(t) for t in params.values()}
        assert len(ids) == len(params)

    def test_state_dict_round_trip(self):
        net = Network(toy_config(norm_kind="bn", norm_placement="all"))
        net.init_params(np.random.default_rng(3))
        state = net.state_dict()
        other = Network(net.cfg)
        other.load_state_dict(state)
        for n, v in other.state_dict().items():
            np.testing.assert_array_equal(v, state[n])

    @pytest.mark.parametrize("name", ["head.bias", "stem.conv1.weight"])
    def test_load_state_dict_rejects_wrong_shape(self, name):
        # A mismatched entry used to broadcast silently: a head bias of
        # [0.5] loaded as [0.5 0.5 0.5 0.5].
        net = Network(toy_config())
        before = net.state_dict()
        state = dict(before)
        state[name] = np.full((1,) * before[name].ndim, 0.5,
                              dtype=before[name].dtype)
        with pytest.raises(ConfigError) as err:
            net.load_state_dict(state)
        assert name in str(err.value)
        assert str(state[name].shape) in str(err.value)
        assert str(before[name].shape) in str(err.value)
        for n, v in net.state_dict().items():
            assert v.tobytes() == before[n].tobytes()

    def test_fedconv_default_structure(self):
        cfg = fedconv_tiny_config()
        net = Network(cfg)
        assert cfg.kernel_size == 9 and cfg.activation == "silu" and cfg.stem == "conv"
        norm_layers = [n for n, l in net.iter_layers()
                       if isinstance(l, (LayerNormC, BatchNorm2d))]
        assert norm_layers == []
        # exactly one activation inside every block
        for i, (down, blocks) in enumerate(net.stages):
            for j, block in enumerate(blocks):
                acts = [n for n, l in block.layers if isinstance(l, Activation)]
                assert acts == ["act2"], (i, j)

    def test_resnet_m_preset(self):
        cfg = resnet_m_config(channels=(8, 8, 8, 8), depths=(1, 1, 1, 1),
                              num_classes=4, input_resolution=32)
        assert (cfg.stem, cfg.block, cfg.kernel_size) == ("resnet", "normal", 3)
        assert (cfg.activation, cfg.norm_kind) == ("gelu", "ln")
        net = Network(cfg)
        assert any(isinstance(l, LayerNormC) for _, l in net.iter_layers())

    def test_fedbn_target_config_has_bn(self):
        cfg = toy_config(norm_kind="bn", norm_placement="all", channels=(8, 8, 8, 8),
                         depths=(1, 1, 1, 1), kernel_size=3)
        net = Network(cfg)
        assert net.bn_param_names()
        assert all(".running_" in n or n.endswith((".gamma", ".beta"))
                   for n in net.bn_param_names())

    def test_norm_kind_none_forces_placement(self):
        cfg = toy_config(norm_placement="all", norm_kind="none")
        assert cfg.norm_placement == "none"

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigError):
            toy_config(kernel_size=4).validate()
        with pytest.raises(ConfigError):
            toy_config(input_resolution=40).validate()
        with pytest.raises(ConfigError):
            toy_config(depths=(0, 1, 1, 1)).validate()
        with pytest.raises(ConfigError):
            toy_config(block="normal", channels=(6, 12, 24, 48)).validate()

    @pytest.mark.parametrize("param,path,op", [
        ("stem.conv1.weight", "stem.conv1", "conv2d"),
        ("stages.2.down.conv.bias", "stages.2.down.conv", "conv2d"),
        ("stages.2.blocks.1.conv3.weight", "stages.2.blocks.1.conv3", "conv2d"),
        ("stages.2.blocks.1.act2.alpha", "stages.2.blocks.1.act2", "prelu"),
        ("head.weight", "head", "linear")])
    def test_numerics_error_names_the_layer(self, param, path, op):
        # The error named only the op, not the layer it surfaced in.
        net = Network(toy_config(activation="prelu"))
        net.init_params(np.random.default_rng(0))
        net.named_parameters()[param].data[...] = np.nan
        x = np.random.default_rng(1).standard_normal((2, 3, 32, 32)).astype(np.float32)
        with pytest.raises(NumericsError) as exc, no_grad():
            net.forward(Tensor(x))
        assert str(exc.value) == (
            f"layer {path}: non-finite values produced by node '{op}'")


class TestCostAccounting:
    def test_one_by_one_conv_macs_definition(self):
        conv = Conv2d(8, 8, 1)
        assert conv.macs(7, 7) == 8 * 8 * 7 * 7

    def test_three_by_three_case(self):
        conv = Conv2d(2, 4, 3, stride=1, padding=1)
        # 4 filters x 64 positions x 2 channels x 9 taps
        assert conv.macs(8, 8) == 4608
        assert conv.macs(8, 8) == enumerate_conv_macs(4, 2, 3, 8, 8)

    def test_count_flops_matches_enumeration_small_resolutions(self):
        # Walk the same layer sequence but count MACs with literal loops.
        for cfg in [toy_config(channels=(4, 8, 8, 8), depths=(1, 1, 1, 1),
                               kernel_size=3, input_resolution=32),
                    toy_config(stem="resnet", block="normal",
                               channels=(8, 8, 8, 8), depths=(1, 1, 1, 1),
                               kernel_size=3, norm_kind="ln",
                               norm_placement="all", input_resolution=32)]:
            net = Network(cfg)
            h = w = cfg.input_resolution
            total = 0
            for _, layer in net.iter_layers():
                if isinstance(layer, Conv2d):
                    ho, wo = layer.out_hw(h, w)
                    total += enumerate_conv_macs(layer.cout, layer.cin // layer.groups,
                                                 layer.k, ho, wo)
                elif isinstance(layer, Linear):
                    total += layer.cin * layer.cout
                h, w = layer.out_hw(h, w)
            assert count_flops(cfg) == total

    def test_full_scale_params_and_flops_anchors(self):
        cfg = fedconv_config()
        params = count_params(cfg)
        flops = count_flops(cfg)
        assert abs(params - 25.6e6) <= 0.15 * 25.6e6
        assert abs(flops - 4.6e9) <= 0.15 * 4.6e9

    def test_calibrate_fixed_point(self):
        cfg = toy_config(channels=(4, 8, 8, 8), depths=(1, 1, 3, 1), kernel_size=3)
        target = count_flops(cfg)
        assert calibrate_depths(cfg, target, 0.01) == (1, 1, 3, 1)

    def test_calibrate_huge_tolerance_gives_minimal_depths(self):
        cfg = toy_config(channels=(4, 8, 8, 8), kernel_size=3)
        target = count_flops(cfg)
        assert calibrate_depths(cfg, target, 1.0) == (1, 1, 3, 1)

    def test_calibrate_matches_exhaustive_sweep(self):
        from dataclasses import replace
        cfg = toy_config(channels=(4, 8, 8, 8), kernel_size=3)
        target = count_flops(replace(cfg, depths=(4, 4, 12, 4)))
        sweep = {m: count_flops(replace(cfg, depths=(m, m, 3 * m, m)))
                 for m in range(1, 9)}
        feasible = [m for m, f in sweep.items() if abs(f - target) <= 0.05 * target]
        assert calibrate_depths(cfg, target, 0.05) == tuple(
            d * min(feasible) for d in (1, 1, 3, 1))

    def test_calibrate_infeasible_raises(self):
        cfg = toy_config(channels=(4, 8, 8, 8), kernel_size=3)
        with pytest.raises(ConfigError):
            calibrate_depths(cfg, 10, 0.01)


class TestActivationStats:
    def _tiny(self, activation):
        cfg = toy_config(channels=(4, 4, 4, 4), depths=(1, 1, 1, 1),
                         kernel_size=3, activation=activation,
                         act_placement="all")
        net = Network(cfg)
        net.init_params(np.random.default_rng(0))
        return net

    def test_relu_model_means_nonnegative(self):
        net = self._tiny("relu")
        batch = np.random.default_rng(1).standard_normal((4, 3, 32, 32))
        means, overall = mean_activation_stat(net, batch)
        assert means and all(v >= 0 for v in means.values())
        assert overall >= 0

    def test_softplus_model_means_positive(self):
        net = self._tiny("softplus")
        batch = np.random.default_rng(1).standard_normal((4, 3, 32, 32))
        means, overall = mean_activation_stat(net, batch)
        assert all(v > 0 for v in means.values())
        assert overall > 0

    def test_silu_closer_to_zero_than_softplus_on_unit_gaussian(self):
        # Monte-Carlo oracle on the raw curves.
        from fedconv.autodiff import silu as silu_op, softplus as softplus_op
        z = np.random.default_rng(7).standard_normal(10**6)
        silu_mean = float(silu_op(Tensor(z.reshape(1, -1))).data.mean())
        softplus_mean = float(softplus_op(Tensor(z.reshape(1, -1))).data.mean())
        assert abs(silu_mean) < softplus_mean
