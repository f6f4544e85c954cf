"""Declarative CNN construction and cost accounting.

A model is described by an ``ArchConfig``: stem kind, block kind, stage
widths/depths, kernel size, activation kind and placement, normalization
kind and placement. ``Network`` assembles the layers, exposes a stable
name -> parameter registry (needed for federated aggregation) whose
parameters live in one flat weight and one flat gradient vector, and supports
exact parameter and multiply-accumulate counting straight off the layer
geometry.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .layers import (Activation, BatchNorm2d, Conv2d, GlobalAvgPool, Layer,
                     LayerNormC, Linear, MaxPool2d)
from .optim import ParamArena

BLOCK_KINDS = ("normal", "invert", "invert_up")
STEM_KINDS = ("resnet", "swin", "conv", "swin_k5", "resnet_nopool")
ACT_PLACEMENTS = ("all", "act1", "act2", "act3")
NORM_PLACEMENTS = ("all", "norm1", "norm2", "norm3", "none")
NORM_KINDS = ("ln", "bn", "none")

# Best single-activation position per block kind: after the channel-expanding
# convolution.
BEST_SINGLE_ACT = {"normal": "act3", "invert": "act1", "invert_up": "act2"}


class ConfigError(ValueError):
    """An ArchConfig violates its invariants."""


@dataclass(frozen=True)
class ArchConfig:
    stem: str
    block: str
    channels: tuple[int, int, int, int]
    depths: tuple[int, int, int, int]
    kernel_size: int
    activation: str
    act_placement: str
    norm_placement: str
    norm_kind: str
    num_classes: int
    input_resolution: int

    def __post_init__(self):
        object.__setattr__(self, "channels", tuple(int(c) for c in self.channels))
        object.__setattr__(self, "depths", tuple(int(d) for d in self.depths))
        if self.norm_kind == "none":
            # A missing normalizer forces the in-block placement to none.
            object.__setattr__(self, "norm_placement", "none")

    def validate(self) -> None:
        errs = []
        if self.stem not in STEM_KINDS:
            errs.append(f"stem must be one of {STEM_KINDS}, got {self.stem!r}")
        if self.block not in BLOCK_KINDS:
            errs.append(f"block must be one of {BLOCK_KINDS}, got {self.block!r}")
        if len(self.channels) != 4 or any(c < 2 for c in self.channels):
            errs.append("channels must be 4 stage widths >= 2")
        if self.block == "normal" and any(c % 4 for c in self.channels):
            errs.append("normal blocks need widths divisible by 4")
        if len(self.depths) != 4 or any(d < 1 for d in self.depths):
            errs.append("depths must be 4 positive block counts")
        if self.kernel_size < 3 or self.kernel_size % 2 == 0:
            errs.append("kernel_size must be odd and >= 3")
        if self.activation not in ad.ACTIVATION_KINDS:
            errs.append(f"activation must be one of {ad.ACTIVATION_KINDS}")
        if self.act_placement not in ACT_PLACEMENTS:
            errs.append(f"act_placement must be one of {ACT_PLACEMENTS}")
        if self.norm_placement not in NORM_PLACEMENTS:
            errs.append(f"norm_placement must be one of {NORM_PLACEMENTS}")
        if self.norm_kind not in NORM_KINDS:
            errs.append(f"norm_kind must be one of {NORM_KINDS}")
        if self.num_classes < 2:
            errs.append("num_classes must be >= 2")
        if self.input_resolution < 32 or self.input_resolution % 32:
            errs.append("input_resolution must be a positive multiple of 32")
        if errs:
            raise ConfigError("; ".join(errs))


def _make_norm(kind: str, c: int, dtype) -> Layer:
    if kind == "ln":
        return LayerNormC(c, dtype=dtype)
    if kind == "bn":
        return BatchNorm2d(c, dtype=dtype)
    raise ConfigError(f"no normalizer of kind {kind!r}")


def _block_convs(kind: str, width: int, k: int, dtype):
    """The three convolutions of a block, with their output widths."""
    pad = (k - 1) // 2
    if kind == "normal":
        mid = width // 4
        return [
            ("conv1", Conv2d(width, mid, 1, dtype=dtype), mid),
            ("conv2", Conv2d(mid, mid, k, padding=pad, groups=mid, dtype=dtype), mid),
            ("conv3", Conv2d(mid, width, 1, dtype=dtype), width),
        ]
    if kind == "invert":
        hid = 4 * width
        return [
            ("conv1", Conv2d(width, hid, 1, dtype=dtype), hid),
            ("conv2", Conv2d(hid, hid, k, padding=pad, groups=hid, dtype=dtype), hid),
            ("conv3", Conv2d(hid, width, 1, dtype=dtype), width),
        ]
    if kind == "invert_up":
        hid = 4 * width
        return [
            ("conv1", Conv2d(width, width, k, padding=pad, groups=width, dtype=dtype), width),
            ("conv2", Conv2d(width, hid, 1, dtype=dtype), hid),
            ("conv3", Conv2d(hid, width, 1, dtype=dtype), width),
        ]
    raise ConfigError(f"unknown block kind {kind!r}")


class Block:
    """Residual block: three convolutions with configurable norm/activation
    insertion after each, plus an identity shortcut around the whole branch."""

    def __init__(self, kind, width, kernel_size, activation, act_placement,
                 norm_placement, norm_kind, dtype=np.float32):
        if kind == "normal" and width % 4:
            raise ConfigError("normal block width must be divisible by 4")
        if act_placement not in ACT_PLACEMENTS:
            raise ConfigError(f"bad act placement {act_placement!r}")
        if norm_placement not in NORM_PLACEMENTS:
            raise ConfigError(f"bad norm placement {norm_placement!r}")
        self.kind = kind
        self.layers: list[tuple[str, Layer]] = []
        for pos, (name, conv, out_ch) in enumerate(_block_convs(kind, width, kernel_size, dtype),
                                                   start=1):
            self.layers.append((name, conv))
            if norm_kind != "none" and norm_placement in ("all", f"norm{pos}"):
                self.layers.append((f"norm{pos}", _make_norm(norm_kind, out_ch, dtype)))
            if act_placement in ("all", f"act{pos}"):
                self.layers.append((f"act{pos}", Activation(activation, out_ch, dtype=dtype)))

    def forward(self, x: Tensor) -> Tensor:
        h = x
        for _, layer in self.layers:
            h = layer.forward(h)
        return ad.add(x, h)


def build_stem(kind: str, out_width: int, activation: str, norm_kind: str,
               dtype=np.float32) -> list[tuple[str, Layer]]:
    """Stem layer sequence; every variant downsamples the input by exactly 4x."""
    layers: list[tuple[str, Layer]] = []
    if kind in ("resnet", "resnet_nopool"):
        stride = 2 if kind == "resnet" else 4
        layers.append(("conv1", Conv2d(3, out_width, 7, stride=stride, padding=3, dtype=dtype)))
        if norm_kind != "none":
            layers.append(("norm1", _make_norm(norm_kind, out_width, dtype)))
        layers.append(("act1", Activation(activation, out_width, dtype=dtype)))
        if kind == "resnet":
            layers.append(("pool", MaxPool2d(3, 2, padding=1)))
    elif kind == "swin":
        layers.append(("conv1", Conv2d(3, out_width, 4, stride=4, padding=0, dtype=dtype)))
    elif kind == "swin_k5":
        layers.append(("conv1", Conv2d(3, out_width, 5, stride=4, padding=2, dtype=dtype)))
    elif kind == "conv":
        half = out_width // 2
        layers.append(("conv1", Conv2d(3, half, 3, stride=2, padding=1, dtype=dtype)))
        if norm_kind != "none":
            layers.append(("norm1", _make_norm(norm_kind, half, dtype)))
        layers.append(("act1", Activation(activation, half, dtype=dtype)))
        layers.append(("conv2", Conv2d(half, out_width, 3, stride=2, padding=1, dtype=dtype)))
    else:
        raise ConfigError(f"unknown stem kind {kind!r}")
    return layers


class Network:
    """Stem -> 4 stages (2x conv downsampling between stages) -> global
    average pool -> optional channel layer norm -> linear head.

    Parameter names are stable, ordered, and unique; two networks built from
    the same config expose identical registries. The registry is a
    `ParamArena`: every parameter's data and gradient are views into its two
    flat vectors.
    """

    def __init__(self, cfg: ArchConfig, dtype=np.float32):
        cfg.validate()
        self.cfg = cfg
        self.dtype = np.dtype(dtype)
        c = cfg.channels
        self.stem = build_stem(cfg.stem, c[0], cfg.activation, cfg.norm_kind, dtype)
        self.stages: list[tuple[list[tuple[str, Layer]], list[Block]]] = []
        for i in range(4):
            down: list[tuple[str, Layer]] = []
            if i > 0:
                if cfg.norm_kind != "none":
                    down.append(("norm", _make_norm(cfg.norm_kind, c[i - 1], dtype)))
                down.append(("conv", Conv2d(c[i - 1], c[i], 2, stride=2, dtype=dtype)))
            blocks = [Block(cfg.block, c[i], cfg.kernel_size, cfg.activation,
                            cfg.act_placement, cfg.norm_placement, cfg.norm_kind, dtype)
                      for _ in range(cfg.depths[i])]
            self.stages.append((down, blocks))
        self.pool = GlobalAvgPool()
        self.final_norm = LayerNormC(c[3], dtype=dtype) if cfg.norm_kind != "none" else None
        self.head = Linear(c[3], cfg.num_classes, dtype=dtype)
        self._leaves = self._collect_leaves()
        self._params = ParamArena(
            (f"{lname}.{pname}", t)
            for lname, layer in self._leaves
            for pname, t in layer.named_params())
        self._buffers = OrderedDict(
            (f"{lname}.{bname}", buf)
            for lname, layer in self._leaves
            for bname, buf in layer.named_buffers())

    def _collect_leaves(self) -> list[tuple[str, Layer]]:
        leaves = [(f"stem.{n}", l) for n, l in self.stem]
        for i, (down, blocks) in enumerate(self.stages):
            leaves.extend((f"stages.{i}.down.{n}", l) for n, l in down)
            for j, block in enumerate(blocks):
                leaves.extend((f"stages.{i}.blocks.{j}.{n}", l) for n, l in block.layers)
        leaves.append(("pool", self.pool))
        if self.final_norm is not None:
            leaves.append(("final_norm", self.final_norm))
        leaves.append(("head", self.head))
        return leaves

    # -- execution ---------------------------------------------------------

    def forward(self, x: Tensor) -> Tensor:
        h = x
        for _, layer in self.stem:
            h = layer.forward(h)
        for down, blocks in self.stages:
            for _, layer in down:
                h = layer.forward(h)
            for block in blocks:
                h = block.forward(h)
        h = self.pool.forward(h)
        if self.final_norm is not None:
            h = self.final_norm.forward(h)
        return self.head.forward(h)

    def train(self) -> "Network":
        for _, layer in self._leaves:
            layer.training = True
        return self

    def eval(self) -> "Network":
        for _, layer in self._leaves:
            layer.training = False
        return self

    # -- registry ----------------------------------------------------------

    def iter_layers(self):
        return iter(self._leaves)

    def macs(self) -> int:
        """Multiply-accumulates of the conv and linear layers for one sample
        at the configured input resolution."""
        h = w = self.cfg.input_resolution
        total = 0
        for _, layer in self._leaves:
            total += layer.macs(h, w)
            h, w = layer.out_hw(h, w)
        return int(total)

    def named_parameters(self) -> ParamArena:
        return self._params

    def named_buffers(self) -> OrderedDict:
        return self._buffers

    def bn_param_names(self) -> set[str]:
        return {f"{lname}.{n}" for lname, layer in self._leaves
                if isinstance(layer, BatchNorm2d)
                for n, _ in layer.named_params() + layer.named_buffers()}

    def head_param_names(self) -> set[str]:
        return {"head.weight", "head.bias"}

    def init_params(self, rng: np.random.Generator) -> None:
        for _, layer in self._leaves:
            layer.init_params(rng)

    def zero_grad(self) -> None:
        self._params.grad.fill(0)

    def state_dict(self) -> OrderedDict:
        state = OrderedDict((n, t.data.copy()) for n, t in self._params.items())
        state.update((n, b.copy()) for n, b in self._buffers.items())
        return state

    def load_state_dict(self, state: dict) -> None:
        """Copy every parameter and buffer from `state`. Each must be present
        with the model's shape; nothing is copied unless all are."""
        targets = [(n, t.data) for n, t in self._params.items()]
        targets += self._buffers.items()
        missing = [n for n, _ in targets if n not in state]
        if missing:
            raise ConfigError(f"state dict missing entries: {missing[:4]}")
        for n, dst in targets:
            if np.shape(state[n]) != dst.shape:
                raise ConfigError(f"state dict entry {n!r} has shape "
                                  f"{np.shape(state[n])}, the model expects {dst.shape}")
        for n, dst in targets:
            dst[...] = state[n]


# ---------------------------------------------------------------------------
# cost accounting
# ---------------------------------------------------------------------------

def count_params(cfg: ArchConfig) -> int:
    """Trainable parameters only (batch-norm running statistics excluded)."""
    return int(Network(cfg).named_parameters().data.size)


def count_flops(cfg: ArchConfig) -> int:
    """Multiply-accumulates (1 MAC = 1 FLOP) of conv and linear layers for a
    single sample at the configured input resolution."""
    return Network(cfg).macs()


def calibrate_depths(cfg: ArchConfig, target_flops: int,
                     tolerance: float) -> tuple[int, int, int, int]:
    """Search depth multipliers 1..16 over the base ratio (1, 1, 3, 1) and
    return the depths whose FLOPs land within `tolerance` (relative) of the
    target. Smallest total depth wins ties; raises if no multiplier fits."""
    if target_flops <= 0 or tolerance < 0:
        raise ConfigError("calibrate_depths: positive target and tolerance required")
    for m in range(1, 17):
        depths = (m, m, 3 * m, m)
        flops = count_flops(replace(cfg, depths=depths))
        if abs(flops - target_flops) <= tolerance * target_flops:
            return depths
        if flops > target_flops * (1 + tolerance):
            break  # flops grow monotonically with the multiplier
    raise ConfigError(
        f"no depth multiplier reaches {target_flops} FLOPs within {tolerance:.0%}")


def mean_activation_stat(model: Network, batch: np.ndarray):
    """Mean output of every activation layer over one batch, plus the uniform
    mean across layers. Runs in eval mode without building a graph."""
    acts = [(name, layer) for name, layer in model.iter_layers()
            if isinstance(layer, Activation)]
    for _, layer in acts:
        layer.collect_stats = True
    model.eval()
    try:
        with ad.no_grad():
            model.forward(Tensor(np.asarray(batch, dtype=model.dtype)))
    finally:
        for _, layer in acts:
            layer.collect_stats = False
    means = OrderedDict((name, layer.last_mean) for name, layer in acts)
    overall = float(np.mean(list(means.values()))) if means else 0.0
    return means, overall


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def fedconv_config(block: str = "invert_up",
                   channels: tuple[int, int, int, int] = (96, 192, 384, 768),
                   depths: tuple[int, int, int, int] = (3, 3, 9, 3),
                   num_classes: int = 10,
                   input_resolution: int = 224) -> ArchConfig:
    """FedConv recipe: SiLU, a single activation per block placed after the
    channel-expanding convolution, no normalization anywhere, overlapping
    two-conv stem, kernel size 9."""
    return ArchConfig(
        stem="conv", block=block, channels=channels, depths=depths,
        kernel_size=9, activation="silu", act_placement=BEST_SINGLE_ACT[block],
        norm_placement="none", norm_kind="none", num_classes=num_classes,
        input_resolution=input_resolution)


def fedconv_tiny_config(num_classes: int = 4, input_resolution: int = 32,
                        block: str = "invert_up") -> ArchConfig:
    return fedconv_config(block=block, channels=(8, 16, 32, 64),
                          depths=(1, 1, 2, 1), num_classes=num_classes,
                          input_resolution=input_resolution)


def resnet_m_config(channels: tuple[int, int, int, int] = (96, 192, 384, 768),
                    depths: tuple[int, int, int, int] = (3, 3, 9, 3),
                    num_classes: int = 10,
                    input_resolution: int = 224) -> ArchConfig:
    """Depth-wise ResNet baseline with layer norm and GELU throughout."""
    return ArchConfig(
        stem="resnet", block="normal", channels=channels, depths=depths,
        kernel_size=3, activation="gelu", act_placement="all",
        norm_placement="all", norm_kind="ln", num_classes=num_classes,
        input_resolution=input_resolution)
