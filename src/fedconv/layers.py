"""Thin layer objects over the autodiff ops.

Each layer owns its parameter Tensors, knows how to initialize them from an
rng, and reports its output spatial size and multiply-accumulate count so the
model can be costed without running data through it.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


class Layer:
    training: bool = True
    param_names: tuple[str, ...] = ()  # parameter attributes, registry order

    def forward(self, x: Tensor) -> Tensor:
        raise NotImplementedError

    def named_params(self) -> list[tuple[str, Tensor]]:
        return [(n, getattr(self, n)) for n in self.param_names
                if getattr(self, n) is not None]

    def named_buffers(self) -> list[tuple[str, np.ndarray]]:
        return []

    def init_params(self, rng: np.random.Generator) -> None:
        pass

    def out_hw(self, h: int, w: int) -> tuple[int, int]:
        return h, w

    def macs(self, h: int, w: int) -> int:
        return 0


def _he_fill(t: Tensor, rng: np.random.Generator, fan_in: int) -> None:
    std = np.sqrt(2.0 / fan_in)
    t.data[...] = (rng.standard_normal(t.data.shape) * std).astype(t.data.dtype)


class Conv2d(Layer):
    param_names = ("weight", "bias")

    def __init__(self, cin: int, cout: int, k: int, *, stride: int = 1,
                 padding: int = 0, groups: int = 1, dtype=np.float32):
        if cin % groups or cout % groups:
            raise ad.ShapeError("groups must divide both channel counts")
        self.cin, self.cout, self.k = cin, cout, k
        self.stride, self.padding, self.groups = stride, padding, groups
        self.weight = Tensor(np.zeros((cout, cin // groups, k, k), dtype=dtype),
                             requires_grad=True)
        self.bias = Tensor(np.zeros(cout, dtype=dtype), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return ad.conv2d(x, self.weight, self.bias, stride=self.stride,
                         padding=self.padding, groups=self.groups)

    def init_params(self, rng):
        _he_fill(self.weight, rng, (self.cin // self.groups) * self.k * self.k)
        self.bias.data[...] = 0

    def out_hw(self, h, w):
        return ((h + 2 * self.padding - self.k) // self.stride + 1,
                (w + 2 * self.padding - self.k) // self.stride + 1)

    def macs(self, h, w):
        ho, wo = self.out_hw(h, w)
        return ho * wo * self.cout * (self.cin // self.groups) * self.k * self.k


class Linear(Layer):
    param_names = ("weight", "bias")

    def __init__(self, cin: int, cout: int, dtype=np.float32):
        self.cin, self.cout = cin, cout
        self.weight = Tensor(np.zeros((cout, cin), dtype=dtype), requires_grad=True)
        self.bias = Tensor(np.zeros(cout, dtype=dtype), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return ad.linear(x, self.weight, self.bias)

    def init_params(self, rng):
        _he_fill(self.weight, rng, self.cin)
        self.bias.data[...] = 0

    def macs(self, h, w):
        return self.cin * self.cout


class MaxPool2d(Layer):
    def __init__(self, k: int, stride: int, padding: int = 0):
        self.k, self.stride, self.padding = k, stride, padding

    def forward(self, x: Tensor) -> Tensor:
        return ad.maxpool2d(x, self.k, self.stride, self.padding)

    out_hw = Conv2d.out_hw  # the same window arithmetic


class GlobalAvgPool(Layer):
    def forward(self, x: Tensor) -> Tensor:
        return ad.global_avg_pool(x)

    def out_hw(self, h, w):
        return 1, 1


class LayerNormC(Layer):
    param_names = ("gamma", "beta")

    def __init__(self, c: int, eps: float = 1e-5, dtype=np.float32):
        self.c, self.eps = c, eps
        self.gamma = Tensor(np.ones(c, dtype=dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(c, dtype=dtype), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return ad.layer_norm_c(x, self.gamma, self.beta, self.eps)

    def init_params(self, rng):
        self.gamma.data[...] = 1
        self.beta.data[...] = 0


class BatchNorm2d(Layer):
    param_names = ("gamma", "beta")

    def __init__(self, c: int, momentum: float = 0.1, eps: float = 1e-5,
                 dtype=np.float32):
        self.c, self.momentum, self.eps = c, momentum, eps
        self.gamma = Tensor(np.ones(c, dtype=dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(c, dtype=dtype), requires_grad=True)
        self.running_mean = np.zeros(c, dtype=dtype)
        self.running_var = np.ones(c, dtype=dtype)

    def forward(self, x: Tensor) -> Tensor:
        return ad.batch_norm(x, self.gamma, self.beta, self.running_mean,
                             self.running_var, self.momentum, self.eps,
                             training=self.training)

    def named_buffers(self):
        return [("running_mean", self.running_mean), ("running_var", self.running_var)]

    def init_params(self, rng):
        self.gamma.data[...] = 1
        self.beta.data[...] = 0
        self.running_mean[...] = 0
        self.running_var[...] = 1


class Activation(Layer):
    """Elementwise activation; PReLU carries a learned per-channel slope.

    When `collect_stats` is set, the layer records the arithmetic mean of its
    last output, which the activation-statistics report reads back.
    """

    param_names = ("alpha",)

    def __init__(self, kind: str, channels: int | None = None, dtype=np.float32):
        if kind not in ad.ACTIVATION_KINDS:
            raise ad.ShapeError(f"unknown activation kind {kind!r}")
        self.kind = kind
        self.alpha = None
        if kind == "prelu":
            if channels is None:
                raise ad.ShapeError("prelu needs a channel count")
            self.alpha = Tensor(np.full(channels, 0.25, dtype=dtype), requires_grad=True)
        self.collect_stats = False
        self.last_mean: float | None = None

    def forward(self, x: Tensor) -> Tensor:
        out = ad.activation(self.kind, x, self.alpha)
        if self.collect_stats:
            self.last_mean = float(out.data.mean())
        return out

    def init_params(self, rng):
        if self.alpha is not None:
            self.alpha.data[...] = 0.25
