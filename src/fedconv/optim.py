"""Local optimizers, adaptive gradient clipping, and the learning-rate schedule."""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor

__all__ = ["AGCConfig", "LrSchedule", "lr_at", "unitwise_norm", "agc_clip",
           "AdamW", "SGD", "clip_model_grads"]


@dataclass(frozen=True)
class AGCConfig:
    clipping: float = 0.01
    eps: float = 1e-3

    def __post_init__(self):
        if self.clipping <= 0 or self.eps <= 0:
            raise ValueError("AGC clipping factor and floor must be positive")


@dataclass(frozen=True)
class LrSchedule:
    """Linear warmup from 0 to base_lr, then cosine decay to 0."""
    base_lr: float
    warmup_epochs: int
    total_epochs: int


def lr_at(schedule: LrSchedule, global_step: int, steps_per_epoch: int) -> float:
    warm = schedule.warmup_epochs * steps_per_epoch
    total = schedule.total_epochs * steps_per_epoch
    if warm > 0 and global_step < warm:
        return schedule.base_lr * global_step / warm
    if total <= warm:
        return schedule.base_lr
    t = min(global_step, total) - warm
    return schedule.base_lr * 0.5 * (1.0 + np.cos(np.pi * t / (total - warm)))


def unitwise_norm(a: np.ndarray) -> np.ndarray:
    """L2 norm per output unit: rows for linear weights, filters for conv
    weights, the whole tensor for biases and other low-rank parameters."""
    if a.ndim <= 1:
        return np.sqrt(np.sum(a * a, keepdims=True)).reshape((1,) * max(a.ndim, 1))
    if a.ndim == 2:
        return np.sqrt(np.sum(a * a, axis=1, keepdims=True))
    if a.ndim == 4:
        return np.sqrt(np.sum(a * a, axis=(1, 2, 3), keepdims=True))
    raise ValueError(f"no unit-wise norm rule for ndim={a.ndim}")


def _agc_factor(p: np.ndarray, g: np.ndarray, cfg: AGCConfig) -> np.ndarray:
    """Per-unit factor AGC scales the gradient by: limit / ||g_i|| where
    ||g_i|| exceeds limit = clipping * max(||w_i||, eps), else exactly 1."""
    wn = np.maximum(unitwise_norm(p), cfg.eps)
    gn = unitwise_norm(g)
    limit = cfg.clipping * wn
    return np.where(gn > limit, limit / np.maximum(gn, 1e-30), 1)


def agc_clip(params, grads, cfg: AGCConfig) -> list[np.ndarray]:
    """Adaptive gradient clipping: per unit i, scale g_i down whenever
    ||g_i|| / max(||w_i||, eps) exceeds the clipping factor. Inputs are left
    untouched; clipped copies are returned."""
    return [g * _agc_factor(p, g, cfg) for p, g in zip(params, grads)]


def clip_model_grads(named_params: "OrderedDict[str, Tensor]", cfg: AGCConfig,
                     exclude: set[str] = frozenset()) -> None:
    """Apply AGC in place to every parameter gradient except the excluded
    names (typically the classifier head)."""
    for name, t in named_params.items():
        if name not in exclude:
            t.grad *= _agc_factor(t.data, t.grad, cfg)


class AdamW:
    """Decoupled weight decay applied before the moment update, then
    bias-corrected Adam moments."""

    def __init__(self, params: "OrderedDict[str, Tensor]", betas=(0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0):
        self.params = params
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = OrderedDict((n, np.zeros_like(t.data)) for n, t in params.items())
        self.v = OrderedDict((n, np.zeros_like(t.data)) for n, t in params.items())

    def step(self, lr: float) -> None:
        for n, p in self.params.items():
            if p.grad is None:
                raise ValueError(f"parameter {n!r} has no gradient")
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for n, p in self.params.items():
            g = p.grad
            if self.weight_decay:
                p.data *= 1.0 - lr * self.weight_decay
            m = self.m[n]
            v = self.v[n]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)

    def state_dict(self) -> OrderedDict:
        state = OrderedDict()
        state["t"] = np.array(self.t, dtype=np.int64)
        for n in self.params:
            state[f"m.{n}"] = self.m[n].copy()
            state[f"v.{n}"] = self.v[n].copy()
        return state

    def load_state_dict(self, state: dict) -> None:
        self.t = int(state["t"])
        for n in self.params:
            self.m[n][...] = state[f"m.{n}"]
            self.v[n][...] = state[f"v.{n}"]


class SGD:
    """Plain SGD with an optional heavy-ball momentum buffer:
    v <- momentum * v + g; param <- param - lr * v."""

    def __init__(self, params: "OrderedDict[str, Tensor]", momentum: float = 0.0):
        self.params = params
        self.momentum = momentum
        self.t = 0
        self.buf = OrderedDict(
            (n, np.zeros_like(t.data)) for n, t in params.items()) if momentum else None

    def step(self, lr: float) -> None:
        for n, p in self.params.items():
            if p.grad is None:
                raise ValueError(f"parameter {n!r} has no gradient")
        self.t += 1
        for n, p in self.params.items():
            if self.buf is None:
                p.data -= lr * p.grad
            else:
                b = self.buf[n]
                b *= self.momentum
                b += p.grad
                p.data -= lr * b

    def state_dict(self) -> OrderedDict:
        state = OrderedDict()
        state["t"] = np.array(self.t, dtype=np.int64)
        if self.buf is not None:
            for n in self.params:
                state[f"buf.{n}"] = self.buf[n].copy()
        return state

    def load_state_dict(self, state: dict) -> None:
        self.t = int(state["t"])
        if self.buf is not None:
            for n in self.params:
                self.buf[n][...] = state[f"buf.{n}"]
