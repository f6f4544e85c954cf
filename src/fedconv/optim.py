"""The flat parameter arena, local optimizers, adaptive gradient clipping,
and the learning-rate schedule."""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

__all__ = ["AGCConfig", "LrSchedule", "lr_at", "unitwise_norm", "ParamArena",
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
    """The learning rate of a step, as a Python float: NumPy 2 promotes a
    float32 array times an np.float64 scalar to float64."""
    warm = schedule.warmup_epochs * steps_per_epoch
    total = schedule.total_epochs * steps_per_epoch
    if warm > 0 and global_step < warm:
        return schedule.base_lr * global_step / warm
    if total <= warm:
        return schedule.base_lr
    t = min(global_step, total) - warm
    return schedule.base_lr * 0.5 * (1.0 + math.cos(math.pi * t / (total - warm)))


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


class ParamArena(dict):
    """Ordered name -> Tensor registry whose parameters live in one flat
    weight vector and one flat gradient vector, in registry order: every
    Tensor's `data` and `grad` is a view into `self.data` and `self.grad`.
    Optimizer steps, AGC, zero_grad and the proximal term are therefore
    single vector operations. Parameters must share one dtype and be written
    in place; rebinding a Tensor's `data` or `grad` detaches it. An optimizer
    step consumes `grad` (SGD uses it as scratch), so read gradients before
    the step."""

    def __init__(self, named_tensors):
        super().__init__(named_tensors)
        dtypes = {t.data.dtype for t in self.values()}
        if len(dtypes) > 1:
            raise ValueError(f"arena parameters must share one dtype, got {dtypes}")
        self.data = np.empty(sum(t.data.size for t in self.values()),
                             dtypes.pop() if dtypes else np.float32)
        # np.zeros (unlike zeros_like) leaves pages untouched until written:
        # a network that never trains holds no resident gradient memory.
        self.grad = np.zeros(self.data.shape, self.data.dtype)
        self._units: dict = {}
        lo = 0
        for t in self.values():
            view = self.data[lo:lo + t.data.size].reshape(t.data.shape)
            view[...] = t.data
            t.data = view
            t.grad = self.grad[lo:lo + view.size].reshape(view.shape)
            lo += view.size

    def units(self, exclude=frozenset()) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """AGC units as (starts, sizes, keep): each unit's offset and length
        in the flat vectors, and whether its parameter is clipped (not in
        `exclude`). Units follow `unitwise_norm`; empty ones are dropped.
        Computed once per exclude set."""
        key = frozenset(exclude)
        if key not in self._units:
            starts, sizes, keep, lo = [], [], [], 0
            for name, t in self.items():
                n = unitwise_norm(t.data).size
                if t.data.size:
                    size = t.data.size // n
                    starts += range(lo, lo + t.data.size, size)
                    sizes += [size] * n
                    keep += [name not in key] * n
                lo += t.data.size
            self._units[key] = (np.array(starts, dtype=np.intp),
                                np.array(sizes, dtype=np.intp), np.array(keep))
        return self._units[key]


def clip_model_grads(named_params: ParamArena, cfg: AGCConfig,
                     exclude: set[str] = frozenset()) -> None:
    """Apply AGC in place to every parameter gradient except the excluded
    names (typically the classifier head): per unit i, scale g_i down to
    clipping * max(||w_i||, eps) whenever ||g_i|| exceeds that limit."""
    starts, sizes, keep = named_params.units(exclude)
    if not len(starts):
        return

    def unit_norms(a):
        # A zero before each unit makes reduceat's sum of a segment (first
        # element plus pairwise sum of the rest) the pairwise sum of the
        # unit, which is the order np.sum reduces a contiguous row in.
        sq = np.insert(a, starts, 0)
        np.multiply(sq, sq, out=sq)
        return np.sqrt(np.add.reduceat(sq, starts + np.arange(len(starts))))

    g = named_params.grad
    limit = cfg.clipping * np.maximum(unit_norms(named_params.data), cfg.eps)
    gn = unit_norms(g)
    factor = np.where(keep & (gn > limit), limit / np.maximum(gn, 1e-30), 1)
    g *= np.repeat(factor, sizes)


class _Optimizer:
    """State shared by the optimizers: the step count `t` and flat
    per-parameter slots (moments, momentum buffer) in arena order, None when
    unused. An optimizer holds no arena: the one it is built with shapes the
    slots, and `step(params, lr)` steps the arena it is handed."""

    slots: tuple[str, ...] = ()

    def state_dict(self) -> OrderedDict:
        state = OrderedDict(t=np.array(self.t, dtype=np.int64))
        state.update((k, getattr(self, k).copy()) for k in self.slots
                     if getattr(self, k) is not None)
        return state

    def load_state_dict(self, state: dict) -> None:
        self.t = int(state["t"])
        for k in self.slots:
            if getattr(self, k) is not None:
                getattr(self, k)[...] = state[k]


class AdamW(_Optimizer):
    """Decoupled weight decay applied before the moment update, then
    bias-corrected Adam moments."""

    slots = ("m", "v")

    def __init__(self, params: ParamArena, betas=(0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0):
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = np.zeros_like(params.data)
        self.v = np.zeros_like(params.data)

    def step(self, params: ParamArena, lr: float) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        w, g = params.data, params.grad
        if self.weight_decay:
            w *= 1.0 - lr * self.weight_decay
        self.m *= self.beta1
        self.m += (1.0 - self.beta1) * g
        self.v *= self.beta2
        self.v += (1.0 - self.beta2) * g * g
        w -= lr * (self.m / bc1) / (np.sqrt(self.v / bc2) + self.eps)


class SGD(_Optimizer):
    """Plain SGD with an optional heavy-ball momentum buffer:
    v <- momentum * v + g; param <- param - lr * v.

    A step allocates nothing: it scales the arena's gradient vector in place
    as its scratch (bitwise equal to `w -= lr * v`), so it consumes `.grad`;
    `zero_grad` resets it before the next backward."""

    slots = ("buf",)

    def __init__(self, params: ParamArena, momentum: float = 0.0):
        self.momentum = momentum
        self.t = 0
        self.buf = np.zeros_like(params.data) if momentum else None

    def step(self, params: ParamArena, lr: float) -> None:
        self.t += 1
        w, g = params.data, params.grad
        if self.buf is not None:
            self.buf *= self.momentum
            self.buf += g
        np.multiply(g if self.buf is None else self.buf, lr, out=g)
        w -= g
