"""Experiment configuration: a JSON document validated field by field.

Unknown and repeated keys are errors (they would silently corrupt an
ablation), every invalid field is reported with its path and reason, and the
only defaults filled in are the documented ones listed in the README schema.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .federated import FL_METHODS, FLMethodConfig
from .models import ArchConfig, ConfigError
from .optim import AGCConfig

__all__ = ["ExperimentConfig", "FLConfig", "OptimConfig", "DataConfig",
           "ConfigValidationError", "parse_experiment", "load_config"]


class ConfigValidationError(ValueError):
    def __init__(self, errors: list[str]):
        self.errors = errors
        super().__init__("; ".join(errors))


@dataclass
class FLConfig:
    method: FLMethodConfig
    rounds: int
    local_epochs: int
    batch_size: int
    clients_per_round: int | None


@dataclass
class OptimConfig:
    kind: str
    base_lr: float
    warmup_epochs: int
    total_epochs: int
    weight_decay: float
    momentum: float
    agc: AGCConfig | None


@dataclass
class DataConfig:
    source: str
    num_clients: int
    partition_kind: str
    target_ks: float | None       # label_skew only
    tolerance: float | None       # label_skew only
    path: str | None
    num_classes: int
    per_class: int
    test_per_class: int
    resolution: int


@dataclass
class ExperimentConfig:
    seed: int
    arch: ArchConfig
    fl: FLConfig
    optimizer: OptimConfig
    data: DataConfig
    output_dir: str | None
    target_accuracy: float | None
    save_round_checkpoints: bool
    dtype: np.dtype
    raw: dict


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_num(x) -> bool:
    # Rejects json's NaN and Infinity, and integers float() cannot hold.
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and abs(x) <= sys.float_info.max)


class _Section:
    """One config object level: tracks known keys and collects errors."""

    def __init__(self, d: dict, path: str, errors: list[str]):
        self.d = d
        self.path = path
        self.errors = errors
        self.known: set[str] = set()

    def err(self, key: str, reason: str) -> None:
        self.errors.append(f"{self.path}{key}: {reason}")

    def take(self, key: str, *, required: bool = False, default=None):
        self.known.add(key)
        if key not in self.d:
            if required:
                self.err(key, "missing required key")
            return default
        return self.d[key]

    def field(self, key: str, ok, expected: str, *, required=False, default=None,
              lo=None, lo_strict=None, hi=None, choices=None):
        """The value at `key`, checked by `ok` and against the bounds and
        choices; `default` when it is absent or of the wrong type."""
        v = self.take(key, required=required, default=default)
        if key not in self.d:
            return default
        if not ok(v):
            self.err(key, f"expected {expected}, got {v!r}")
            return default
        if lo is not None and v < lo:
            self.err(key, f"must be >= {lo}")
        if lo_strict is not None and v <= lo_strict:
            self.err(key, f"must be > {lo_strict}")
        if hi is not None and v > hi:
            self.err(key, f"must be <= {hi}")
        if choices is not None and v not in choices:
            self.err(key, f"must be one of {sorted(choices)}, got {v!r}")
        return v

    def int_field(self, key: str, **kw):
        return self.field(key, _is_int, "an integer", **kw)

    def num_field(self, key: str, **kw):
        v = self.field(key, _is_num, "a finite number", **kw)
        return None if v is None else float(v)

    def str_field(self, key: str, **kw):
        return self.field(key, lambda v: isinstance(v, str), "a string", **kw)

    def bool_field(self, key: str, *, default=False):
        return self.field(key, lambda v: isinstance(v, bool), "true/false",
                          default=default)

    def sub(self, key: str, *, required=False) -> "dict | None":
        return self.field(key, lambda v: isinstance(v, dict), "an object",
                          required=required)

    def finish(self) -> None:
        for key in sorted(set(self.d) - self.known):
            self.err(key, "unknown key")


def _parse_arch(d: dict, errors: list[str]) -> ArchConfig | None:
    s = _Section(d, "arch.", errors)
    stem = s.str_field("stem", required=True)
    block = s.str_field("block", required=True)
    channels = s.take("channels", required=True)
    depths = s.take("depths", required=True)
    kernel = s.int_field("kernel_size", required=True)
    act = s.str_field("activation", required=True)
    actp = s.str_field("act_placement", required=True)
    normp = s.str_field("norm_placement", required=True)
    normk = s.str_field("norm_kind", required=True)
    classes = s.int_field("num_classes", required=True)
    res = s.int_field("input_resolution", required=True)
    s.finish()
    for name, v in (("channels", channels), ("depths", depths)):
        if v is not None and not (isinstance(v, list) and len(v) == 4
                                  and all(_is_int(x) for x in v)):
            s.err(name, "expected a list of 4 integers")
            return None
    if errors:
        return None
    try:
        cfg = ArchConfig(stem=stem, block=block, channels=tuple(channels),
                         depths=tuple(depths), kernel_size=kernel,
                         activation=act, act_placement=actp,
                         norm_placement=normp, norm_kind=normk,
                         num_classes=classes, input_resolution=res)
        cfg.validate()
        return cfg
    except ConfigError as e:
        errors.append(f"arch: {e}")
        return None


_METHOD_KEYS = {
    "fedavg": set(),
    "fedprox": {"mu"},
    "share": {"fraction"},
    "fedyogi": {"beta1", "beta2", "tau", "eta_client", "eta_server"},
    "fedbn": set(),
}


def _parse_method(d: dict, errors: list[str]) -> FLMethodConfig | None:
    s = _Section(d, "fl.method.", errors)
    name = s.str_field("name", required=True, choices=FL_METHODS)
    if name is None:
        s.finish()
        return None
    kwargs = {}
    for key in _METHOD_KEYS[name]:
        v = s.num_field(key)
        if v is not None:
            kwargs[key] = v
    s.finish()
    if errors:
        return None
    method = FLMethodConfig(name=name, **kwargs)
    for reason in method.validate():
        errors.append(f"fl.method: {reason}")
    return None if errors else method


def _parse_fl(d: dict, errors: list[str]) -> FLConfig | None:
    s = _Section(d, "fl.", errors)
    method_d = s.sub("method", required=True)
    rounds = s.int_field("rounds", required=True, lo=0)
    local_epochs = s.int_field("local_epochs", required=True, lo=1)
    batch = s.int_field("batch_size", required=True, lo=1)
    cpr = s.take("clients_per_round")
    if cpr is not None and not (_is_int(cpr) and cpr >= 1):
        s.err("clients_per_round", "expected null or a positive integer")
        cpr = None
    s.finish()
    method = _parse_method(method_d, errors) if method_d is not None else None
    if errors or method is None:
        return None
    return FLConfig(method=method, rounds=rounds, local_epochs=local_epochs,
                    batch_size=batch, clients_per_round=cpr)


def _parse_optimizer(d: dict, errors: list[str]) -> OptimConfig | None:
    s = _Section(d, "optimizer.", errors)
    kind = s.str_field("kind", required=True, choices=("adamw", "sgd"))
    base_lr = s.num_field("base_lr", required=True, lo_strict=0.0)
    warmup = s.int_field("warmup_epochs", required=True, lo=0)
    total = s.int_field("total_epochs", required=True, lo=1)
    wd = s.num_field("weight_decay", default=0.0, lo=0.0)
    mom = s.num_field("momentum", default=0.0, lo=0.0)
    agc_d = s.take("agc")
    agc = None
    if agc_d is not None:
        if not isinstance(agc_d, dict):
            s.err("agc", "expected null or an object")
        else:
            a = _Section(agc_d, "optimizer.agc.", errors)
            clipping = a.num_field("clipping", default=AGCConfig.clipping,
                                   lo_strict=0.0)
            eps = a.num_field("eps", default=AGCConfig.eps, lo_strict=0.0)
            a.finish()
            if not errors:
                agc = AGCConfig(clipping=clipping, eps=eps)
    s.finish()
    if errors:
        return None
    return OptimConfig(kind=kind, base_lr=base_lr, warmup_epochs=warmup,
                       total_epochs=total, weight_decay=wd, momentum=mom, agc=agc)


def _parse_data(d: dict, errors: list[str]) -> DataConfig | None:
    s = _Section(d, "data.", errors)
    source = s.str_field("source", required=True, choices=("synthetic", "cifar10"))
    num_clients = s.int_field("num_clients", required=True, lo=1)
    part_d = s.sub("partition", required=True)
    path = s.take("path")
    num_classes = s.int_field("num_classes", default=None, lo=2)
    per_class = s.int_field("per_class", default=None, lo=1)
    test_per_class = s.int_field("test_per_class", default=None, lo=1)
    resolution = s.int_field("resolution", default=None, lo=32)
    s.finish()

    kind = target_ks = tolerance = None
    if part_d is not None:
        p = _Section(part_d, "data.partition.", errors)
        kind = p.str_field("kind", required=True, choices=("iid", "label_skew"))
        if kind == "label_skew":
            target_ks = p.num_field("target_ks", required=True, lo=0.0)
            if target_ks is not None and target_ks >= 1.0:
                p.err("target_ks", "must be in [0, 1)")
            tolerance = p.num_field("tolerance", default=0.05, lo_strict=0.0)
        p.finish()

    if source == "synthetic":
        for key, v in (("num_classes", num_classes), ("per_class", per_class),
                       ("test_per_class", test_per_class), ("resolution", resolution)):
            if v is None:
                s.err(key, "required for the synthetic source")
        if path is not None:
            s.err("path", "only valid for the cifar10 source")
        if resolution is not None and resolution % 32:
            s.err("resolution", "must be a multiple of 32")
    else:
        if path is None or not isinstance(path, str):
            s.err("path", "required (string) for the cifar10 source")
        num_classes = 10
        resolution = 32

    if errors:
        return None
    return DataConfig(source=source, num_clients=num_clients, partition_kind=kind,
                      target_ks=target_ks, tolerance=tolerance,
                      path=path, num_classes=num_classes,
                      per_class=per_class or 0, test_per_class=test_per_class or 0,
                      resolution=resolution)


def parse_experiment(doc: dict) -> ExperimentConfig:
    """Validate a parsed config document; raises ConfigValidationError listing
    every invalid field with its path and reason."""
    if not isinstance(doc, dict):
        raise ConfigValidationError(["config: expected a JSON object"])
    errors: list[str] = []
    s = _Section(doc, "", errors)
    seed = s.int_field("seed", required=True, lo=0)
    output_dir = s.str_field("output_dir", default=None)
    target = s.num_field("target_accuracy", default=None, lo_strict=0.0, hi=100.0)
    save_rounds = s.bool_field("save_round_checkpoints", default=False)
    dtype_s = s.str_field("dtype", default="f32", choices=("f32", "f64"))
    arch_d = s.sub("arch", required=True)
    fl_d = s.sub("fl", required=True)
    opt_d = s.sub("optimizer", required=True)
    data_d = s.sub("data", required=True)
    s.finish()

    arch = _parse_arch(arch_d, errors) if arch_d is not None else None
    fl = _parse_fl(fl_d, errors) if fl_d is not None else None
    opt = _parse_optimizer(opt_d, errors) if opt_d is not None else None
    data = _parse_data(data_d, errors) if data_d is not None else None

    if arch is not None and data is not None:
        if arch.num_classes != data.num_classes:
            errors.append("arch.num_classes: must match the data source class count")
        if data.source == "synthetic" and arch.input_resolution != data.resolution:
            errors.append("arch.input_resolution: must match data.resolution")
        if data.source == "cifar10" and arch.input_resolution != 32:
            errors.append("arch.input_resolution: cifar10 images are 32x32")
    if errors:
        raise ConfigValidationError(errors)

    # The snapshot written into reports: everything except the output location.
    raw = {k: v for k, v in doc.items() if k != "output_dir"}
    raw["seed"] = seed
    return ExperimentConfig(
        seed=seed, arch=arch, fl=fl, optimizer=opt, data=data,
        output_dir=output_dir, target_accuracy=target,
        save_round_checkpoints=save_rounds,
        dtype=np.dtype(np.float32 if dtype_s == "f32" else np.float64),
        raw=raw)


def _unique_keys(pairs: list) -> dict:
    """json's object hook: a key given twice in one object is an error."""
    d = {}
    for key, value in pairs:
        if key in d:
            raise ConfigValidationError([f"config file: key {key!r} is given twice"])
        d[key] = value
    return d


def load_config(path) -> ExperimentConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigValidationError([f"config file not found: {p}"])
    try:
        doc = json.loads(p.read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
    except UnicodeDecodeError as e:
        raise ConfigValidationError([f"config file is not UTF-8: {e}"]) from None
    except json.JSONDecodeError as e:
        raise ConfigValidationError([f"config file is not valid JSON: {e}"]) from e
    except ConfigValidationError:
        raise
    except ValueError as e:  # an integer literal beyond Python's digit limit
        raise ConfigValidationError([f"config file: {e}"]) from None
    except RecursionError:
        raise ConfigValidationError(["config file is nested too deeply"]) from None
    return parse_experiment(doc)
