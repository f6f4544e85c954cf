"""Command-line runner binding config files to experiments.

Subcommands: train, central, partition, flops, sweep, eval. `central` has no
training loop of its own: it is a one-client fedavg run of `run_federated`,
built from the user's config by `_central`. Every error path prints a single
machine-parseable line prefixed `error:` and exits nonzero.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

from .autodiff import NumericsError
from .config import ConfigValidationError, load_config, parse_experiment
from .data import DataError, label_histograms
from .federated import (FLMethodConfig, _build_partition, _load_data,
                        _make_schedule, run_federated)
from .models import ConfigError, Network, calibrate_depths, count_flops, count_params
from .reporting import (CheckpointError, evaluate, load_checkpoint,
                        save_checkpoint, write_atomic, write_report)

_USAGE_ERRORS = (ConfigValidationError, ConfigError, DataError, CheckpointError)


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


class _ArgumentError(Exception):
    """An argparse usage error, raised instead of printing usage and exiting
    so that `main` reports it as one `error:` line."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _ArgumentError(f"{self.prog}: {message}")


def _out_dir(exp, args) -> Path:
    out = args.out or exp.output_dir
    if out is None:
        raise ConfigValidationError(
            ["output_dir: required (set it in the config or pass --out)"])
    return Path(out)


def _load(args):
    exp = load_config(args.config)
    if args.seed is not None:
        # Re-validated, so the override obeys the config file's seed rules.
        exp = replace(parse_experiment(dict(exp.raw, seed=args.seed)),
                      output_dir=exp.output_dir)
    return exp


def _final_checkpoint(out_dir: Path, capture: dict) -> None:
    entries = {f"model.{n}": v for n, v in capture["state"].items()}
    for c in capture["clients"]:
        entries.update((f"opt.client{c.id}.{k}", v)
                       for k, v in c.optimizer.state_dict().items())
    save_checkpoint(entries, out_dir / "checkpoint")


def _round_writer(out_dir: Path):
    def write(round_idx: int, state: dict) -> None:
        save_checkpoint({f"model.{n}": v for n, v in state.items()},
                        out_dir / f"round_{round_idx:04d}")
    return write


def _central(exp):
    """The `central` run as a federated config: one client holding the whole
    training set, plain fedavg, and one local epoch per round over
    rounds x local_epochs rounds, at the client lr of the user's method."""
    base_lr = _make_schedule(exp.optimizer, exp.fl.method).base_lr
    optimizer = replace(exp.optimizer, base_lr=base_lr)
    fl = replace(exp.fl, method=FLMethodConfig("fedavg"), local_epochs=1,
                 rounds=exp.fl.rounds * exp.fl.local_epochs,
                 clients_per_round=None)
    data = replace(exp.data, num_clients=1, partition_kind="iid")
    return replace(exp, fl=fl, optimizer=optimizer, data=data)


def cmd_train(args) -> int:
    """`train` runs the federated rounds; `central` runs the same loop on
    `_central`'s one-client config. Its report echoes the user's config, with
    no partition KS, and each of its rounds is one epoch over the pooled
    training set."""
    exp = _load(args)
    out_dir = _out_dir(exp, args)
    out_dir.mkdir(parents=True, exist_ok=True)
    capture: dict = {}
    hook = _round_writer(out_dir) if exp.save_round_checkpoints else None
    central = args.command == "central"
    report = run_federated(_central(exp) if central else exp, threads=args.threads,
                           round_checkpoint=hook, capture=capture)
    if central:
        report = replace(report, partition_mean_ks=None)
    write_report(report, out_dir)
    _final_checkpoint(out_dir, capture)
    print(f"final_accuracy {report.final_accuracy:.4f}")
    if report.rounds_to_target is not None:
        print(f"rounds_to_target {report.rounds_to_target}")
        print(f"tms {report.tms}")
    return 0


def cmd_partition(args) -> int:
    exp = _load(args)
    out_dir = _out_dir(exp, args)
    out_dir.mkdir(parents=True, exist_ok=True)
    train, _ = _load_data(exp)
    partition, ks = _build_partition(exp, train)
    hists = label_histograms(partition, train.labels, train.num_classes)
    for cid in sorted(partition):
        counts = " ".join(str(c) for c in hists[cid])
        print(f"client {cid} n={len(partition[cid])} classes: {counts}")
    print(f"mean_ks {ks:.4f}")
    payload = {str(cid): [int(i) for i in idx] for cid, idx in partition.items()}
    write_atomic(out_dir / "partition.json",
                 (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8"))
    return 0


def cmd_flops(args) -> int:
    exp = _load(args)
    arch = exp.arch
    if args.calibrate is not None:
        for flag, value in (("--calibrate", args.calibrate), ("--tolerance", args.tolerance)):
            if not math.isfinite(value):
                raise ConfigError(f"{flag} must be a finite number, got {value}")
        depths = calibrate_depths(arch, int(args.calibrate), args.tolerance)
        print(f"calibrated_depths {' '.join(str(d) for d in depths)}")
        arch = replace(arch, depths=depths)
    print(f"params {count_params(arch)}")
    print(f"flops {count_flops(arch)}")
    return 0


_SWEEP_AXES = ("kernel_size", "activation", "stem", "act_placement", "norm_placement")


def cmd_sweep(args) -> int:
    exp = _load(args)
    out_dir = _out_dir(exp, args)
    cells = []  # every cell's config is validated before the first one runs
    seen = set()
    for value in args.values:
        doc = copy.deepcopy(exp.raw)
        # A non-decimal kernel size stays a string, which validation rejects.
        cell = value
        if args.axis == "kernel_size" and value.isdecimal():
            try:
                cell = int(value)
            except ValueError as e:  # beyond Python's integer digit limit
                raise ConfigValidationError([f"--values: kernel_size: {e}"]) from None
        if cell in seen:
            raise ConfigValidationError(
                [f"--values: {args.axis} {cell!r} is given twice"])
        seen.add(cell)
        doc["arch"][args.axis] = cell
        cells.append((value, parse_experiment(doc)))
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for value, run_exp in cells:
        report = run_federated(run_exp, threads=args.threads)
        sub = out_dir / f"sweep_{args.axis}_{value}"
        write_report(report, sub)
        best = max(r.accuracy for r in report.records)
        rows.append((value, report.final_accuracy, best,
                     report.rounds_to_target, report.tms))
        print(f"{args.axis}={value} final_accuracy={report.final_accuracy:.4f}")
    lines = [f"{args.axis},final_accuracy,best_accuracy,rounds_to_target,tms"]
    for value, final, best, rtt, tms_v in rows:
        lines.append(f"{value},{final!r},{best!r},"
                     f"{'' if rtt is None else rtt},{'' if tms_v is None else tms_v}")
    write_atomic(out_dir / "sweep.csv", ("\n".join(lines) + "\n").encode("utf-8"))
    return 0


def cmd_eval(args) -> int:
    exp = _load(args)
    entries = load_checkpoint(args.checkpoint)
    state = {n[len("model."):]: v for n, v in entries.items() if n.startswith("model.")}
    if not state:
        raise CheckpointError(f"{args.checkpoint}: no model entries")
    model = Network(exp.arch, exp.dtype)
    model.load_state_dict(state)
    _, test = _load_data(exp)
    acc = evaluate(model, test.images, test.labels)
    print(f"accuracy {acc:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fedconv",
        description="Federated CNN ablation simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--threads", type=int, default=1,
                       help="max parallel clients per round")
        p.add_argument("--out", default=None, help="override config output_dir")

    for name, fn in (("train", cmd_train), ("central", cmd_train),
                     ("partition", cmd_partition)):
        p = sub.add_parser(name)
        common(p)
        p.set_defaults(fn=fn)

    p = sub.add_parser("flops")
    common(p)
    p.add_argument("--calibrate", type=float, default=None,
                   help="target FLOPs for depth calibration")
    p.add_argument("--tolerance", type=float, default=0.15,
                   help="relative FLOPs tolerance for --calibrate")
    p.set_defaults(fn=cmd_flops)

    p = sub.add_parser("sweep")
    common(p)
    p.add_argument("--axis", required=True, choices=_SWEEP_AXES)
    p.add_argument("--values", required=True, nargs="+")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("eval")
    common(p)
    p.add_argument("--checkpoint", required=True,
                   help="checkpoint stem (without .manifest/.blob)")
    p.set_defaults(fn=cmd_eval)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except _ArgumentError as e:
        return _fail(str(e))
    if args.threads < 1:
        return _fail("--threads must be >= 1")
    try:
        return args.fn(args)
    except _USAGE_ERRORS as e:
        return _fail(str(e))
    except (NumericsError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
