"""Command-line runner binding config files to experiments.

Subcommands: train, central, partition, flops, sweep, eval. Every training
run goes through `_run`: `train` runs the user's config, `central` the
one-client fedavg config `_central` builds from it, and `sweep` each cell of
a grid, the base config merged with one entry per axis. Every error path
prints a single machine-parseable line prefixed `error:` and exits nonzero.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields, replace
from pathlib import Path

from .autodiff import NumericsError
from .config import (ConfigValidationError, grid_cells, load_config, load_grid,
                     parse_experiment, parse_grid, read_json)
from .data import DataError, label_histograms
from .federated import (FLMethodConfig, _build_partition, _load_data,
                        _make_schedule, run_federated)
from .models import (ArchConfig, ConfigError, Network, calibrate_depths,
                     count_flops, count_params)
from .reporting import (CheckpointError, ablation_tables, evaluate, load_checkpoint,
                        save_checkpoint, sweep_csv, write_atomic, write_report)

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


def _run(exp, out_dir: Path, threads: int, central: bool = False):
    """Train `exp`, or with `central` its `_central` config, and write the
    run's checkpoints and report into `out_dir`. A central report echoes the
    user's config, with no partition KS. report.json is written last, so a
    directory that holds it holds a finished run."""
    out_dir.mkdir(parents=True, exist_ok=True)
    capture: dict = {}
    hook = _round_writer(out_dir) if exp.save_round_checkpoints else None
    report = run_federated(_central(exp) if central else exp, threads=threads,
                           round_checkpoint=hook, capture=capture)
    if central:
        report = replace(report, partition_mean_ks=None)
    _final_checkpoint(out_dir, capture)
    write_report(report, out_dir)
    return report


def cmd_train(args) -> int:
    exp = _load(args)
    report = _run(exp, _out_dir(exp, args), args.threads, args.command == "central")
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


def _grid(args) -> tuple[dict, list]:
    """The sweep's axes and claims: the `--grid` file, or `--axis A --values
    v...` as the one-axis grid whose entry v sets arch.A to v read as JSON,
    or to the string v when it is not JSON."""
    if args.grid is not None:
        if args.axis is not None or args.values is not None:
            raise ConfigValidationError(["--grid cannot be combined with --axis/--values"])
        return load_grid(args.grid)
    if args.axis is None or args.values is None:
        raise ConfigValidationError(["sweep needs --grid, or --axis with --values"])
    entries = {}
    for v in args.values:
        if v in entries:
            raise ConfigValidationError([f"--values: {args.axis} {v!r} is given twice"])
        try:
            entries[v] = {"arch": {args.axis: json.loads(v)}}
        except (ValueError, RecursionError):
            entries[v] = {"arch": {args.axis: v}}
    return parse_grid({"axes": {args.axis: entries}})


def cmd_sweep(args) -> int:
    """Run every cell of the grid that has no report yet, after checking every
    cell; then write sweep.csv and, for a grid with claims, ablation.csv and
    ablation.md from the cell reports alone."""
    exp = _load(args)
    axes, claims = _grid(args)
    out_dir = _out_dir(exp, args)
    cells = grid_cells(exp.raw, axes)
    finished = {sub: _finished(out_dir / sub / "report.json", cell.raw)
                for sub, (_, cell) in cells.items()}
    rows = []
    for sub, (names, cell) in cells.items():
        report = finished[sub]
        if report is None:
            _run(cell, out_dir / sub, args.threads)
            report = read_json(out_dir / sub / "report.json", "cell report")
        rows.append((names, report, count_flops(cell.arch)))
        print(" ".join(f"{a}={n}" for a, n in zip(axes, names))
              + f" final_accuracy={report['final_accuracy']:.4f}")
    write_atomic(out_dir / "sweep.csv", sweep_csv(list(axes), rows))
    if claims:
        table_csv, table_md = ablation_tables(list(axes), rows, claims)
        write_atomic(out_dir / "ablation.csv", table_csv)
        write_atomic(out_dir / "ablation.md", table_md)
    return 0


def _finished(path: Path, config: dict) -> dict | None:
    """The report.json document at `path` when it echoes `config`; None when
    there is none yet. Any other report stops the sweep."""
    if not path.exists():
        return None
    doc = read_json(path, "cell report")
    if not (isinstance(doc, dict) and json.dumps(doc.get("config"), sort_keys=True)
            == json.dumps(config, sort_keys=True)):
        raise ConfigValidationError(
            [f"{path} holds another config; remove it or sweep into another --out"])
    return doc


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
    p.add_argument("--grid", default=None,
                   help="grid file: axes of partial configs, and claims")
    p.add_argument("--axis", default=None, choices=[f.name for f in fields(ArchConfig)],
                   help="the arch key a one-axis grid sweeps")
    p.add_argument("--values", default=None, nargs="+",
                   help="the --axis values, each read as JSON or kept as text")
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
