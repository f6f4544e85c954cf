"""fedconv benchmark: repeated `fedconv train` runs of one workload, gated.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload's config is generated from the seed (see `workloads.py`); the
program receives only that config. Every measured run is a fresh
`bench/worker.py` process calling `fedconv.cli.main` in-process, with BLAS
pinned to one thread so that `--threads` is the only parallelism.

--trace 0  untraced runs until `--seconds` are spent (at least three), and
           the end-to-end metrics as medians over them.
--trace 1  pairs of one untraced and one traced run, in alternating order,
           and the per-layer metrics as medians over the traced runs, plus
           the tracing overhead (traced against untraced `run_s`).

Every run passes the correctness gate or counts as failed: the CLI succeeds,
`report.json` is byte-identical to the first run's (traced runs included),
the final accuracy reaches the workload's floor, every round is recorded
with a finite loss, the partition meets its KS target, the checkpoints
exist, and the first run's final checkpoint reproduces its final accuracy
under `fedconv eval`. A failed run counts all of its client local updates as
failed. A traced run must also account for the model's training forward
and backward time with its op spans and graph walk, up to the tracing
overhead plus `UNACCOUNTED_ALLOWANCE`. It prints a warning, not a failure,
when the leading op kind differs from the workload's expectation, because
conv-path work may legitimately change that.

Human-readable lines come first; the last line of stdout is one JSON object
{correct, attempted, failed, metrics} with the metrics BENCHMARK.json lists
for the mode. The exit code is 1 when any check failed. Outputs of the latest invocation per workload and mode go to
`.bench_out/<workload>-trace<0|1>/`: the config, `summary.json` (every run's
timings and checks, the environment, and each traced run's per-layer metrics
and per-leaf-path totals) and `spans.jsonl` (the last traced run's spans).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_RUNS = 3            # untraced runs per invocation, for medians
HARD_LIMIT_S = 150.0    # stop starting runs after this; exit well before 180 s
# A traced run may leave at most this share of the model's training forward
# and backward time outside op spans and the graph walk (layer glue), beyond
# the measured tracing overhead. Measured glue is 1-2% on every workload.
UNACCOUNTED_ALLOWANCE = 0.05

END_TO_END_UNITS = {
    "run_s": "s", "setup_s": "s", "round_s_p50": "s",
    "train_samples_per_s": "samples/s", "peak_rss_mb": "MB",
    "final_accuracy_pct": "%", "ops_failed_frac": "ratio",
}
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("samples_per_s"):
        return "samples/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


class Run:
    """One worker process: its result file plus the gate's verdict."""

    def __init__(self, index: int, traced: bool, out: Path):
        self.index, self.traced, self.out = index, traced, out
        self.result: dict = {}
        self.problems: list[str] = []
        self.wall_s = 0.0
        self.report: dict = {}
        self.round_s: list[float] = []


def launch(w, cfg: Path, out: Path, index: int, traced: bool,
           check_eval: bool, timeout: float) -> Run:
    run = Run(index, traced, out / f"run{index}")
    result = out / f"run{index}.result.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--config", str(cfg),
           "--out", str(run.out), "--threads", str(w.threads),
           "--result", str(result)]
    if traced:  # the last traced run's spans are kept
        cmd += ["--trace", str(out / "spans.jsonl")]
    if check_eval:
        cmd.append("--check-eval")
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        run.problems.append(f"run {index}: no result within {timeout:.0f} s")
        return run
    finally:
        run.wall_s = time.perf_counter() - t0
    tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
    if proc.returncode != 0 or not result.is_file():
        run.problems.append(f"run {index}: worker exited {proc.returncode}: {tail}")
        return run
    run.result = json.loads(result.read_text(encoding="utf-8"))
    if run.result["rc"] != 0:
        run.problems.append(f"run {index}: fedconv train exited "
                            f"{run.result['rc']}: {tail}")
    return run


def gate(w, run: Run, reference: bytes | None) -> bytes | None:
    """Check one finished run's outputs; returns its report.json bytes."""
    if run.problems:
        return None
    p = run.problems.append
    tag = f"run {run.index}"
    missing = [f for f in ("report.json", "rounds.csv") if not (run.out / f).is_file()]
    if missing:
        p(f"{tag}: {', '.join(missing)} not written")
        return None
    report_bytes = (run.out / "report.json").read_bytes()
    if reference is not None and report_bytes != reference:
        p(f"{tag}: report.json differs from run 0's")
    rep = run.report = json.loads(report_bytes)
    records = rep["records"]
    if [r["round"] for r in records] != list(range(w.rounds + 1)):
        p(f"{tag}: rounds {[r['round'] for r in records]}, expected 0..{w.rounds}")
    if not all(r["loss"] is not None and math.isfinite(r["loss"])
               for r in records[1:]):
        p(f"{tag}: a round has no finite training loss")
    if not rep["final_accuracy"] >= w.accuracy_floor_pct:
        p(f"{tag}: final accuracy {rep['final_accuracy']} below the "
          f"{w.accuracy_floor_pct}% floor")
    d = w.doc["data"]
    sizes = records[0]["client_sizes"]
    if len(sizes) != d["num_clients"] or sum(sizes) != d["num_classes"] * d["per_class"]:
        p(f"{tag}: client sizes {sizes} do not partition the training set")
    if w.doc["fl"].get("clients_per_round") and len(set(sizes)) != 1:
        p(f"{tag}: sampled clients need equal sizes for an exact sample count")
    part = d["partition"]
    if abs(rep["partition_mean_ks"] - part.get("target_ks", 0.0)) > part.get("tolerance", 0.05):
        p(f"{tag}: partition mean KS {rep['partition_mean_ks']} misses its target")
    lines = (run.out / "rounds.csv").read_text(encoding="utf-8").splitlines()[1:]
    run.round_s = [float(line.split(",")[3]) for line in lines[1:]]
    if len(lines) != w.rounds + 1 or not all(s > 0 for s in run.round_s):
        p(f"{tag}: rounds.csv does not time every round")
    stems = ["checkpoint"]
    if w.doc.get("save_round_checkpoints"):
        stems += [f"round_{r:04d}" for r in range(w.rounds + 1)]
    for stem in stems:
        for suffix in (".manifest", ".blob"):
            if not (run.out / (stem + suffix)).is_file():
                p(f"{tag}: {stem}{suffix} missing")
    if "eval_stdout" in run.result:
        expected = f"accuracy {rep['final_accuracy']:.4f}"
        if run.result["eval_rc"] != 0 or run.result["eval_stdout"].strip() != expected:
            p(f"{tag}: fedconv eval of the final checkpoint gave "
              f"{run.result['eval_stdout'].strip()!r}, expected {expected!r}")
    if run.result.get("setup_s") is None:
        p(f"{tag}: no round started")
    return report_bytes


def end_to_end(w, runs: list[Run], failed: int, attempted: int) -> dict:
    ok = [r for r in runs if not r.problems]
    if not ok:
        return {"ops_failed_frac": failed / attempted}
    run_s = [r.result["run_s"] for r in ok]
    setup_s = [r.result["setup_s"] for r in ok]
    return {
        "run_s": median(run_s),
        "setup_s": median(setup_s),
        "round_s_p50": median(s for r in ok for s in r.round_s),
        "train_samples_per_s": median(w.train_samples_per_run / (a - b)
                                      for a, b in zip(run_s, setup_s)),
        "peak_rss_mb": median(r.result["peak_rss_mb"] for r in ok),
        "final_accuracy_pct": ok[0].report["final_accuracy"],
        "ops_failed_frac": failed / attempted,
    }


def per_layer(w, runs: list[Run]) -> tuple[dict, list[str]]:
    """Median per-layer metrics over the traced runs, plus self-check
    problems of the tracer itself."""
    traced = [r for r in runs if r.traced and not r.problems]
    plain = [r for r in runs if not r.traced and not r.problems]
    if not traced or not plain:
        return {}, []
    names = traced[0].result["trace"]["metrics"]
    m = {k: median(r.result["trace"]["metrics"][k] for r in traced) for k in names}
    m["trace_overhead_frac"] = (median(r.result["run_s"] for r in traced)
                                / median(r.result["run_s"] for r in plain) - 1.0)
    shares = {k: median(r.result["trace"]["op_shares"][k] for r in traced)
              for k in traced[0].result["trace"]["op_shares"]}
    m["trace.top_op_frac"] = max(shares.values())
    problems = []
    allowed = max(m["trace_overhead_frac"], 0.0) + UNACCOUNTED_ALLOWANCE
    if m["trace.unaccounted_frac"] > allowed:
        problems.append(f"trace: op spans and the graph walk leave "
                        f"{m['trace.unaccounted_frac']:.1%} of model time "
                        f"unaccounted (allowed {allowed:.1%})")
    top = max(shares, key=shares.get)
    share_lines = " ".join(f"{k}={v:.1%}" for k, v in
                           sorted(shares.items(), key=lambda kv: -kv[1]))
    print(f"op shares: {share_lines}")
    if w.top_op is not None and top != w.top_op:
        print(f"warning: top op is {top}, the workload expects {w.top_op}")
    if w.top_op is None and shares[top] > w.max_op_share:
        print(f"warning: {top} takes {shares[top]:.1%} of op time, the "
              f"workload expects no op kind above {w.max_op_share:.0%}")
    return m, problems


def listed_metrics(trace: bool) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "fedconv" / "cli.py").is_file():
        print(f"error: no fedconv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = listed_metrics(bool(args.trace))
    w = WORKLOADS[args.workload]
    for var in BLAS_ENV:
        os.environ[var] = "1"

    out = ROOT / ".bench_out" / f"{w.name}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    cfg = out / "config.json"
    cfg.write_text(json.dumps(w.config(args.seed), indent=2) + "\n", encoding="utf-8")

    start = time.perf_counter()
    runs: list[Run] = []
    reference = None
    while True:
        batch = (True, False) if len(runs) % 4 == 2 else (False, True)
        for traced in (batch if args.trace else (False,)):
            timeout = HARD_LIMIT_S + 20.0 - (time.perf_counter() - start)
            run = launch(w, cfg, out, len(runs), traced, check_eval=not runs,
                         timeout=timeout)
            report = gate(w, run, reference)
            if reference is None:
                reference = report
            shutil.rmtree(run.out, ignore_errors=True)
            runs.append(run)
            status = "FAILED " + "; ".join(run.problems) if run.problems else "ok"
            print(f"run {run.index} {'traced' if traced else 'untraced'} "
                  f"wall {run.wall_s:.2f} s, cpu steal "
                  f"{run.result.get('steal_s', 0.0):.2f} s: {status}", flush=True)
        if any(r.problems for r in runs):
            break
        elapsed = time.perf_counter() - start
        step = elapsed / (len(runs) // (2 if args.trace else 1))
        enough = len(runs) >= (2 if args.trace else MIN_RUNS)
        if elapsed + step > (args.seconds if enough else HARD_LIMIT_S):
            break

    attempted = w.updates_per_run * len(runs)
    failed = w.updates_per_run * sum(1 for r in runs if r.problems)
    problems = [p for r in runs for p in r.problems]
    if args.trace:
        metrics, trace_problems = per_layer(w, runs)
        problems += trace_problems
        failed = min(attempted, failed + w.updates_per_run * len(trace_problems))
    else:
        metrics = end_to_end(w, runs, failed, attempted)

    env = next((r.result["env"] for r in runs if r.result), {})
    print("env " + json.dumps(env, sort_keys=True))
    for name, value in metrics.items():
        print(f"metric {name} {value:.6g} {unit_of(name)}")
    for problem in problems:
        print(f"check failed: {problem}")
    summary = {"workload": w.name, "seed": args.seed, "trace": args.trace,
               "env": env, "metrics": metrics, "problems": problems,
               "runs": [{"index": r.index, "traced": r.traced,
                         "wall_s": r.wall_s, "problems": r.problems,
                         **{k: v for k, v in r.result.items() if k != "trace"}}
                        for r in runs],
               "traces": [r.result["trace"] for r in runs if "trace" in r.result]}
    (out / "summary.json").write_text(json.dumps(summary, indent=1) + "\n",
                                      encoding="utf-8")

    correct = not problems
    listed = {}
    for name in names:
        if name in metrics:
            listed[name] = {"value": metrics[name], "unit": unit_of(name)}
        elif correct:
            raise SystemExit(f"error: metric {name} was not measured")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": listed}))
    return 0 if correct else 1


def _terminate(signum, frame):
    # Turn SIGTERM into SystemExit so subprocess.run kills and reaps the
    # running worker on the way out.
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())
