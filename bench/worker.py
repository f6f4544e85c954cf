"""Run one `fedconv train` in this process and write its timings as JSON.

    python3 bench/worker.py --config C --out DIR --threads N --result R.json
                            [--trace SPANS.jsonl] [--check-eval]

The clock starts before `fedconv` is imported. Set-up ends when the first
round starts; the run ends when `fedconv.cli.main` returns, after the report
and checkpoints are written. With `--trace` the run is wrapped by the span
tracer; `--check-eval` afterwards reloads the final checkpoint with
`fedconv eval`. `bench/run.py` starts this script once per measured run, so
every run is a fresh process.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np
import scipy.special  # noqa: F401  (a dependency: loaded before the clock)

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def blas_record() -> dict:
    """BLAS library, version and thread count of this process."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as f:
        libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": threads}


def steal_s() -> float:
    """CPU time the hypervisor gave to other guests, machine-wide."""
    with open("/proc/stat", encoding="utf-8") as f:
        fields = f.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def environment() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, **blas_record()}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--threads", type=int, required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", default=None)
    ap.add_argument("--check-eval", action="store_true")
    args = ap.parse_args()

    steal0 = steal_s()
    t0 = time.perf_counter()
    import fedconv.cli as cli
    import fedconv.federated as fed
    src = (ROOT / "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"error: fedconv imported from {cli.__file__}, not {src}")

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer(run_id=f"{Path(args.out).name}-{os.getpid()}")
        tracer.install()
    round_starts: list[float] = []
    run_round = fed.run_round

    def first_round_clock(*a, **k):
        if not round_starts:
            round_starts.append(time.perf_counter())
        return run_round(*a, **k)

    fed.run_round = first_round_clock
    try:
        rc = cli.main(["train", "--config", args.config, "--out", args.out,
                       "--threads", str(args.threads)])
    finally:
        t_end = time.perf_counter()
        fed.run_round = run_round
        if tracer is not None:
            tracer.uninstall()

    result = {"rc": rc, "run_s": t_end - t0,
              "setup_s": round_starts[0] - t0 if round_starts else None,
              "steal_s": steal_s() - steal0,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "env": environment()}
    if tracer is not None:
        tracer.write_spans(args.trace)
        result["trace"] = tracer.summary()
    if args.check_eval and rc == 0:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            result["eval_rc"] = cli.main(["eval", "--config", args.config,
                                          "--checkpoint", str(Path(args.out) / "checkpoint")])
        result["eval_stdout"] = buf.getvalue()
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
