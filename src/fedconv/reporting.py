"""Evaluation, communication-cost accounting, and persistence.

Round records carry wall-clock timing for the CSV log only; the JSON report
holds exclusively deterministic content so that identical configurations
reproduce byte-identical files regardless of client scheduling.

Checkpoints are a UTF-8 manifest (name, dtype tag, shape, byte offset per
tensor) next to a raw little-endian IEEE-754 blob; loading is bitwise exact.

Every file is written to a temp file in its directory and moved into place
with `os.replace`, so a run killed or failing mid-write leaves the previous
file whole.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import to_input

__all__ = ["RoundRecord", "ExperimentReport", "evaluate", "rounds_to_target",
           "tms", "save_checkpoint", "load_checkpoint", "CheckpointError",
           "write_report", "write_atomic"]


class CheckpointError(ValueError):
    """Manifest/blob inconsistency or unsupported dtype."""


@dataclass
class RoundRecord:
    round: int
    accuracy: float               # percent in [0, 100]
    loss: float | None            # mean train loss; None for the round-0 eval
    seconds: float = 0.0


@dataclass
class ExperimentReport:
    """A run's records plus the facts they lack; the final accuracy, rounds
    to target and TMS are read off the records."""
    config: dict
    params: int
    partition_mean_ks: float | None
    client_sizes: list[int]       # sample count per client id, fixed for the run
    records: list[RoundRecord]
    target_accuracy: float | None

    @property
    def final_accuracy(self) -> float:
        return self.records[-1].accuracy

    @property
    def rounds_to_target(self) -> int | None:
        if self.target_accuracy is None:
            return None
        return rounds_to_target(self.records, self.target_accuracy)

    @property
    def tms(self) -> int | None:
        rounds = self.rounds_to_target
        return None if rounds is None else tms(self.params, rounds)


def evaluate(model, images_u8: np.ndarray, labels: np.ndarray, *,
             batch_size: int = 128) -> float:
    """Global accuracy in percent: argmax over logits, eval-mode normalizers,
    input batches at the model's dtype."""
    model.eval()
    correct = 0
    with ad.no_grad():
        for lo in range(0, len(labels), batch_size):
            xb = Tensor(to_input(images_u8[lo:lo + batch_size], model.dtype))
            logits = model.forward(xb)
            correct += int(np.sum(logits.data.argmax(axis=1) == labels[lo:lo + batch_size]))
    return 100.0 * correct / len(labels)


def rounds_to_target(records: list[RoundRecord], target_pct: float) -> int | None:
    """Smallest round index whose accuracy meets the target; None when the
    target is never reached."""
    for rec in sorted(records, key=lambda r: r.round):
        if rec.accuracy >= target_pct:
            return rec.round
    return None


def tms(params: int, rounds: int) -> int:
    """Transmitted message size: exact parameter-count x round product."""
    return int(params) * int(rounds)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

_DTYPE_TAGS = {
    np.dtype(np.float32): ("f32", "<f4"),
    np.dtype(np.float64): ("f64", "<f8"),
    np.dtype(np.int64): ("i64", "<i8"),
}
_TAG_TO_NP = {tag: le for _, (tag, le) in _DTYPE_TAGS.items()}


def write_atomic(path, *parts) -> None:
    """Replace `path` with the bytes-like `parts`, written in order, through
    a temp file in the same directory; on any failure the temp file is
    removed and `path` is left as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            for part in parts:
                f.write(part)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_checkpoint(entries: dict[str, np.ndarray], stem) -> None:
    """Write `<stem>.manifest` (text) and `<stem>.blob` (raw little-endian).
    The blob is written from each entry's own buffer, copied only when an
    entry is not contiguous."""
    stem = Path(stem)
    lines = []
    blobs = []
    offset = 0
    for name, arr in entries.items():
        if any(ch.isspace() for ch in name):
            raise CheckpointError(f"tensor name {name!r} contains whitespace")
        arr = np.asarray(arr)
        if arr.dtype not in _DTYPE_TAGS:
            raise CheckpointError(f"unsupported dtype {arr.dtype} for {name!r}")
        tag, le = _DTYPE_TAGS[arr.dtype]
        raw = np.ascontiguousarray(arr).astype(le, copy=False)
        raw = raw.reshape(-1).view(np.uint8)
        shape = ",".join(str(d) for d in arr.shape) or "scalar"
        lines.append(f"{name}\t{tag}\t{shape}\t{offset}")
        blobs.append(raw)
        offset += raw.size
    stem.parent.mkdir(parents=True, exist_ok=True)
    # The blob goes first: the manifest that describes it completes the pair.
    write_atomic(stem.with_suffix(stem.suffix + ".blob"), *blobs)
    write_atomic(stem.with_suffix(stem.suffix + ".manifest"),
                 ("\n".join(lines) + ("\n" if lines else "")).encode("utf-8"))


def load_checkpoint(stem) -> dict[str, np.ndarray]:
    stem = Path(stem)
    manifest = stem.with_suffix(stem.suffix + ".manifest")
    blob_path = stem.with_suffix(stem.suffix + ".blob")
    if not manifest.exists() or not blob_path.exists():
        raise CheckpointError(f"missing checkpoint files at {stem}")
    blob = blob_path.read_bytes()
    out: dict[str, np.ndarray] = {}
    expected = 0
    try:
        text = manifest.read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise CheckpointError(f"{manifest}: manifest is not UTF-8: {e}") from None
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise CheckpointError(f"manifest line {lineno}: expected 4 fields")
        name, tag, shape_s, offset_s = parts
        if name in out:
            raise CheckpointError(f"manifest line {lineno}: duplicate entry {name!r}")
        if tag not in _TAG_TO_NP:
            raise CheckpointError(f"manifest line {lineno}: unknown dtype tag {tag!r}")
        try:
            shape = () if shape_s == "scalar" else tuple(int(d) for d in shape_s.split(","))
            offset = int(offset_s)
        except ValueError:
            raise CheckpointError(f"manifest line {lineno}: malformed shape or offset") from None
        if any(d < 0 for d in shape):
            raise CheckpointError(f"manifest line {lineno}: negative dimension in {shape_s!r}")
        if offset != expected:
            raise CheckpointError(f"manifest line {lineno}: non-contiguous offset")
        dt = np.dtype(_TAG_TO_NP[tag])
        count = math.prod(shape)  # 1 for a scalar, 0 for a zero-size entry
        nbytes = dt.itemsize * count
        if offset + nbytes > len(blob):
            raise CheckpointError(f"blob truncated: {name!r} needs {offset + nbytes} bytes")
        flat = np.frombuffer(blob, dtype=dt, count=count, offset=offset)
        try:
            out[name] = flat.reshape(shape).copy()
        except ValueError as e:  # a zero-size shape numpy cannot represent
            raise CheckpointError(f"manifest line {lineno}: shape {shape_s!r}: {e}") from None
        expected = offset + nbytes
    if expected != len(blob):
        raise CheckpointError("blob has trailing bytes not covered by the manifest")
    return out


# ---------------------------------------------------------------------------
# report files
# ---------------------------------------------------------------------------

def _fmt(x: float | None) -> str:
    return "" if x is None else repr(float(x))


def write_report(report: ExperimentReport, out_dir) -> tuple[Path, Path]:
    """Write rounds.csv (with wall-clock seconds) and report.json (fully
    deterministic given the report content)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "rounds.csv"
    lines = ["round,accuracy,loss,seconds"]
    for r in report.records:
        lines.append(f"{r.round},{_fmt(r.accuracy)},{_fmt(r.loss)},{_fmt(r.seconds)}")
    write_atomic(csv_path, ("\n".join(lines) + "\n").encode("utf-8"))

    payload = {
        "config": report.config,
        "params": report.params,
        "partition_mean_ks": report.partition_mean_ks,
        "records": [
            {"round": r.round, "accuracy": r.accuracy, "loss": r.loss,
             "client_sizes": report.client_sizes}
            for r in report.records
        ],
        "final_accuracy": report.final_accuracy,
        "target_accuracy": report.target_accuracy,
        "rounds_to_target": report.rounds_to_target,
        "tms": report.tms,
    }
    json_path = out_dir / "report.json"
    write_atomic(json_path,
                 (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8"))
    return csv_path, json_path


class StopWatch:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.t0
        return False
