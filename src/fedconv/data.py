"""Datasets, label-skew partitioning, and heterogeneity measurement.

The synthetic generator produces class-conditional images (one oriented
grating per class plus seeded pixel noise) that a small CNN separates easily,
serving as a desk-scale stand-in for a real federated image corpus. CIFAR-10
ingestion reads the standard binary batch format; nothing is downloaded.

Partition heterogeneity is quantified by the mean pairwise Kolmogorov-Smirnov
statistic between client label distributions, with classes in fixed index
order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = ["Dataset", "DataError", "load_cifar10_binary", "synth_dataset",
           "to_input", "ks_two", "mean_pairwise_ks", "label_histograms",
           "partition_iid", "partition_label_skew", "build_shared_pool"]

_CIFAR_RECORD = 3073          # 1 label byte + 3 * 1024 pixel bytes
_CIFAR_RECORDS_PER_FILE = 10_000


class DataError(ValueError):
    """Malformed dataset input or unreachable partition target."""


@dataclass
class Dataset:
    images: np.ndarray        # uint8, (N, 3, H, W)
    labels: np.ndarray        # int64, (N,)
    split: str                # "train" or "test"
    num_classes: int

    def __post_init__(self):
        if len(self.images) != len(self.labels):
            raise DataError("images and labels must have equal length")
        if len(self.labels) and (self.labels.min() < 0
                                 or self.labels.max() >= self.num_classes):
            raise DataError("label out of range")

    def __len__(self):
        return len(self.labels)


def to_input(images_u8: np.ndarray, dtype=np.float32) -> np.ndarray:
    """Map uint8 pixels to roughly zero-mean, unit-variance floats,
    ((x / 255) - 0.5) / 0.25, in place in one new array."""
    x = images_u8.astype(dtype)
    x /= 255.0
    x -= 0.5
    x /= 0.25
    return x


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------

def _read_cifar_file(path: Path) -> tuple[np.ndarray, np.ndarray]:
    raw = np.fromfile(path, dtype=np.uint8)
    if raw.size != _CIFAR_RECORDS_PER_FILE * _CIFAR_RECORD:
        raise DataError(
            f"{path}: expected {_CIFAR_RECORDS_PER_FILE * _CIFAR_RECORD} bytes, "
            f"got {raw.size}")
    recs = raw.reshape(_CIFAR_RECORDS_PER_FILE, _CIFAR_RECORD)
    labels = recs[:, 0].astype(np.int64)
    if labels.max() >= 10:
        raise DataError(f"{path}: label byte >= 10")
    images = recs[:, 1:].reshape(-1, 3, 32, 32)
    return images, labels


def load_cifar10_binary(path, split: str = "train") -> Dataset:
    """Read CIFAR-10 binary batches (3073-byte records, planes R then G then B,
    row-major 32x32). `path` may be one .bin file or the batch directory."""
    p = Path(path)
    if p.is_dir():
        if split == "train":
            files = sorted(p.glob("data_batch_*.bin"))
            if not files:
                raise DataError(f"{p}: no data_batch_*.bin files")
        else:
            files = [p / "test_batch.bin"]
            if not files[0].exists():
                raise DataError(f"{p}: test_batch.bin not found")
    elif p.is_file():
        files = [p]
    else:
        raise DataError(f"{p}: no such file or directory")
    parts = [_read_cifar_file(f) for f in files]
    images = np.concatenate([im for im, _ in parts])
    labels = np.concatenate([lb for _, lb in parts])
    return Dataset(images, labels, split, num_classes=10)


def synth_dataset(seed: int, num_classes: int, per_class: int,
                  resolution: int = 32, split: str = "train") -> Dataset:
    """Class-conditional synthetic images: each class is a fixed oriented
    grating with per-channel phase shifts, plus seeded Gaussian pixel noise.
    Deterministic given (seed, split); label histogram is exactly uniform."""
    rng = np.random.default_rng([seed, {"train": 0, "test": 1}[split]])
    r = resolution
    yy, xx = np.meshgrid(np.arange(r), np.arange(r), indexing="ij")
    images = np.empty((num_classes * per_class, 3, r, r), dtype=np.uint8)
    labels = np.empty(num_classes * per_class, dtype=np.int64)
    for k in range(num_classes):
        theta = math.pi * k / num_classes
        freq = 1.5 + (k % 4)
        phase_base = 2.0 * math.pi * k / num_classes
        proj = (math.cos(theta) * xx + math.sin(theta) * yy) / r
        pattern = np.stack([
            127.5 + 90.0 * np.sin(2.0 * math.pi * freq * proj
                                  + phase_base + c * 2.0 * math.pi / 3.0)
            for c in range(3)])
        lo, hi = k * per_class, (k + 1) * per_class
        noise = rng.normal(0.0, 24.0, size=(per_class, 3, r, r))
        np.add(pattern, noise, out=noise)
        np.clip(noise, 0, 255, out=noise)
        images[lo:hi] = noise
        labels[lo:hi] = k
    return Dataset(images, labels, split, num_classes)


# ---------------------------------------------------------------------------
# heterogeneity
# ---------------------------------------------------------------------------

def ks_two(p: np.ndarray, q: np.ndarray) -> float:
    """Kolmogorov-Smirnov statistic between two discrete label distributions
    over the same class index order: max |CDF_p - CDF_q|."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape or p.ndim != 1:
        raise DataError("ks_two expects two equal-length probability vectors")
    for v in (p, q):
        if v.min() < 0 or abs(v.sum() - 1.0) > 1e-9:
            raise DataError("distribution must be non-negative and sum to 1")
    return _mean_ks(np.stack([p, q]))


def label_histograms(partition: dict[int, np.ndarray], labels: np.ndarray,
                     num_classes: int) -> dict[int, np.ndarray]:
    return {cid: np.bincount(labels[idx], minlength=num_classes)
            for cid, idx in partition.items()}


def mean_pairwise_ks(partition: dict[int, np.ndarray], labels: np.ndarray,
                     num_classes: int) -> float:
    """Mean of ks_two over all unordered client pairs."""
    hists = label_histograms(partition, labels, num_classes)
    rows = []
    for cid in sorted(hists):
        total = hists[cid].sum()
        if total == 0:
            raise DataError(f"client {cid} has no samples")
        rows.append(hists[cid] / total)
    return _mean_ks(np.stack(rows)) if rows else 0.0


def _mean_ks(props: np.ndarray) -> float:
    """Mean over unordered row pairs (i < j) of max |CDF_i - CDF_j|, where
    each row of `props` is one client's label distribution."""
    m = len(props)
    if m < 2:
        return 0.0
    cdfs = np.cumsum(props, axis=1)
    i, j = np.triu_indices(m, k=1)
    return float(np.mean(np.abs(cdfs[i] - cdfs[j]).max(axis=1)))


# ---------------------------------------------------------------------------
# partitioners
# ---------------------------------------------------------------------------

def partition_iid(dataset: Dataset, num_clients: int, seed: int) -> dict[int, np.ndarray]:
    """Per-class round-robin dealing after a seeded shuffle. Client sizes
    differ by at most one; exact class balance (mean KS = 0) whenever each
    class count divides evenly."""
    if num_clients < 1 or num_clients > len(dataset):
        raise DataError("num_clients must be in [1, dataset size]")
    rng = np.random.default_rng([seed, 17])
    order = []
    for k in range(dataset.num_classes):
        idx = np.flatnonzero(dataset.labels == k)
        order.append(idx[rng.permutation(len(idx))])
    order = np.concatenate(order).astype(np.int64, copy=False)
    owner = np.arange(len(order)) % num_clients
    return {cid: np.sort(order[owner == cid]) for cid in range(num_clients)}


def _client_preferences(num_clients: int, num_classes: int) -> np.ndarray:
    """Disjoint contiguous class blocks, one per client; clients whose block
    is empty (more clients than classes) fall back to uniform."""
    prefs = np.zeros((num_clients, num_classes))
    for i in range(num_clients):
        lo = (i * num_classes) // num_clients
        hi = ((i + 1) * num_classes) // num_clients
        if hi > lo:
            prefs[i, lo:hi] = 1.0 / (hi - lo)
        else:
            prefs[i, :] = 1.0 / num_classes
    return prefs


def partition_label_skew(dataset: Dataset, num_clients: int, target_ks: float,
                         tolerance: float, seed: int) -> dict[int, np.ndarray]:
    """Label-skew split hitting a target mean pairwise KS.

    Client label proportions mix the uniform distribution with disjoint
    per-client class blocks: `(1 - beta) * uniform + beta * blocks`. Uniform
    rows cancel in every pairwise CDF gap, so the proportions' mean KS is
    exactly `beta` times that of the blocks, and `beta` is the target over
    that reachable maximum (capped at 1). Sample indices are then assigned
    per class by largest-remainder rounding. The realized partition is
    re-measured and must land within `tolerance` of the target; a target
    more than `tolerance` above the maximum is refused up front.
    """
    if not (0.0 <= target_ks < 1.0 + 1e-12):
        raise DataError("target_ks must be in [0, 1]")
    if tolerance <= 0:
        raise DataError("tolerance must be positive")
    if target_ks <= 1e-12:
        return partition_iid(dataset, num_clients, seed)
    if num_clients < 2:
        raise DataError("label-skew partition needs at least 2 clients")

    c = dataset.num_classes
    uniform = np.full((num_clients, c), 1.0 / c)
    prefs = _client_preferences(num_clients, c)
    ks_max = _mean_ks(prefs)
    if ks_max + tolerance < target_ks:
        raise DataError(
            f"target mean KS {target_ks} unreachable with {num_clients} clients "
            f"and {c} classes (at most {ks_max:.4f})")

    beta = target_ks / max(ks_max, target_ks)
    props = (1.0 - beta) * uniform + beta * prefs
    rng = np.random.default_rng([seed, 29])
    order, owner = [], []
    for k in range(c):
        idx = np.flatnonzero(dataset.labels == k)
        idx = idx[rng.permutation(len(idx))]
        nk = len(idx)
        weights = props[:, k]
        share = weights / weights.sum() * nk if weights.sum() > 0 else np.zeros(num_clients)
        counts = np.floor(share).astype(np.int64)
        frac = share - counts
        # Largest remainder; ties broken by lowest client id.
        counts[np.argsort(-frac, kind="stable")[:nk - counts.sum()]] += 1
        order.append(idx)
        owner.append(np.repeat(np.arange(num_clients), counts))
    order = np.concatenate(order).astype(np.int64, copy=False)
    owner = np.concatenate(owner)
    partition = {cid: np.sort(order[owner == cid]) for cid in range(num_clients)}

    realized = mean_pairwise_ks(partition, dataset.labels, c)
    if abs(realized - target_ks) > tolerance:
        raise DataError(
            f"realized mean KS {realized:.4f} misses target {target_ks} "
            f"by more than {tolerance}")
    return partition


def build_shared_pool(partition: dict[int, np.ndarray], fraction: float,
                      seed: int) -> dict[int, np.ndarray]:
    """Sample ceil(fraction * n_k) indices from each client without
    replacement; the pooled union is appended to every client's index list."""
    if not (0.0 < fraction < 1.0):
        raise DataError("share fraction must be in (0, 1)")
    rng = np.random.default_rng([seed, 71])
    pool = []
    for cid in sorted(partition):
        idx = partition[cid]
        take = math.ceil(fraction * len(idx))
        pool.append(rng.choice(idx, size=take, replace=False))
    shared = np.concatenate(pool)
    return {cid: np.concatenate([partition[cid], shared])
            for cid in sorted(partition)}
