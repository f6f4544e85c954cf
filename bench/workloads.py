"""The benchmark's workloads: one `fedconv train` config per workload and seed.

Every workload uses synthetic 32 px data and sets no `target_accuracy`, so a
run always does all of its rounds and its length never depends on the
numerics. The workload seed becomes the config seed and nothing else: it
changes the images, the partition's sample assignment, the initial weights
and the client sampling, while the architecture and round count stay fixed.
The label-skew bisection does not depend on the seed, so every KS target
stays reachable.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    doc: dict                 # config template; `seed` is filled per run
    threads: int              # `fedconv train --threads`
    accuracy_floor_pct: float  # final global accuracy must reach this
    # Trace self-check: the op kind that must lead op time, or None for "no
    # single op kind above `max_op_share`".
    top_op: str | None
    max_op_share: float = 1.0

    @property
    def rounds(self) -> int:
        return self.doc["fl"]["rounds"]

    @property
    def updates_per_run(self) -> int:
        """Client local updates one run attempts."""
        clients = self.doc["data"]["num_clients"]
        per_round = self.doc["fl"].get("clients_per_round") or clients
        return self.rounds * min(per_round, clients)

    @property
    def train_samples_per_run(self) -> int:
        """Client training samples one run processes. Exact because every
        workload either trains all clients each round or (wide_clients) has
        equal client sizes, which `run.gate` checks."""
        d = self.doc["data"]
        fl = self.doc["fl"]
        n_train = d["num_classes"] * d["per_class"]
        per_round = fl.get("clients_per_round") or d["num_clients"]
        share = min(per_round, d["num_clients"]) / d["num_clients"]
        return round(self.rounds * fl["local_epochs"] * n_train * share)

    def config(self, seed: int) -> dict:
        doc = copy.deepcopy(self.doc)
        doc["seed"] = seed % 2**31
        return doc


def _arch(stem, block, channels, depths, kernel, act, act_placement,
          norm_kind, classes):
    return {"stem": stem, "block": block, "channels": list(channels),
            "depths": list(depths), "kernel_size": kernel, "activation": act,
            "act_placement": act_placement,
            "norm_placement": "all" if norm_kind != "none" else "none",
            "norm_kind": norm_kind, "num_classes": classes,
            "input_resolution": 32}


def _data(clients, partition, classes, per_class, test_per_class):
    return {"source": "synthetic", "num_clients": clients,
            "partition": partition, "num_classes": classes,
            "per_class": per_class, "test_per_class": test_per_class,
            "resolution": 32}


_SKEW = {"kind": "label_skew", "target_ks": 0.5, "tolerance": 0.02}

WORKLOADS = {w.name: w for w in (
    # The paper's recipe: depth-wise k9 conv dominates op time, so conv-path
    # work (tap cropping, direct depth-wise conv) shows here.
    Workload(
        name="fedconv_skew",
        why="FedConv recipe (norm-free invert_up k9, SiLU act2, conv stem, "
            "AGC+AdamW) under label skew KS 0.5; depth-wise conv leads op time",
        doc={"seed": 0,
             "arch": _arch("conv", "invert_up", (8, 16, 32, 64), (1, 1, 2, 1),
                           9, "silu", "act2", "none", 4),
             "fl": {"method": {"name": "fedavg"}, "rounds": 6,
                    "local_epochs": 1, "batch_size": 32},
             "optimizer": {"kind": "adamw", "base_lr": 3e-4,
                           "warmup_epochs": 0, "total_epochs": 6,
                           "agc": {"clipping": 0.01, "eps": 1e-3}},
             "data": _data(4, _SKEW, 4, 128, 32)},
        threads=2, accuracy_floor_pct=75.0, top_op="conv2d_dw"),
    # The normalized baseline at one worker: dense conv, GELU, BN and maxpool
    # share op time and forward-only evaluation on a larger test set is a big
    # part of the run. A depth-wise change should not move it. fedbn is not
    # used: its global model keeps the initial BN entries and stays at chance,
    # so an accuracy floor could not catch a broken run.
    Workload(
        name="resnet_bn_eval",
        why="normalized baseline (resnet stem, normal k3 blocks, GELU+BN "
            "everywhere, fedprox) at 1 thread with a 1024-image test set",
        doc={"seed": 0,
             "arch": _arch("resnet", "normal", (16, 32, 64, 128), (1, 1, 3, 1),
                           3, "gelu", "all", "bn", 4),
             "fl": {"method": {"name": "fedprox", "mu": 0.01}, "rounds": 4,
                    "local_epochs": 1, "batch_size": 32},
             "optimizer": {"kind": "adamw", "base_lr": 1e-3,
                           "warmup_epochs": 0, "total_epochs": 4},
             "data": _data(4, _SKEW, 4, 128, 256)},
        threads=1, accuracy_floor_pct=75.0, top_op=None, max_op_share=0.35),
    # Federation-heavy: 32 resident client models of ~1.0M parameters, one
    # SGD step per sampled client, a Yogi server step and a 4 MB checkpoint
    # every round. IID dealing gives every client exactly 8 samples.
    Workload(
        name="wide_clients",
        why="32 clients (8 sampled per round) of a 1.0M-param invert_up, "
            "fedyogi+SGD+AGC, per-round checkpoints; federation overhead leads",
        doc={"seed": 0, "save_round_checkpoints": True,
             "arch": _arch("conv", "invert_up", (32, 64, 128, 256),
                           (1, 1, 2, 1), 3, "silu", "act2", "none", 8),
             "fl": {"method": {"name": "fedyogi", "eta_client": 0.03},
                    "rounds": 8,
                    "local_epochs": 1, "batch_size": 8,
                    "clients_per_round": 8},
             "optimizer": {"kind": "sgd", "base_lr": 0.03,
                           "warmup_epochs": 0, "total_epochs": 8,
                           "agc": {"clipping": 0.01, "eps": 1e-3}},
             "data": _data(32, {"kind": "iid"}, 8, 32, 16)},
        threads=2, accuracy_floor_pct=75.0, top_op="conv2d_pw"),
)}
