"""Federated orchestration: clients, the round loop, and aggregation rules.

Simulation is in-process: a round broadcasts the global state, runs every
participating client's local update (on the calling thread and, with
`threads` > 1, helper threads), and evaluates the global model on a
held-out test set. A run starts helper threads only when its local step is
large enough for them to pay (`worker_count`). Every method shares one
aggregation core, FedAvg's sample-weighted mean. A round's `fold` adds
each finished client to it, straight from its worker's arena, and adds the
client's loss to the round's loss sum, as soon as every client with a
lower id is in them; one that finishes early is copied and held until its
turn. Both sums are therefore
taken in ascending client-id order whatever the thread timing. The server
step (the mean itself, fedbn's kept batch-norm entries or Yogi's adaptive
step) then writes the global model in place, and the global state is views
of that model's own arena and buffers, so the global weights exist once.

A client is state, not a model: its optimizer (whose step count `t` is the
client's clock on the lr schedule), data-order rng and, under fedbn, its own
batch-norm entries. A run keeps one worker model per training thread; each
local update loads the broadcast state and the client's local entries into a
free worker, so every parameter and buffer is overwritten before training
and the worker a client lands on cannot change results. The optimizer holds
no arena: each step is handed the worker's.

Client optimizer state persists across rounds and is never aggregated or
reset. Any object exposing the small model surface used here (forward,
named_parameters returning a `ParamArena`, named_buffers, zero_grad,
load_state_dict, train/eval, bn_param_names, head_param_names, and `dtype`,
which input batches are cast to) can stand in for a Network, which keeps toy
models testable.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .autodiff import NumericsError, Tensor, softmax_cross_entropy
from .data import (DataError, Dataset, build_shared_pool, load_cifar10_binary,
                   mean_pairwise_ks, partition_iid, partition_label_skew,
                   synth_dataset, to_input)
from .models import Network
from .optim import AGCConfig, AdamW, LrSchedule, SGD, clip_model_grads, lr_at
from .reporting import ExperimentReport, RoundRecord, StopWatch, evaluate

__all__ = ["FLMethodConfig", "ClientState", "YogiState", "state_views",
           "local_update", "train_epochs", "aggregate_fedavg",
           "aggregate_fedbn", "yogi_server_step", "run_round",
           "worker_count", "run_federated"]

FL_METHODS = ("fedavg", "fedprox", "share", "fedyogi", "fedbn")

# Multiply-accumulates of one local step from which helper threads train
# clients. Below it the numpy calls of a step are so small that threads
# lose more passing the GIL back and forth than they overlap; the ROADMAP
# builder note on helper threads holds the sweep this value comes from.
HELPERS_FROM_STEP_MACS = 13_000_000


@dataclass(frozen=True)
class FLMethodConfig:
    """Aggregation method plus its constants (defaults follow the federated
    fine-tuning recipes this simulator mirrors)."""
    name: str
    mu: float = 5e-4              # fedprox proximal strength
    fraction: float = 0.05        # share: fraction of each client pooled
    beta1: float = 0.9            # fedyogi moments
    beta2: float = 0.99
    tau: float = 0.05             # fedyogi adaptivity
    eta_client: float = 0.01      # fedyogi client lr (overrides optimizer lr)
    eta_server: float = 1.0       # fedyogi server lr

    def validate(self) -> list[str]:
        errs = []
        if self.name not in FL_METHODS:
            errs.append(f"name must be one of {FL_METHODS}, got {self.name!r}")
        if self.mu < 0:
            errs.append("mu must be >= 0")
        if not (0.0 < self.fraction < 1.0):
            errs.append("fraction must be in (0, 1)")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            errs.append("beta1/beta2 must be in [0, 1)")
        if self.tau <= 0:
            errs.append("tau must be > 0")
        if self.eta_client <= 0 or self.eta_server <= 0:
            errs.append("eta_client and eta_server must be > 0")
        return errs


class ClientState:
    """One simulated client. Optimizer state (its step count included), the
    data-order rng and the `local` entries (a fedbn client's own batch-norm
    state) persist across rounds; the sample count is the index-list length
    (shared-pool entries included under the share method)."""

    def __init__(self, client_id: int, indices, optimizer,
                 rng: np.random.Generator, local: dict | None = None):
        self.id = client_id
        self.indices = np.asarray(indices, dtype=np.int64)
        self.optimizer = optimizer
        self.rng = rng
        self.local = local if local is not None else {}

    @property
    def n_k(self) -> int:
        return len(self.indices)


def state_views(model) -> OrderedDict:
    """The model's state in `state_dict` order without copies: each entry is
    the model's own parameter view or buffer, so it changes with the model."""
    views = OrderedDict((n, t.data) for n, t in model.named_parameters().items())
    views.update(model.named_buffers())
    return views


# ---------------------------------------------------------------------------
# local training
# ---------------------------------------------------------------------------

def apply_prox_grads(params, mu: float, w_ref: np.ndarray) -> None:
    """Add the proximal-term gradient mu * (w - w_ref) to every parameter of
    the arena `params`; `w_ref` is a flat weight vector."""
    params.grad += mu * (params.data - w_ref)


def train_epochs(model, optimizer, dataset: Dataset, indices, rng, *,
                 epochs: int, batch_size: int, schedule: LrSchedule,
                 agc_cfg: AGCConfig | None = None, prox=None) -> float:
    """Mini-batch training passes over `indices` at the model's dtype;
    returns the sample-weighted mean loss. Each step's lr is the schedule's
    at the optimizer's step count `t`. `prox` is (mu, flat reference
    weights) adding mu * (w - w_ref) to every trainable gradient."""
    model.train()
    indices = np.asarray(indices)
    n = len(indices)
    if n == 0:
        raise DataError("empty training index set")
    steps_per_epoch = math.ceil(n / batch_size)
    params = model.named_parameters()
    loss_sum = 0.0
    seen = 0
    for _ in range(epochs):
        perm = rng.permutation(n)
        for lo in range(0, n, batch_size):
            sel = indices[perm[lo:lo + batch_size]]
            xb = Tensor(to_input(dataset.images[sel], model.dtype))
            loss = softmax_cross_entropy(model.forward(xb), dataset.labels[sel])
            model.zero_grad()
            loss.backward()
            if prox is not None:
                apply_prox_grads(params, prox[0], prox[1])
            if agc_cfg is not None:
                clip_model_grads(params, agc_cfg, model.head_param_names())
            optimizer.step(params, lr_at(schedule, optimizer.t, steps_per_epoch))
            loss_sum += float(loss.data) * len(sel)
            seen += len(sel)
    return loss_sum / seen


def local_update(client: ClientState, model, global_state: dict, *,
                 method: FLMethodConfig, dataset: Dataset, epochs: int,
                 batch_size: int, schedule: LrSchedule,
                 agc_cfg: AGCConfig | None):
    """One client's round on a worker `model`: load the broadcast state with
    the client's local entries over it, train with the persistent optimizer,
    store the local entries back, and return the final state and the
    sample-weighted mean loss. The state is `state_views(model)`: read or
    copy it before the worker trains again."""
    if client.n_k == 0:
        raise DataError(f"client {client.id} has an empty dataset")
    model.load_state_dict({**global_state, **client.local})
    prox = None
    if method.name == "fedprox" and method.mu != 0.0:
        prox = (method.mu, model.named_parameters().data.copy())
    mean_loss = train_epochs(
        model, client.optimizer, dataset, client.indices, client.rng,
        epochs=epochs, batch_size=batch_size, schedule=schedule,
        agc_cfg=agc_cfg, prox=prox)
    state = state_views(model)
    for name, value in client.local.items():
        value[...] = state[name]
    return state, mean_loss


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def aggregate_fedavg(results, into: dict | None = None,
                     total: float | None = None) -> dict:
    """Sample-count-weighted mean of `results` ((client id, state, n_k)
    triples), summed in ascending client-id order.

    With `into`, the weighted terms are added to that running sum (empty
    before its first client) and it is returned; `total` is then the sample
    count of every client the sum will hold. Feeding one client at a time in
    id order gives the one-call mean bit for bit: a first term is written as
    the product itself, never added to zeros, so -0.0 keeps its sign."""
    if not results:
        raise ValueError("aggregate_fedavg: no client results")
    ordered = sorted(results, key=lambda r: r[0])
    out = {} if into is None else into
    keys = list(out or ordered[0][1])
    for cid, state, _ in ordered:
        if list(state.keys()) != keys:
            raise ValueError(f"client {cid}: mismatched parameter registry")
    if total is None:
        total = float(sum(nk for _, _, nk in ordered))
    for _, state, nk in ordered:
        for key in keys:
            if key in out:
                out[key] += state[key] * (nk / total)
            else:
                out[key] = np.multiply(state[key], nk / total)
    return out


def aggregate_fedbn(mean: dict, global_state: dict, bn_names: set[str]) -> dict:
    """The clients' weighted `mean` with every batch-norm entry kept at its
    previous global value (clients keep their own local copies)."""
    return {name: global_state[name].copy() if name in bn_names else value
            for name, value in mean.items()}


class YogiState:
    """Server-side adaptive moments; v starts at tau^2 and stays positive."""

    def __init__(self, trainable_names, global_state: dict, tau: float):
        self.m = {n: np.zeros_like(global_state[n]) for n in trainable_names}
        self.v = {n: np.full_like(global_state[n], tau * tau) for n in trainable_names}


def yogi_server_step(yogi: YogiState, global_state: dict, avg: dict,
                     method: FLMethodConfig) -> dict:
    """Yogi update on the delta of the clients' weighted mean `avg`. Buffers
    (entries without server moments) take the mean itself."""
    out = {}
    for name, g in global_state.items():
        if name not in yogi.m:
            out[name] = avg[name]
            continue
        delta = avg[name] - g
        m = yogi.m[name]
        v = yogi.v[name]
        m *= method.beta1
        m += (1.0 - method.beta1) * delta
        d2 = delta * delta
        v -= (1.0 - method.beta2) * d2 * np.sign(v - d2)
        if not np.all(v > 0):
            raise NumericsError("Yogi second moment left the positive domain")
        out[name] = g + method.eta_server * m / (np.sqrt(v) + method.tau)
    return out


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------

def run_round(global_model: Network, global_state: dict, yogi, clients, *,
              workers, method: FLMethodConfig, dataset: Dataset,
              test_set: Dataset, round_idx: int, epochs: int, batch_size: int,
              schedule: LrSchedule, agc_cfg: AGCConfig | None,
              threads: int = 1) -> RoundRecord:
    """Broadcast -> parallel local updates folded into the weighted mean ->
    server step -> evaluate. Returns the round's record; the server step
    writes `global_model` in place, so its `state_views` stay current.

    The calling thread and min(threads, len(clients)) - 1 helper threads
    take clients in id order from one shared queue, each on its own model
    from `workers` (at least that many). `fold` adds a finished update to
    the running mean through `aggregate_fedavg`, and its loss to the loss
    sum, once every client with a lower id is in them, reading the update
    from the worker in place; one that finishes ahead of its turn is copied
    and held, and the thread that adds its predecessor adds it too. One lock
    guards the queue, `errors`, `turn` and `held`. The first exception a
    local update raises stops every thread from taking another client and
    is raised here once all of them have stopped. `global_state` is read
    until every client is done.
    """
    if not clients:
        raise ValueError("run_round: no clients")
    pending = enumerate(sorted(clients, key=lambda c: c.id))
    total = float(sum(c.n_k for c in clients))
    lock = threading.Lock()
    errors = []
    held: dict = {}
    turn = 0                       # rank of the next client to add
    mean: dict = {}
    loss_sum = 0.0

    def fold(rank, client, state, loss):
        """Add `client`'s update and loss to the running sums in rank order:
        now, with every held successor after it, if its turn has come; else
        as a held copy."""
        nonlocal turn, loss_sum
        with lock:
            if rank != turn:
                held[rank] = (client, {n: v.copy() for n, v in state.items()}, loss)
                return
        while client is not None:
            aggregate_fedavg([(client.id, state, client.n_k)], into=mean, total=total)
            loss_sum += loss * client.n_k
            with lock:
                turn = rank = rank + 1
                client, state, loss = held.pop(rank, (None, None, None))

    def drain(model, item):
        """Train `item` on `model`, then pending clients until none is left
        or a thread has failed."""
        while item is not None:
            rank, client = item
            try:
                state, loss = local_update(
                    client, model, global_state, method=method,
                    dataset=dataset, epochs=epochs, batch_size=batch_size,
                    schedule=schedule, agc_cfg=agc_cfg)
                fold(rank, client, state, loss)
            except BaseException as exc:  # raised below once all threads stop
                with lock:
                    errors.append(exc)
                return
            with lock:
                item = None if errors else next(pending, None)

    with StopWatch() as sw:
        # Clients go out in id order and the caller takes the first, so the
        # running sum is allocated by the calling thread, not a helper.
        firsts = [next(pending) for _ in range(max(1, min(threads, len(clients))))]
        helpers = [threading.Thread(target=drain, args=(model, item))
                   for model, item in zip(workers[1:], firsts[1:])]
        for helper in helpers:
            helper.start()
        drain(workers[0], firsts[0])
        for helper in helpers:
            helper.join()
        if errors:
            raise errors[0]

        if method.name == "fedbn":
            new_state = aggregate_fedbn(mean, global_state,
                                        global_model.bn_param_names())
        elif method.name == "fedyogi":
            new_state = yogi_server_step(yogi, global_state, mean, method)
        else:
            new_state = mean
        global_model.load_state_dict(new_state)
        # Evaluation reuses the memory of the mean and the server step.
        del new_state
        mean.clear()
        accuracy = evaluate(global_model, test_set.images, test_set.labels)
    return RoundRecord(round=round_idx, accuracy=accuracy, loss=loss_sum / total,
                       seconds=sw.seconds)


def worker_count(threads: int, sample_macs: int, batch_size: int,
                 client_sizes) -> int:
    """How many threads train a run's clients. A local step costs
    `sample_macs` per sample over a batch no larger than the largest client;
    below HELPERS_FROM_STEP_MACS the calling thread trains every client,
    otherwise min(threads, clients) threads do."""
    step_macs = sample_macs * min(batch_size, max(client_sizes))
    if step_macs < HELPERS_FROM_STEP_MACS:
        return 1
    return max(1, min(threads, len(client_sizes)))


def _load_data(exp) -> tuple[Dataset, Dataset]:
    d = exp.data
    if d.source == "synthetic":
        train = synth_dataset(exp.seed, d.num_classes, d.per_class, d.resolution, "train")
        test = synth_dataset(exp.seed, d.num_classes, d.test_per_class, d.resolution, "test")
    else:
        train = load_cifar10_binary(d.path, "train")
        test = load_cifar10_binary(d.path, "test")
    return train, test


def _build_partition(exp, train: Dataset):
    d = exp.data
    if d.partition_kind == "iid":
        part = partition_iid(train, d.num_clients, exp.seed)
    else:
        part = partition_label_skew(train, d.num_clients, d.target_ks,
                                    d.tolerance, exp.seed)
    ks = mean_pairwise_ks(part, train.labels, train.num_classes)
    return part, ks


def _make_optimizer(optim_cfg, params):
    if optim_cfg.kind == "adamw":
        return AdamW(params, weight_decay=optim_cfg.weight_decay)
    return SGD(params, momentum=optim_cfg.momentum)


def _make_schedule(optim_cfg, method: FLMethodConfig) -> LrSchedule:
    base = method.eta_client if method.name == "fedyogi" else optim_cfg.base_lr
    return LrSchedule(base, optim_cfg.warmup_epochs, optim_cfg.total_epochs)


def run_federated(exp, threads: int = 1, round_checkpoint=None,
                  capture: dict | None = None) -> ExperimentReport:
    """Execute the configured number of communication rounds (stopping once
    an evaluation, round 0's included, meets the target accuracy when one is
    set) and return the full report. `threads` is an upper bound on the
    threads that train clients (`worker_count`).
    `round_checkpoint(round_idx, state)` is invoked after every evaluation
    with `state_views` of the global model (copy them to keep a round's
    state); `capture`, when given, receives the final state, model, and
    clients so a caller can persist optimizer state."""
    method = exp.fl.method
    train, test = _load_data(exp)
    partition, ks = _build_partition(exp, train)
    if method.name == "share":
        partition = build_shared_pool(partition, method.fraction, exp.seed)

    global_model = Network(exp.arch, exp.dtype)
    global_model.init_params(np.random.default_rng([exp.seed, 11]))
    global_state = state_views(global_model)
    trainable = list(global_model.named_parameters().keys())
    yogi = (YogiState(trainable, global_state, method.tau)
            if method.name == "fedyogi" else None)

    # Every Network of a config has the same registry, so the global one
    # shapes each client's optimizer, which then steps the worker arena it is
    # handed. The initial global BN entries are a fresh Network's defaults.
    bn = global_model.bn_param_names() if method.name == "fedbn" else set()
    clients = [
        ClientState(cid, partition[cid],
                    _make_optimizer(exp.optimizer, global_model.named_parameters()),
                    np.random.default_rng([exp.seed, 101, cid]),
                    {n: v.copy() for n, v in global_state.items() if n in bn})
        for cid in sorted(partition)]
    threads = worker_count(threads, global_model.macs(), exp.fl.batch_size,
                           [c.n_k for c in clients])
    workers = [Network(exp.arch, exp.dtype) for _ in range(threads)]
    schedule = _make_schedule(exp.optimizer, method)

    with StopWatch() as sw0:
        acc0 = evaluate(global_model, test.images, test.labels)
    records = [RoundRecord(0, acc0, None, sw0.seconds)]
    if round_checkpoint:
        round_checkpoint(0, global_state)

    for r in range(1, exp.fl.rounds + 1):
        if (exp.target_accuracy is not None
                and records[-1].accuracy >= exp.target_accuracy):
            break
        if exp.fl.clients_per_round is not None and exp.fl.clients_per_round < len(clients):
            rng = np.random.default_rng([exp.seed, 61, r])
            chosen = np.sort(rng.choice(len(clients), size=exp.fl.clients_per_round,
                                        replace=False))
            participating = [clients[i] for i in chosen]
        else:
            participating = clients
        record = run_round(
            global_model, global_state, yogi, participating, workers=workers,
            method=method, dataset=train, test_set=test, round_idx=r,
            epochs=exp.fl.local_epochs, batch_size=exp.fl.batch_size,
            schedule=schedule, agc_cfg=exp.optimizer.agc, threads=threads)
        records.append(record)
        if round_checkpoint:
            round_checkpoint(r, global_state)

    if capture is not None:
        capture.update(state=global_state, model=global_model, clients=clients)
    return ExperimentReport(
        config=exp.raw, params=global_model.named_parameters().data.size,
        partition_mean_ks=ks, client_sizes=[c.n_k for c in clients],
        records=records, target_accuracy=exp.target_accuracy)

