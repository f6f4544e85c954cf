"""Span tracer that wraps fedconv's public functions from outside the package.

`Tracer.install()` replaces, for the life of one run, the module attributes
that callers look up: `fedconv.autodiff.conv2d` because `layers` calls
`ad.conv2d`, `fedconv.federated.local_update` because `run_round` calls it
through the module, `fedconv.cli.save_checkpoint` because the CLI imported it
by name, and so on. It also wraps each op result's `_backward` closure and
each leaf's `forward`, taken from `Network.iter_layers()`, on every model the
run builds. Nothing under `src/` changes, so the traced run executes the same
arithmetic as an untraced one.

A span is (id, name, start, end, parent, thread, attrs); spans stay in memory
and are written out when the run ends. Self time is a span's duration minus
that of its children on the same thread. Client updates that run on pool
threads take the enclosing round as their parent.
"""

from __future__ import annotations

import gc
import itertools
import json
import threading
import time
import weakref
from collections import defaultdict

OP_KINDS = ("conv2d_dw", "conv2d_pw", "conv2d_dense", "act", "norm", "pool",
            "other")
MODEL_GROUPS = ("stem", "stage0", "stage1", "stage2", "stage3", "head")


def _conv_kind(args, kwargs) -> str:
    x, weight = args[0], args[1]
    groups = kwargs.get("groups", 1)
    if groups > 1 and groups == x.data.shape[1]:
        return "conv2d_dw"
    if weight.data.shape[-1] == 1:
        return "conv2d_pw"
    return "conv2d_dense"


def _model_group(path: str | None) -> str | None:
    if not path:
        return None
    head, _, rest = path.partition(".")
    if head == "stem":
        return "stem"
    if head == "stages":
        return "stage" + rest.partition(".")[0]
    return "head"  # pool, final_norm, head


def _nbytes(arrays) -> int:
    return int(sum(getattr(a, "nbytes", 0) for a in arrays))


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._networks: weakref.WeakSet = weakref.WeakSet()
        self._round_sid: int | None = None
        self._gc_start: tuple | None = None
        self._lock = threading.Lock()  # counters are updated from pool threads

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _run(self, name, fn, args, kwargs, attrs=None, *, path=None,
             eval_mode=None):
        """Call fn inside a span. Stack entries are (id, model path, eval);
        path and eval mode are inherited unless given."""
        stack = self._stack()
        if stack:
            parent, ppath, peval = stack[-1]
        else:
            parent, ppath, peval = self._round_sid, None, False
        sid = next(self._ids)
        stack.append((sid, ppath if path is None else path,
                      peval if eval_mode is None else eval_mode))
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, t0, t1, parent,
                               threading.get_ident(), attrs))

    def _context(self) -> tuple:
        stack = self._stack()
        return stack[-1] if stack else (None, None, False)

    def _on_gc(self, phase, info) -> None:
        if phase == "start":
            self._gc_start = (time.perf_counter(), self._context()[0])
        elif self._gc_start is not None:
            t0, parent = self._gc_start
            self._gc_start = None
            self.spans.append((next(self._ids), "runtime.gc", t0,
                               time.perf_counter(), parent,
                               threading.get_ident(),
                               {"collected": info.get("collected", 0)}))

    # -- wrappers -----------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _span(self, name: str, attrs_of=None, **flags):
        def make(fn):
            def wrapper(*args, **kwargs):
                attrs = attrs_of(args, kwargs) if attrs_of else None
                return self._run(name, fn, args, kwargs, attrs, **flags)
            return wrapper
        return make

    def _op(self, kind_of):
        def make(fn):
            def op(*args, **kwargs):
                kind = kind_of if isinstance(kind_of, str) else kind_of(args, kwargs)
                _, path, in_eval = self._context()
                attrs = {"path": path, "eval": in_eval}
                out = self._run(f"autodiff.{kind}.fwd", fn, args, kwargs, attrs)
                if kind.startswith("conv2d"):
                    attrs["out_bytes"] = out.data.nbytes
                if out._backward is not None:
                    out._backward = self._backward_of(out._backward, kind, path)
                return out
            return op
        return make

    def _backward_of(self, closure, kind: str, path):
        name = f"autodiff.{kind}.bwd"
        attrs = {"path": path}

        def bwd():
            self._run(name, closure, (), {}, attrs)
        return bwd

    def _network(self, cls):
        def build(*args, **kwargs):
            net = cls(*args, **kwargs)
            self._instrument(net)
            return net
        return build

    def _instrument(self, net) -> None:
        self._networks.add(net)
        for path, layer in net.iter_layers():
            layer.forward = self._layer_forward(layer.forward, path)
        for i, (_, blocks) in enumerate(net.stages):
            for j, block in enumerate(blocks):
                block.forward = self._layer_forward(block.forward,
                                                    f"stages.{i}.blocks.{j}")
        net.forward = self._layer_forward(net.forward, "", "models.forward")

    def _layer_forward(self, forward, path: str, name: str = "models.layer"):
        def layer_forward(x):
            attrs = {"path": path, "eval": self._context()[2]}
            return self._run(name, forward, (x,), {}, attrs, path=path)
        return layer_forward

    def _agc(self, unitwise_norm):
        def make(fn):
            def clip(named_params, cfg, exclude=frozenset()):
                for name, t in named_params.items():
                    if name in exclude:
                        continue
                    limit = cfg.clipping * unitwise_norm(t.data).clip(min=cfg.eps)
                    clipped = unitwise_norm(t.grad) > limit
                    with self._lock:
                        self.counters["agc_units"] += clipped.size
                        self.counters["agc_clipped"] += int(clipped.sum())
                return self._run("optim.agc", fn, (named_params, cfg, exclude), {})
            return clip
        return make

    def _round(self, fn):
        def run_round(*args, **kwargs):
            clients = args[3] if len(args) > 3 else kwargs["clients"]
            attrs = {"threads": min(kwargs.get("threads", 1), len(clients))}

            def body():
                self._round_sid = self._context()[0]  # parent for pool threads
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._round_sid = None
            try:
                return self._run("federated.round", body, (), {}, attrs)
            finally:
                self._note_resident()
        return run_round

    def _note_resident(self) -> None:
        total = 0
        for net in list(self._networks):
            total += _nbytes(t.data for t in net.named_parameters().values())
            total += _nbytes(t.grad for t in net.named_parameters().values())
            total += _nbytes(net.named_buffers().values())
        self.counters["resident_model_bytes"] = max(
            self.counters["resident_model_bytes"], total)

    def install(self) -> None:
        import fedconv.autodiff as ad
        import fedconv.cli as cli
        import fedconv.federated as fed
        import fedconv.models as models
        import fedconv.optim as optim
        import fedconv.reporting as reporting

        p = self._patch
        p(ad, "conv2d", self._op(_conv_kind))
        for attr, kind in (("linear", "other"), ("add", "other"),
                           ("maxpool2d", "pool"), ("global_avg_pool", "pool"),
                           ("layer_norm_c", "norm"), ("batch_norm", "norm"),
                           ("activation", "act")):
            p(ad, attr, self._op(kind))
        p(fed, "softmax_cross_entropy", self._op("other"))
        p(ad.Tensor, "backward", self._span("autodiff.backward"))
        p(fed, "Network", self._network)

        p(optim.AdamW, "step", self._span("optim.step"))
        p(optim.SGD, "step", self._span("optim.step"))
        p(models.Network, "zero_grad", self._span("optim.zero_grad"))
        p(fed, "clip_model_grads", self._agc(optim.unitwise_norm))

        p(fed, "synth_dataset", self._span("data.synth"))
        for attr in ("partition_iid", "partition_label_skew",
                     "mean_pairwise_ks", "build_shared_pool"):
            p(fed, attr, self._span("data.partition"))
        p(fed, "to_input", self._span("data.to_input"))
        p(reporting, "to_input", self._span("data.to_input"))

        p(fed, "run_round", self._round)
        p(fed, "local_update", self._span("federated.local_update"))
        p(fed, "train_epochs", self._span("federated.train_epochs"))
        p(fed, "aggregate_fedavg", self._span(
            "federated.aggregate",
            lambda a, k: {"bytes": sum(_nbytes(s.values()) for _, s, _ in a[0])}))
        p(fed, "aggregate_fedbn", self._span("federated.aggregate"))
        p(fed, "yogi_server_step", self._span("federated.aggregate"))
        p(fed, "evaluate", self._span(
            "reporting.evaluate", lambda a, k: {"samples": len(a[2])},
            eval_mode=True))
        p(cli, "write_report", self._span("reporting.write_report"))
        p(cli, "save_checkpoint", self._span(
            "reporting.checkpoint",
            lambda a, k: {"bytes": _nbytes(a[0].values())}))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output -------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for sid, name, t0, t1, parent, thread, attrs in self.spans:
                f.write(json.dumps({"run": self.run_id, "id": sid, "name": name,
                                    "start": t0, "end": t1, "parent": parent,
                                    "thread": thread, **(attrs or {})}) + "\n")

    def summary(self) -> dict:
        """Per-layer metrics plus per-leaf-path totals, from the spans.

        Op times are self times over training and evaluation. Model stage
        times cover training only: a stage's forward is its top-level layer
        and block spans, its backward the op closures created inside it.
        `graph_walk_s` is `Tensor.backward` minus its op closures,
        `nodes_per_step` the closures one backward runs, `broadcast_s` is
        `local_update` minus `train_epochs`, and `pool_idle_frac` is
        1 - busy / (threads x training-phase wall) summed over rounds.
        """
        spans = self.spans
        by_id = {s[0]: s for s in spans}
        child_s: dict[int, float] = defaultdict(float)
        for sid, _, t0, t1, parent, thread, _ in spans:
            if parent in by_id and by_id[parent][5] == thread:
                child_s[parent] += t1 - t0

        def dur(s):
            return s[3] - s[2]

        def self_s(s):
            return dur(s) - child_s[s[0]]

        def named(name):
            return [s for s in spans if s[1] == name]

        def outermost(name):
            """Spans of `name` with no ancestor of the same name."""
            out = []
            for s in named(name):
                p = by_id.get(s[4])
                while p is not None and p[1] != name:
                    p = by_id.get(p[4])
                if p is None:
                    out.append(s)
            return out

        def total(name):
            return sum(dur(s) for s in outermost(name))

        m: dict[str, float] = {}
        backward = named("autodiff.backward")
        backward_ids = {s[0] for s in backward}
        op_time = {}
        for kind in OP_KINDS:
            fwd = named(f"autodiff.{kind}.fwd")
            bwd = named(f"autodiff.{kind}.bwd")
            m[f"autodiff.{kind}.fwd_s"] = sum(self_s(s) for s in fwd)
            m[f"autodiff.{kind}.bwd_s"] = sum(self_s(s) for s in bwd)
            m[f"autodiff.{kind}.calls"] = len(fwd)
            if kind.startswith("conv2d"):
                m[f"autodiff.{kind}.out_bytes"] = sum(s[6]["out_bytes"] for s in fwd)
            op_time[kind] = m[f"autodiff.{kind}.fwd_s"] + m[f"autodiff.{kind}.bwd_s"]
        m["autodiff.graph_walk_s"] = sum(self_s(s) for s in backward)
        closures = sum(1 for s in spans
                       if s[1].endswith(".bwd") and s[4] in backward_ids)
        m["autodiff.nodes_per_step"] = closures / max(len(backward), 1)

        forwards = named("models.forward")
        train_fwd_ids = {s[0] for s in forwards if not s[6]["eval"]}
        group_fwd = dict.fromkeys(MODEL_GROUPS, 0.0)
        group_bwd = dict.fromkeys(MODEL_GROUPS, 0.0)
        per_path: dict[str, dict] = defaultdict(
            lambda: {"fwd_s": 0.0, "bwd_s": 0.0, "calls": 0})
        for s in named("models.layer"):
            if s[6]["eval"]:
                continue
            path = s[6]["path"]
            per_path[path]["fwd_s"] += dur(s)
            per_path[path]["calls"] += 1
            if s[4] in train_fwd_ids:
                group_fwd[_model_group(path)] += dur(s)
        for s in spans:
            if s[1].endswith(".bwd") and s[6]["path"]:
                per_path[s[6]["path"]]["bwd_s"] += dur(s)
                group_bwd[_model_group(s[6]["path"])] += dur(s)
        for g in MODEL_GROUPS:
            m[f"models.{g}.fwd_s"] = group_fwd[g]
            m[f"models.{g}.bwd_s"] = group_bwd[g]
        m["models.forward_eval_s"] = sum(dur(s) for s in forwards if s[6]["eval"])

        m["optim.step_s"] = total("optim.step")
        m["optim.agc_s"] = total("optim.agc")
        m["optim.zero_grad_s"] = total("optim.zero_grad")
        m["optim.agc_clip_frac"] = (self.counters["agc_clipped"]
                                    / max(self.counters["agc_units"], 1))

        m["data.synth_s"] = total("data.synth")
        m["data.partition_s"] = total("data.partition")
        m["data.to_input_s"] = total("data.to_input")

        m["federated.local_update_s"] = total("federated.local_update")
        m["federated.train_s"] = total("federated.train_epochs")
        m["federated.broadcast_s"] = (m["federated.local_update_s"]
                                      - m["federated.train_s"])
        m["federated.aggregate_s"] = total("federated.aggregate")
        busy = capacity = 0.0
        updates = outermost("federated.local_update")
        for r in named("federated.round"):
            mine = [s for s in updates if s[4] == r[0]]
            if mine:
                busy += sum(dur(s) for s in mine)
                wall = max(s[3] for s in mine) - min(s[2] for s in mine)
                capacity += r[6]["threads"] * wall
        m["federated.pool_idle_frac"] = 1.0 - busy / capacity if capacity else 0.0
        # Only aggregate_fedavg spans carry bytes; every method calls it once.
        m["federated.aggregate_bytes"] = sum(
            s[6]["bytes"] for s in named("federated.aggregate") if s[6])
        m["federated.resident_model_bytes"] = self.counters["resident_model_bytes"]

        evals = outermost("reporting.evaluate")
        m["reporting.evaluate_s"] = sum(dur(s) for s in evals)
        m["reporting.eval_samples_per_s"] = (
            sum(s[6]["samples"] for s in evals) / max(m["reporting.evaluate_s"], 1e-12))
        m["reporting.write_report_s"] = total("reporting.write_report")
        checkpoints = outermost("reporting.checkpoint")
        m["reporting.checkpoint_s"] = sum(dur(s) for s in checkpoints)
        m["reporting.checkpoint_bytes"] = sum(s[6]["bytes"] for s in checkpoints)

        gcs = named("runtime.gc")
        m["runtime.gc_collected"] = sum(s[6]["collected"] for s in gcs)
        m["runtime.gc_pause_s"] = sum(dur(s) for s in gcs)

        # Self-check: op time plus the graph walk accounts for the model's
        # training forward and backward; what is left is layer glue. Backward
        # is op closures plus the walk by construction, so this tests that
        # the op spans cover the forward pass.
        model_s = (sum(dur(s) for s in forwards if not s[6]["eval"])
                   + sum(dur(s) for s in backward))
        op_fwd_in_model = sum(
            dur(s) for s in spans
            if s[1].endswith(".fwd") and s[6]["path"] is not None
            and not s[6]["eval"])
        accounted = op_fwd_in_model + sum(dur(s) for s in backward)
        m["trace.unaccounted_frac"] = 1.0 - accounted / model_s if model_s else 0.0
        all_ops = sum(op_time.values())
        shares = {k: v / all_ops for k, v in op_time.items()} if all_ops else {}
        return {"metrics": m, "op_shares": shares, "spans": len(spans),
                "per_path": dict(sorted(per_path.items()))}
