"""Federated orchestration: local updates, aggregation rules, round loop."""

import json
import math
import sys
import threading
import tracemalloc
from collections import OrderedDict

import numpy as np
import pytest

from fedconv import autodiff as ad
from fedconv import federated as fed
from fedconv.autodiff import NumericsError, Tensor
from fedconv.config import parse_experiment
from fedconv.data import DataError, synth_dataset, to_input
from fedconv.federated import (ClientState, FLMethodConfig, YogiState,
                               aggregate_fedavg, aggregate_fedbn,
                               apply_prox_grads, local_update, run_federated,
                               train_epochs, yogi_server_step)
from fedconv.models import Network, count_params
from fedconv.optim import LrSchedule, ParamArena, SGD, lr_at
from fedconv.reporting import write_report

from helpers import central_train
from test_config_cli import base_doc


class ToyModel:
    """Two-class linear probe on channel means; the minimal object satisfying
    the model surface the round loop relies on."""

    def __init__(self, num_classes=2, dtype=np.float64):
        self.dtype = np.dtype(dtype)
        self.w = Tensor(np.zeros((num_classes, 3), dtype=dtype), requires_grad=True)
        self._params = ParamArena([("head.weight", self.w)])

    def forward(self, x):
        return ad.linear(ad.global_avg_pool(x), self.w)

    def named_parameters(self):
        return self._params

    def named_buffers(self):
        return OrderedDict()

    def zero_grad(self):
        self._params.grad.fill(0)

    def train(self):
        return self

    def eval(self):
        return self

    def bn_param_names(self):
        return set()

    def head_param_names(self):
        return set()  # let the toy clip everything if AGC is on

    def state_dict(self):
        return OrderedDict((n, t.data.copy()) for n, t in self._params.items())

    def load_state_dict(self, state):
        for n, t in self._params.items():
            t.data[...] = state[n]


def flat_schedule(lr=0.5):
    return LrSchedule(base_lr=lr, warmup_epochs=0, total_epochs=10**6)


def toy_experiment(**overrides):
    doc = {
        "seed": 0,
        "arch": {
            "stem": "conv", "block": "invert_up", "channels": [4, 4, 4, 4],
            "depths": [1, 1, 1, 1], "kernel_size": 3, "activation": "silu",
            "act_placement": "act2", "norm_placement": "none",
            "norm_kind": "none", "num_classes": 4, "input_resolution": 32,
        },
        "fl": {
            "method": {"name": "fedavg"}, "rounds": 2, "local_epochs": 1,
            "batch_size": 16,
        },
        "optimizer": {
            "kind": "adamw", "base_lr": 1e-3, "warmup_epochs": 0,
            "total_epochs": 8, "weight_decay": 0.0,
        },
        "data": {
            "source": "synthetic", "num_clients": 2,
            "partition": {"kind": "iid"}, "num_classes": 4, "per_class": 12,
            "test_per_class": 4, "resolution": 32,
        },
    }
    for key, value in overrides.items():
        head, _, rest = key.partition(".")
        if rest:
            doc[head][rest] = value
        else:
            doc[head] = value
    return parse_experiment(doc)


def collect_states(exp, **kwargs):
    states = {}
    report = run_federated(exp, round_checkpoint=lambda r, s: states.update(
        {r: {k: v.copy() for k, v in s.items()}}), **kwargs)
    return report, states


def assert_states_equal(a, b, bitwise=True):
    assert a.keys() == b.keys()
    for r in a:
        for name in a[r]:
            if bitwise:
                assert np.array_equal(a[r][name], b[r][name]), (r, name)
            else:
                np.testing.assert_allclose(a[r][name], b[r][name], atol=1e-6)


class TestAggregateFedavg:
    def one(self, *entries):
        return [(cid, {"w": np.array([val], dtype=np.float64)}, nk)
                for cid, val, nk in entries]

    def test_equal_sizes_plain_mean(self):
        out = aggregate_fedavg(self.one((0, 1.0, 10), (1, 3.0, 10)))
        assert out["w"][0] == 2.0

    def test_weighted_mean(self):
        out = aggregate_fedavg(self.one((0, 0.0, 1), (1, 4.0, 3)))
        assert out["w"][0] == 3.0

    def test_identical_clients_idempotent(self):
        out = aggregate_fedavg(self.one((0, 1.5, 7), (1, 1.5, 7), (2, 1.5, 7)))
        assert out["w"][0] == 1.5

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        entries = [(cid, {"w": rng.standard_normal(8)}, int(nk))
                   for cid, nk in zip(range(5), rng.integers(1, 50, 5))]
        a = aggregate_fedavg(entries)
        b = aggregate_fedavg(list(reversed(entries)))
        np.testing.assert_array_equal(a["w"], b["w"])

    def test_mismatched_registry_raises(self):
        bad = [(0, {"w": np.zeros(1)}, 1), (1, {"v": np.zeros(1)}, 1)]
        with pytest.raises(ValueError, match="registry"):
            aggregate_fedavg(bad)

    def test_single_client_is_bitwise_identity(self):
        w = np.random.default_rng(1).standard_normal(16).astype(np.float32)
        out = aggregate_fedavg([(0, {"w": w}, 37)])
        assert np.array_equal(out["w"], w)


class TestAggregateFedbn:
    def test_no_bn_equals_fedavg(self):
        entries = [(0, {"w": np.array([1.0])}, 1), (1, {"w": np.array([3.0])}, 1)]
        plain = aggregate_fedavg(entries)
        bn = aggregate_fedbn(aggregate_fedavg(entries), {"w": np.array([9.0])}, set())
        assert np.array_equal(plain["w"], bn["w"])

    def test_bn_entries_keep_global_values(self):
        entries = [
            (0, {"w": np.array([1.0]), "bn.gamma": np.array([5.0])}, 1),
            (1, {"w": np.array([3.0]), "bn.gamma": np.array([7.0])}, 1),
        ]
        global_state = {"w": np.array([0.0]), "bn.gamma": np.array([1.0])}
        out = aggregate_fedbn(aggregate_fedavg(entries), global_state, {"bn.gamma"})
        assert out["w"][0] == 2.0
        assert out["bn.gamma"][0] == 1.0  # untouched by averaging

    def test_mixed_registry_hand_case(self):
        # Enumerate the registry: exactly the non-BN names are averaged.
        reg = ["stem.w", "bn.gamma", "bn.beta", "bn.running_mean", "head.w"]
        bn_names = {"bn.gamma", "bn.beta", "bn.running_mean"}
        mk = lambda v: {n: np.array([v], dtype=np.float64) for n in reg}
        out = aggregate_fedbn(aggregate_fedavg([(0, mk(0.0), 1), (1, mk(2.0), 1)]),
                             mk(-1.0), bn_names)
        for name in reg:
            assert out[name][0] == (-1.0 if name in bn_names else 1.0), name


class TestYogi:
    def method(self, **kw):
        base = dict(name="fedyogi", beta1=0.9, beta2=0.99, tau=0.05,
                    eta_client=0.01, eta_server=1.0)
        base.update(kw)
        return FLMethodConfig(**base)

    def test_zero_delta_rounds_leave_global(self):
        g = {"w": np.array([0.7])}
        yogi = YogiState(["w"], g, tau=0.05)
        for _ in range(5):
            out = yogi_server_step(yogi, g, aggregate_fedavg([(0, {"w": g["w"].copy()}, 3)]),
                                   self.method())
            assert out["w"][0] == 0.7
            g = out

    def test_single_step_hand_value(self):
        g = {"w": np.array([0.0])}
        yogi = YogiState(["w"], g, tau=0.05)
        out = yogi_server_step(yogi, g, aggregate_fedavg([(0, {"w": np.array([0.1])}, 1)]),
                               self.method())
        m = (1.0 - 0.9) * 0.1
        v = 0.05**2 - (1.0 - 0.99) * 0.1**2 * np.sign(0.05**2 - 0.1**2)
        expected = 0.0 + 1.0 * m / (np.sqrt(v) + 0.05)
        assert abs(out["w"][0] - expected) < 1e-12

    def test_sign_rule_v_decreases_when_large(self):
        g = {"w": np.array([0.0])}
        yogi = YogiState(["w"], g, tau=10.0)  # v0 = 100 >> delta^2
        v_before = yogi.v["w"].copy()
        yogi_server_step(yogi, g, aggregate_fedavg([(0, {"w": np.array([0.1])}, 1)]),
                         self.method(tau=10.0))
        assert yogi.v["w"][0] < v_before[0]

    def test_v_stays_positive_across_rounds(self):
        rng = np.random.default_rng(0)
        g = {"w": rng.standard_normal(16)}
        yogi = YogiState(["w"], g, tau=0.05)
        for _ in range(50):
            local = {"w": g["w"] + rng.standard_normal(16) * 0.5}
            g = yogi_server_step(yogi, g, aggregate_fedavg([(0, local, 1)]), self.method())
            assert np.all(yogi.v["w"] > 0)

    def test_buffers_bypass_moments(self):
        g = {"w": np.array([0.0]), "buf": np.array([0.0])}
        yogi = YogiState(["w"], g, tau=0.05)
        local = {"w": np.array([0.1]), "buf": np.array([4.0])}
        out = yogi_server_step(yogi, g, aggregate_fedavg([(0, local, 1)]), self.method())
        assert out["buf"][0] == 4.0  # plain weighted mean


class TestLocalUpdate:
    def make_client(self, dataset, indices, lr_momentum=0.0, seed=0):
        model = ToyModel()
        opt = SGD(model.named_parameters(), momentum=lr_momentum)
        return ClientState(0, indices, opt, np.random.default_rng([seed, 101, 0])), model

    def test_full_batch_sgd_matches_hand_gradient(self):
        ds = synth_dataset(0, 2, 8, 32)
        idx = np.arange(len(ds))
        client, model = self.make_client(ds, idx)
        w0 = np.zeros((2, 3))
        global_state = {"head.weight": w0.copy()}
        gamma = 0.5
        state, _ = local_update(
            client, model, global_state, method=FLMethodConfig("fedavg"), dataset=ds,
            epochs=1, batch_size=len(idx), schedule=flat_schedule(gamma),
            agc_cfg=None)
        # hand gradient of mean cross-entropy for the linear probe
        feats = to_input(ds.images[idx], np.float64).mean(axis=(2, 3))
        z = feats @ w0.T
        p = np.exp(z - z.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(len(idx)), ds.labels[idx]] -= 1.0
        grad = p.T @ feats / len(idx)
        np.testing.assert_allclose(state["head.weight"], w0 - gamma * grad, atol=1e-12)

    def test_prox_gradient_formula(self):
        params = ParamArena([("w", Tensor(np.array([1.0]), requires_grad=True)),
                             ("b", Tensor(np.array([[2.0, -1.0]]), requires_grad=True))])
        params["b"].grad[...] = 0.5
        apply_prox_grads(params, 0.1, np.array([0.0, 2.0, 1.0]))
        assert abs(params["w"].grad[0] - 0.1) < 1e-15
        np.testing.assert_allclose(params["b"].grad, [[0.5, 0.5 - 0.2]], rtol=0, atol=1e-15)

    def test_prox_zero_mu_identical_trajectory(self):
        ds = synth_dataset(1, 2, 10, 32)
        idx = np.arange(len(ds))

        def run(method):
            client, model = self.make_client(ds, idx, seed=3)
            state, _ = local_update(
                client, model, {"head.weight": np.zeros((2, 3))}, method=method,
                dataset=ds, epochs=2, batch_size=8,
                schedule=flat_schedule(0.3), agc_cfg=None)
            return state["head.weight"]

        a = run(FLMethodConfig("fedavg"))
        b = run(FLMethodConfig("fedprox", mu=0.0))
        assert np.array_equal(a, b)

    def test_prox_pulls_towards_global(self):
        ds = synth_dataset(2, 2, 10, 32)
        idx = np.arange(len(ds))

        def run(mu):
            client, model = self.make_client(ds, idx, seed=4)
            state, _ = local_update(
                client, model, {"head.weight": np.zeros((2, 3))},
                method=FLMethodConfig("fedprox", mu=mu), dataset=ds,
                epochs=8, batch_size=len(idx), schedule=flat_schedule(0.2),
                agc_cfg=None)
            return np.linalg.norm(state["head.weight"])

        assert run(1.0) < run(0.0)  # keep lr*mu < 1 so the prox map contracts

    def test_empty_client_rejected(self):
        ds = synth_dataset(3, 2, 4, 32)
        client, model = self.make_client(ds, np.array([], dtype=np.int64))
        with pytest.raises(DataError, match="empty"):
            local_update(client, model, {"head.weight": np.zeros((2, 3))},
                         method=FLMethodConfig("fedavg"), dataset=ds, epochs=1,
                         batch_size=4, schedule=flat_schedule(), agc_cfg=None)

    def test_step_lr_is_the_schedule_at_the_optimizer_clock(self):
        # A client that has taken k steps is k steps into its warmup: its
        # next full-batch step uses lr_at(schedule, k), not the lr of step 0.
        ds = synth_dataset(0, 2, 8, 32)
        idx = np.arange(len(ds))
        schedule = LrSchedule(base_lr=0.5, warmup_epochs=4, total_epochs=10)
        k = 3
        model = ToyModel()
        opt = SGD(model.named_parameters())
        opt.load_state_dict({"t": k})
        perm = np.random.default_rng(7).permutation(len(idx))
        probe = ToyModel()
        ad.softmax_cross_entropy(
            probe.forward(Tensor(to_input(ds.images[idx[perm]], np.float64))),
            ds.labels[idx[perm]]).backward()
        g = probe.w.grad.copy()
        train_epochs(model, opt, ds, idx, np.random.default_rng(7), epochs=1,
                     batch_size=len(idx), schedule=schedule)
        lr = lr_at(schedule, k, 1)
        assert lr > 0 and opt.t == k + 1
        assert model.w.data.tobytes() == (0.0 - g * lr).tobytes()


class TestRunFederated:
    def test_zero_rounds_single_record(self):
        exp = toy_experiment(**{"fl.rounds": 0})
        report = run_federated(exp)
        assert len(report.records) == 1
        assert report.records[0].round == 0
        assert report.records[0].loss is None

    def test_degenerate_single_client_equals_central(self):
        over = {"data.num_clients": 1, "fl.rounds": 3}
        fl_states = {}
        run_federated(toy_experiment(**over),
                      round_checkpoint=lambda r, s: fl_states.update(
                          {r: {k: v.copy() for k, v in s.items()}}))
        central_states = {}
        central_train(toy_experiment(**over),
                      round_checkpoint=lambda r, s: central_states.update(
                          {r: {k: v.copy() for k, v in s.items()}}))
        assert_states_equal(fl_states, central_states, bitwise=True)

    def test_one_step_fedavg_equals_pooled_sgd(self):
        # K=4 clients, one full-batch SGD step each, weights n_k: identical to
        # one centralized full-batch step by linearity of the pooled gradient.
        over = {
            "data.num_clients": 4, "data.per_class": 16,
            "fl.rounds": 1, "fl.batch_size": 4096,
            "optimizer.kind": "sgd", "optimizer.base_lr": 0.2,
            "dtype": "f64",
            "data.partition": {"kind": "label_skew", "target_ks": 0.5,
                               "tolerance": 0.05},
        }
        _, fl_states = collect_states(toy_experiment(**over))
        central_states = {}
        central_train(toy_experiment(**over),
                      round_checkpoint=lambda r, s: central_states.update(
                          {r: {k: v.copy() for k, v in s.items()}}))
        for name, v in fl_states[1].items():
            np.testing.assert_allclose(v, central_states[1][name], atol=1e-6)

    def test_fedprox_mu0_bitwise_fedavg(self):
        _, a = collect_states(toy_experiment())
        _, b = collect_states(toy_experiment(**{"fl.method": {"name": "fedprox", "mu": 0.0}}))
        assert_states_equal(a, b, bitwise=True)

    def test_fedbn_on_bn_free_model_bitwise_fedavg(self):
        _, a = collect_states(toy_experiment())
        _, b = collect_states(toy_experiment(**{"fl.method": {"name": "fedbn"}}))
        assert_states_equal(a, b, bitwise=True)

    def test_fedbn_keeps_client_bn_local(self):
        over = {
            "arch.norm_kind": "bn", "arch.norm_placement": "all",
            "fl.method": {"name": "fedbn"}, "fl.rounds": 2,
        }
        capture = {}
        exp = toy_experiment(**over)
        report = run_federated(exp, capture=capture)
        # BN running statistics are state, not parameters
        assert report.params == count_params(exp.arch)
        model = capture["model"]
        bn_names = model.bn_param_names()
        assert bn_names
        # global BN stats never aggregated: still at their initial values
        state = capture["state"]
        for name in bn_names:
            if name.endswith("running_mean"):
                np.testing.assert_array_equal(state[name], np.zeros_like(state[name]))
        # clients trained, so their local BN stats moved
        client_state = capture["clients"][0].local
        moved = any(not np.allclose(client_state[n], state[n])
                    for n in bn_names if n.endswith("running_mean"))
        assert moved

    @pytest.mark.usefixtures("helper_threads")
    def test_worker_count_does_not_change_results(self):
        # fedbn + BN keeps client-local entries; sampling 3 of 4 clients per
        # round puts clients on different workers from round to round.
        over = {
            "arch.norm_kind": "bn", "arch.norm_placement": "all",
            "fl.method": {"name": "fedbn"}, "fl.rounds": 3,
            "fl.clients_per_round": 3, "data.num_clients": 4,
        }
        runs = []
        for threads in (1, 3):
            capture = {}
            _, states = collect_states(toy_experiment(**over), threads=threads,
                                       capture=capture)
            runs.append((states, capture["clients"]))
        (states1, clients1), (states3, clients3) = runs
        assert_states_equal(states1, states3, bitwise=True)
        assert clients1[0].local
        for a, b in zip(clients1, clients3):
            assert a.local.keys() == b.local.keys()
            for name in a.local:
                assert a.local[name].tobytes() == b.local[name].tobytes(), (a.id, name)

    @pytest.mark.parametrize("threads, helpers",
                             [(1, True), (2, True), (5, True), (2, False)],
                             ids=["1", "2", "5", "2-small_step"])
    def test_builds_one_network_per_worker_plus_global(self, threads, helpers,
                                                       monkeypatch, request):
        if helpers:
            request.getfixturevalue("helper_threads")
        built = []

        def counting_network(*args, **kwargs):
            built.append(1)
            return Network(*args, **kwargs)

        monkeypatch.setattr(fed, "Network", counting_network)
        run_federated(toy_experiment(**{"data.num_clients": 3, "fl.rounds": 1}),
                      threads=threads)
        # Below the MACs bound one worker trains every client.
        assert len(built) == (min(threads, 3) if helpers else 1) + 1

    def test_share_method_runs_and_grows_clients(self, tmp_path):
        over = {"fl.method": {"name": "share", "fraction": 0.25}, "fl.rounds": 1}
        capture = {}
        report = run_federated(toy_experiment(**over), capture=capture)
        base = 48 // 2
        for client in capture["clients"]:
            assert client.n_k > base
        assert report.client_sizes == [c.n_k for c in capture["clients"]]
        _, json_path = write_report(report, tmp_path)
        records = json.loads(json_path.read_text(encoding="utf-8"))["records"]
        assert len(records) == 2
        assert all(r["client_sizes"] == report.client_sizes for r in records)

    def test_fedyogi_round_runs(self):
        over = {"fl.method": {"name": "fedyogi"}, "fl.rounds": 2,
                "optimizer.kind": "sgd", "optimizer.base_lr": 0.05}
        exp = toy_experiment(**over)
        report = run_federated(exp)
        assert len(report.records) == 3
        assert report.params == count_params(exp.arch)

    def test_client_optimizer_state_persists(self):
        capture = {}
        run_federated(toy_experiment(**{"fl.rounds": 3}), capture=capture)
        for client in capture["clients"]:
            # 12*4/2 = 24 samples per client, batch 16 -> 2 steps per round
            assert client.optimizer.t == 3 * 2

    def test_client_clock_counts_only_its_own_rounds(self):
        exp = toy_experiment(**{"data.num_clients": 4, "fl.clients_per_round": 2,
                                "fl.rounds": 4, "data.per_class": 20})
        capture = {}
        run_federated(exp, capture=capture)
        taken = np.zeros(4, dtype=np.int64)
        for r in range(1, 5):
            rng = np.random.default_rng([exp.seed, 61, r])
            taken[rng.choice(4, size=2, replace=False)] += 1
        assert len(set(taken.tolist())) > 1  # some client sat rounds out
        for client in capture["clients"]:
            # 20*4/4 = 20 samples per client, batch 16 -> 2 steps per round
            assert client.optimizer.t == taken[client.id] * math.ceil(
                client.n_k / exp.fl.batch_size) == taken[client.id] * 2

    @pytest.mark.usefixtures("helper_threads")
    def test_threads_do_not_change_results(self):
        exp1 = toy_experiment(**{"data.num_clients": 4, "fl.rounds": 2})
        exp2 = toy_experiment(**{"data.num_clients": 4, "fl.rounds": 2})
        _, a = collect_states(exp1, threads=1)
        _, b = collect_states(exp2, threads=4)
        assert_states_equal(a, b, bitwise=True)

    @pytest.mark.usefixtures("helper_threads")
    def test_fold_under_thread_stress(self):
        # More threads than cores and a short switch interval scramble the
        # order clients finish in, so the fold's held copies and hand-offs
        # run often; a lost or reordered update changes the bits.
        over = {"data.num_clients": 8, "data.per_class": 13, "fl.rounds": 3}
        want_report, want = collect_states(toy_experiment(**over), threads=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got_report, got = collect_states(toy_experiment(**over), threads=6)
        finally:
            sys.setswitchinterval(interval)
        assert_states_equal(want, got, bitwise=True)
        assert ([r.loss for r in got_report.records]
                == [r.loss for r in want_report.records])

    @pytest.mark.usefixtures("helper_threads")
    def test_calling_thread_trains_too(self, monkeypatch):
        # `threads` counts the caller: two threads in all, the caller one.
        idents = []
        real = fed.local_update

        def recording(*args, **kwargs):
            idents.append(threading.get_ident())
            return real(*args, **kwargs)

        monkeypatch.setattr(fed, "local_update", recording)
        run_federated(toy_experiment(**{"data.num_clients": 4, "fl.rounds": 1}),
                      threads=2)
        assert len(idents) == 4
        assert threading.get_ident() in idents
        assert len(set(idents)) <= 2

    def test_small_step_trains_on_calling_thread(self, monkeypatch):
        # The toy model's local step is far below HELPERS_FROM_STEP_MACS, so
        # `threads=2` starts no helper: every client trains on the caller.
        exp = toy_experiment(**{"data.num_clients": 4, "fl.rounds": 2})
        assert (Network(exp.arch).macs() * exp.fl.batch_size
                < fed.HELPERS_FROM_STEP_MACS)
        idents = []
        real = fed.local_update

        def recording(*args, **kwargs):
            idents.append(threading.get_ident())
            return real(*args, **kwargs)

        monkeypatch.setattr(fed, "local_update", recording)
        run_federated(exp, threads=2)
        assert idents == [threading.get_ident()] * 8

    def test_worker_count_rule(self):
        bound = fed.HELPERS_FROM_STEP_MACS
        at = -(-bound // 16)            # 16 samples reach the bound
        below = bound // 16 - 1         # 16 samples fall short of it
        sizes = [40, 40, 40]
        assert fed.worker_count(2, at, 16, sizes) == 2
        assert fed.worker_count(5, at, 16, sizes) == 3
        assert fed.worker_count(1, at, 16, sizes) == 1
        assert fed.worker_count(4, below, 16, sizes) == 1
        # A batch is no larger than the largest client: 8 samples of a
        # 16-sample batch fall below the bound, 16 of a 32-sample batch not.
        assert fed.worker_count(4, at, 16, [8, 4, 8]) == 1
        assert fed.worker_count(4, at, 32, [16, 4, 8]) == 3
        assert fed.worker_count(4, at, 32, [8, 4, 8]) == 1

    @pytest.mark.usefixtures("helper_threads")
    @pytest.mark.parametrize("on_caller", [True, False], ids=["caller", "helper"])
    def test_client_error_stops_every_thread(self, on_caller, monkeypatch):
        # Each thread's first update waits until both threads hold a client;
        # then one raises and the other finishes its update, after which
        # neither may take one of the two clients left.
        caller = threading.get_ident()
        both_in = threading.Barrier(2, timeout=30)
        raised = threading.Event()
        lock = threading.Lock()
        started, seen = [], set()
        real = fed.local_update

        def failing(client, *args, **kwargs):
            me = threading.get_ident()
            with lock:
                started.append(client.id)
                first = me not in seen
                seen.add(me)
            if first:
                both_in.wait()
                if (me == caller) == on_caller:
                    raised.set()
                    raise NumericsError(f"client {client.id} diverged")
                assert raised.wait(timeout=30)
            return real(client, *args, **kwargs)

        monkeypatch.setattr(fed, "local_update", failing)
        before = threading.active_count()
        with pytest.raises(NumericsError, match="diverged"):
            run_federated(toy_experiment(**{"data.num_clients": 4, "fl.rounds": 1}),
                          threads=2)
        assert len(started) == 2
        assert threading.active_count() == before

    # Client 0 finishes only after every other client of its round, so each
    # of them is held as a copy until client 0 is added to the mean.
    @pytest.mark.usefixtures("helper_threads")
    @pytest.mark.parametrize("threads", [2, 3])
    @pytest.mark.parametrize("over", [
        {"fl.method": {"name": "fedavg"}},
        {"fl.method": {"name": "fedprox", "mu": 0.01}},
        {"fl.method": {"name": "fedyogi"}, "optimizer.kind": "sgd",
         "optimizer.base_lr": 0.05},
        {"fl.method": {"name": "fedbn"}, "arch.norm_kind": "bn",
         "arch.norm_placement": "all"},
        {"fl.method": {"name": "share", "fraction": 0.25}},
    ], ids=["fedavg", "fedprox", "fedyogi", "fedbn", "share"])
    def test_out_of_order_completion_keeps_results(self, over, threads,
                                                   monkeypatch):
        over = {**over, "data.num_clients": 4, "fl.rounds": 2}
        # Clients 1 and 2 report losses offset by +-2**53, which cancel in the
        # round's loss sum only after client 0's loss has lost its low bits
        # in id order: a sum taken in finishing order has other bits.
        offset = {1: 2.0 ** 53, 2: -2.0 ** 53}
        true_update = fed.local_update

        def offset_loss(client, *args, **kwargs):
            state, loss = true_update(client, *args, **kwargs)
            return state, loss + offset.get(client.id, 0.0)

        monkeypatch.setattr(fed, "local_update", offset_loss)
        want_report, want = collect_states(toy_experiment(**over), threads=1)

        real = fed.local_update
        others_done = threading.Event()
        lock = threading.Lock()
        finished = []

        def client_zero_last(client, *args, **kwargs):
            out = real(client, *args, **kwargs)
            if client.id == 0:
                assert others_done.wait(timeout=30)
                others_done.clear()
            with lock:
                finished.append(client.id)
                if len(finished) % 4 == 3:
                    others_done.set()
            return out

        monkeypatch.setattr(fed, "local_update", client_zero_last)
        got_report, got = collect_states(toy_experiment(**over), threads=threads)
        assert finished[3::4] == [0, 0]
        assert_states_equal(want, got, bitwise=True)
        # The round's loss is summed in the same id order as its mean.
        assert ([(r.loss, r.accuracy) for r in got_report.records]
                == [(r.loss, r.accuracy) for r in want_report.records])

    def test_client_subsampling_is_seeded(self):
        over = {"data.num_clients": 4, "fl.clients_per_round": 2, "fl.rounds": 2}
        _, a = collect_states(toy_experiment(**over))
        _, b = collect_states(toy_experiment(**over))
        assert_states_equal(a, b, bitwise=True)

    def test_unreachable_params_get_zero_grad(self):
        # After backward, a parameter the loss never touches keeps an
        # all-zero arena gradient and the optimizer still accepts the step.
        from fedconv.optim import SGD as PlainSGD
        used = Tensor(np.ones((2, 3)), requires_grad=True)
        unused = Tensor(np.ones((2, 3)), requires_grad=True)
        params = ParamArena([("used", used), ("unused", unused)])
        feats = Tensor(np.random.default_rng(0).standard_normal((4, 3)))
        loss = ad.softmax_cross_entropy(ad.linear(feats, used), np.array([0, 1, 0, 1]))
        loss.backward()
        assert np.any(used.grad != 0)
        np.testing.assert_array_equal(unused.grad, np.zeros((2, 3)))
        PlainSGD(params).step(params, lr=0.1)  # no missing-grad error

    def test_early_stop_at_target(self):
        exp = toy_experiment(**{"fl.rounds": 50, "target_accuracy": 1.0})
        report = run_federated(exp)
        # 4-class data: even round 0 beats a 1% target
        assert len(report.records) == 1 or report.records[-1].accuracy >= 1.0
        assert report.rounds_to_target is not None
        assert report.tms == report.params * report.rounds_to_target

    def test_round_zero_at_target_trains_no_round(self):
        # Round 0 reads 43.75% and every trained round 37.5%: a run that
        # trained past a met target would end below it.
        doc = base_doc(**{"target_accuracy": 40, "fl.rounds": 6,
                          "optimizer.base_lr": 0.003, "data.num_clients": 3})
        report = run_federated(parse_experiment(doc))
        assert [r.round for r in report.records] == [0]
        assert report.final_accuracy == 43.75
        assert report.rounds_to_target == 0 and report.tms == 0


class WideToyModel(ToyModel):
    """ToyModel plus an unused 1 MiB parameter, so that a state copy costs
    as much as a small real network."""

    def __init__(self):
        super().__init__()
        self.pad = Tensor(np.zeros(1 << 17), requires_grad=True)
        self._params = ParamArena([("head.weight", self.w), ("pad.weight", self.pad)])


def test_round_memory_does_not_grow_with_clients():
    # A round holds the running mean, not one state per client: K = 12
    # equal-size clients must not raise traced memory by 3 model sizes.
    k = 12
    ds = synth_dataset(0, 2, 2 * k, 8)
    global_model, worker = WideToyModel(), WideToyModel()
    global_model.pad.data[...] = np.linspace(-1.0, 1.0, global_model.pad.data.size)
    clients = [ClientState(cid, np.arange(4 * cid, 4 * cid + 4),
                           SGD(worker.named_parameters()),
                           np.random.default_rng([0, 101, cid]))
               for cid in range(k)]
    model_bytes = global_model.named_parameters().data.nbytes
    assert model_bytes >= 1 << 20
    global_state = global_model.state_dict()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fed.run_round(global_model, global_state, None, clients,
                      workers=[worker], method=FLMethodConfig("fedavg"),
                      dataset=ds, test_set=ds, round_idx=1, epochs=1,
                      batch_size=4, schedule=flat_schedule(0.1), agc_cfg=None,
                      threads=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base < 3 * model_bytes, (peak - base) / model_bytes
    # Equal sizes and an untouched parameter: the mean equals the broadcast.
    np.testing.assert_allclose(global_model.pad.data,
                               np.linspace(-1.0, 1.0, global_model.pad.data.size),
                               rtol=0, atol=1e-15)
