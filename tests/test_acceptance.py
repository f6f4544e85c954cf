"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are pinned here, not configurable.
"""

import json
import math
import time
from collections import OrderedDict

import numpy as np
import pytest

from fedconv import autodiff as ad
from fedconv.autodiff import Tensor
from fedconv.cli import main
from fedconv.config import parse_experiment
from fedconv.data import (mean_pairwise_ks, partition_iid,
                          partition_label_skew, synth_dataset)
from fedconv.federated import (FLMethodConfig, YogiState, aggregate_fedavg,
                               run_federated, train_epochs, yogi_server_step)
from fedconv.gradcheck import finite_diff_check
from fedconv.layers import Conv2d, Linear
from fedconv.models import (Network, count_flops, count_params,
                            fedconv_config, fedconv_tiny_config)
from fedconv.optim import AGCConfig, AdamW, LrSchedule, unitwise_norm
from fedconv.reporting import evaluate, load_checkpoint, save_checkpoint, tms

from helpers import (ACTIVATION_FORMULAS, arena_clip, central_train,
                     loop_conv2d, std_normal_mean)


def ok(num: int, name: str) -> None:
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


def fedconv_tiny_doc(seed=0, rounds=2, **overrides):
    doc = {
        "seed": seed,
        "arch": {
            "stem": "conv", "block": "invert_up", "channels": [8, 16, 32, 64],
            "depths": [1, 1, 2, 1], "kernel_size": 9, "activation": "silu",
            "act_placement": "act2", "norm_placement": "none",
            "norm_kind": "none", "num_classes": 4, "input_resolution": 32,
        },
        "fl": {"method": {"name": "fedavg"}, "rounds": rounds,
               "local_epochs": 1, "batch_size": 32},
        "optimizer": {"kind": "adamw", "base_lr": 1e-3, "warmup_epochs": 0,
                      "total_epochs": max(rounds, 1),
                      "agc": {"clipping": 0.01, "eps": 1e-3}},
        "data": {"source": "synthetic", "num_clients": 4,
                 "partition": {"kind": "iid"}, "num_classes": 4,
                 "per_class": 64, "test_per_class": 16, "resolution": 32},
    }
    for key, value in overrides.items():
        parts = key.split(".")
        node = doc
        for p in parts[:-1]:
            node = node.setdefault(p, {})
        node[parts[-1]] = value
    return doc


def test_c01_gradient_suite():
    """Every differentiable op: 64-bit central differences, rel err < 1e-6."""
    rng = np.random.default_rng(11)
    started = time.perf_counter()

    def away(shape):
        x = rng.uniform(0.01, 2.0, size=shape)
        return x * np.where(rng.random(shape) < 0.5, -1.0, 1.0)

    cases = []
    x4 = rng.standard_normal((2, 4, 9, 9))
    cases.append(("conv2d", lambda a, b, c: ad.conv2d(a, b, c, stride=1, padding=1),
                  [rng.standard_normal((2, 3, 7, 7)),
                   rng.standard_normal((4, 3, 3, 3)), rng.standard_normal(4)]))
    cases.append(("conv2d_depthwise_k9",
                  lambda a, b: ad.conv2d(a, b, stride=1, padding=4, groups=4),
                  [x4, rng.standard_normal((4, 1, 9, 9))]))
    cases.append(("conv2d_strided_grouped",
                  lambda a, b: ad.conv2d(a, b, stride=2, padding=2, groups=2),
                  [rng.standard_normal((2, 4, 8, 8)),
                   rng.standard_normal((6, 2, 5, 5))]))
    cases.append(("linear", ad.linear,
                  [rng.standard_normal((3, 5)), rng.standard_normal((4, 5)),
                   rng.standard_normal(4)]))
    cases.append(("maxpool2d", lambda a: ad.maxpool2d(a, 2, 2),
                  [rng.standard_normal((2, 3, 6, 6))]))
    cases.append(("maxpool2d_padded", lambda a: ad.maxpool2d(a, 3, 2, 1),
                  [rng.standard_normal((1, 2, 7, 7))]))
    cases.append(("global_avg_pool", ad.global_avg_pool,
                  [rng.standard_normal((2, 4, 5, 5))]))
    cases.append(("layer_norm_c", ad.layer_norm_c,
                  [rng.standard_normal((2, 4, 4, 4)), rng.standard_normal(4),
                   rng.standard_normal(4)]))
    cases.append(("batch_norm_train",
                  lambda a, b, c: ad.batch_norm(a, b, c, np.zeros(4), np.ones(4),
                                                training=True),
                  [rng.standard_normal((2, 4, 4, 4)), rng.standard_normal(4),
                   rng.standard_normal(4)]))
    cases.append(("batch_norm_eval",
                  lambda a, b, c: ad.batch_norm(a, b, c, np.zeros(4), np.ones(4),
                                                training=False),
                  [rng.standard_normal((2, 4, 4, 4)), rng.standard_normal(4),
                   rng.standard_normal(4)]))
    # kinked activations only at points bounded away from 0 by 10*eps
    cases.append(("relu", ad.relu, [away((2, 4, 5, 5))]))
    cases.append(("lrelu", lambda a: ad.leaky_relu(a, 0.01), [away((2, 16))]))
    cases.append(("prelu", ad.prelu, [away((2, 4, 3, 3)), rng.uniform(0.1, 0.4, 4)]))
    cases.append(("softplus", ad.softplus, [rng.standard_normal((2, 4, 5, 5))]))
    cases.append(("gelu", ad.gelu, [rng.standard_normal((2, 4, 5, 5))]))
    cases.append(("silu", ad.silu, [rng.standard_normal((2, 4, 5, 5))]))
    cases.append(("elu", lambda a: ad.elu(a, 1.0), [rng.standard_normal((2, 16))]))
    labels = rng.integers(0, 5, size=4)
    cases.append(("softmax_cross_entropy",
                  lambda z: ad.softmax_cross_entropy(z, labels),
                  [rng.standard_normal((4, 5))]))
    cases.append(("add", ad.add, [rng.standard_normal((2, 3, 4, 4)),
                                  rng.standard_normal((2, 3, 4, 4))]))

    for name, fn, inputs in cases:
        err = finite_diff_check(fn, inputs, eps=1e-5)
        assert err < 1e-6, f"{name}: max rel err {err:.3e}"
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"
    ok(1, "gradient suite")


def test_c02_convolution_oracle():
    """conv2d vs an explicit loop oracle, 200 randomized cases, <= 1e-12."""
    rng = np.random.default_rng(22)
    for case in range(200):
        groups = int(rng.choice([1, 2, 4]))
        cin = groups * int(rng.integers(1, 3))
        cout = groups * int(rng.integers(1, 3))
        hw = int(rng.integers(3, 10))
        stride = int(rng.integers(1, 4))
        padding = int(rng.integers(0, 5))
        kmax = hw + 2 * padding
        k = int(rng.integers(1, min(kmax, 9) + 1))
        n = int(rng.integers(1, 3))
        x = rng.standard_normal((n, cin, hw, hw))
        w = rng.standard_normal((cout, cin // groups, k, k))
        b = rng.standard_normal(cout) if rng.random() < 0.5 else None
        got = ad.conv2d(Tensor(x), Tensor(w), None if b is None else Tensor(b),
                        stride=stride, padding=padding, groups=groups)
        want = loop_conv2d(x, w, b, stride=stride, padding=padding, groups=groups)
        assert np.max(np.abs(got.data - want)) <= 1e-12, f"case {case}"
    ok(2, "convolution oracle")


def test_c03_fl_degenerate_oracle(tmp_path):
    """1-client FedAVG for 3 rounds == centralized training for 3 epochs,
    bitwise over the whole parameter trajectory: the CLI's `train` and
    `central` round checkpoints against each other and against the
    pooled-data oracle."""
    doc = fedconv_tiny_doc(rounds=3, **{
        "data.num_clients": 1, "save_round_checkpoints": True,
        "optimizer.total_epochs": 3})
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["train", "--config", str(cfg_path),
                 "--out", str(tmp_path / "fl")]) == 0
    assert main(["central", "--config", str(cfg_path),
                 "--out", str(tmp_path / "central")]) == 0
    oracle = {}
    central_train(parse_experiment(doc),
                  round_checkpoint=lambda r, s: oracle.update({r: s}))
    assert sorted(oracle) == list(range(4))
    for r in range(4):
        a = (tmp_path / "fl" / f"round_{r:04d}.blob").read_bytes()
        b = (tmp_path / "central" / f"round_{r:04d}.blob").read_bytes()
        assert a == b, f"round {r} diverged"
        am = (tmp_path / "fl" / f"round_{r:04d}.manifest").read_bytes()
        bm = (tmp_path / "central" / f"round_{r:04d}.manifest").read_bytes()
        assert am == bm
        save_checkpoint({f"model.{n}": v for n, v in oracle[r].items()},
                        tmp_path / "oracle" / f"round_{r:04d}")
        assert (tmp_path / "oracle" / f"round_{r:04d}.blob").read_bytes() == b, \
            f"round {r} diverged from the oracle"
        assert (tmp_path / "oracle" / f"round_{r:04d}.manifest").read_bytes() == bm
    ok(3, "FL degenerate oracle")


def test_c04_fl_linearity_oracle():
    """K=4 clients, one full-batch SGD step each, FedAVG weighted by n_k ==
    one centralized full-batch step on the pooled data (64-bit, < 1e-6)."""
    doc = fedconv_tiny_doc(rounds=1, **{
        "fl.batch_size": 100000, "optimizer.kind": "sgd",
        "optimizer.base_lr": 0.05, "optimizer.agc": None, "dtype": "f64",
        "data.partition": {"kind": "label_skew", "target_ks": 0.5,
                           "tolerance": 0.05},
    })
    fl_states, central_states = {}, {}
    run_federated(parse_experiment(doc),
                  round_checkpoint=lambda r, s: fl_states.update({r: s}))
    central_train(parse_experiment(doc),
                  round_checkpoint=lambda r, s: central_states.update({r: s}))
    for name, v in fl_states[1].items():
        diff = np.max(np.abs(v - central_states[1][name]))
        assert diff < 1e-6, f"{name}: {diff:.3e}"
    ok(4, "FL linearity oracle")


def test_c05_fedprox_fedbn_reductions():
    """FedProx(mu=0) and FedBN-on-BN-free both bitwise equal FedAVG."""
    def states_for(method):
        out = {}
        doc = fedconv_tiny_doc(rounds=2, **{"fl.method": method})
        run_federated(parse_experiment(doc),
                      round_checkpoint=lambda r, s: out.update(
                          {r: {k: v.copy() for k, v in s.items()}}))
        return out

    base = states_for({"name": "fedavg"})
    for method in ({"name": "fedprox", "mu": 0.0}, {"name": "fedbn"}):
        other = states_for(method)
        assert base.keys() == other.keys()
        for r in base:
            for name in base[r]:
                assert np.array_equal(base[r][name], other[r][name]), \
                    (method["name"], r, name)
    ok(5, "FedProx/FedBN reductions")


def test_c06_fedyogi_unit_step():
    """Single server step with scalar delta 0.1 matches the hand value."""
    method = FLMethodConfig("fedyogi", beta1=0.9, beta2=0.99, tau=0.05,
                            eta_client=0.01, eta_server=1.0)
    global_state = {"w": np.array([0.0])}
    yogi = YogiState(["w"], global_state, tau=0.05)
    out = yogi_server_step(yogi, global_state,
                           aggregate_fedavg([(0, {"w": np.array([0.1])}, 1)]),
                           method)
    # hand evaluation at 64-bit
    delta = 0.1
    m = (1.0 - 0.9) * delta
    v = 0.05**2 - (1.0 - 0.99) * delta**2 * np.sign(0.05**2 - delta**2)
    expected = 1.0 * m / (np.sqrt(v) + 0.05)
    assert abs(out["w"][0] - expected) < 1e-12
    ok(6, "FedYogi unit step")


def test_c07_agc_property():
    """Post-clip unit ratios <= lambda + 1e-12; idempotent on 100 tensors."""
    rng = np.random.default_rng(77)
    cfg = AGCConfig(clipping=0.01, eps=1e-3)
    for case in range(100):
        shape = [(16,), (8, 12), (6, 4, 3, 3)][case % 3]
        w = rng.standard_normal(shape) * (10.0 ** rng.integers(-2, 2))
        g = rng.standard_normal(shape) * (10.0 ** rng.integers(-3, 4))
        once = arena_clip(w, g, cfg)
        ratio = unitwise_norm(once) / np.maximum(unitwise_norm(w), cfg.eps)
        assert np.all(ratio <= cfg.clipping + 1e-12), f"case {case}"
        twice = arena_clip(w, once, cfg)
        np.testing.assert_allclose(twice, once, rtol=1e-12, atol=0, err_msg=f"case {case}")
    ok(7, "AGC property")


def test_c08_ks_partitioner():
    """IID split: mean KS exactly 0 on balanced data. Label-skew targets 0.49
    and 0.57 achieved within +/-0.05 on 5,000 samples over 5 clients."""
    started = time.perf_counter()
    ds = synth_dataset(8, 10, 500, 32)  # balanced 10-class, 5,000 samples
    iid = partition_iid(ds, 5, seed=8)
    assert mean_pairwise_ks(iid, ds.labels, 10) == 0.0
    for target in (0.49, 0.57):
        part = partition_label_skew(ds, 5, target_ks=target, tolerance=0.02, seed=8)
        realized = mean_pairwise_ks(part, ds.labels, 10)
        assert abs(realized - target) <= 0.05, (target, realized)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"partitioner took {elapsed:.1f}s"
    ok(8, "KS partitioner")


def test_c09_flops_params():
    """count_flops matches brute-force MAC enumeration exactly at small
    resolutions; the full-scale model lands within +/-15% of 25.6M params
    and 4.6G FLOPs."""
    # enumeration check on every conv/linear of a 32x32 toy model
    cfg = fedconv_tiny_config()
    net = Network(cfg)
    h = w = cfg.input_resolution
    total = 0
    for _, layer in net.iter_layers():
        if isinstance(layer, Conv2d):
            ho, wo = layer.out_hw(h, w)
            count = 0
            for _ in range(layer.cout):
                for _ in range(ho):
                    for _ in range(wo):
                        count += (layer.cin // layer.groups) * layer.k * layer.k
            total += count
        elif isinstance(layer, Linear):
            total += layer.cin * layer.cout
        h, w = layer.out_hw(h, w)
    assert count_flops(cfg) == total

    full = fedconv_config()
    params = count_params(full)
    flops = count_flops(full)
    assert abs(params - 25.6e6) <= 0.15 * 25.6e6, params
    assert abs(flops - 4.6e9) <= 0.15 * 4.6e9, flops
    ok(9, "FLOPs/params")


def test_c10_tms():
    assert tms(25_600_000, 5) == 128_000_000
    ok(10, "TMS")


def test_c11_normalization_free_trainability():
    """Normalization-free FedConv-Tiny with AGC reaches >= 95% train accuracy
    on the synthetic 4-class set within 300 optimizer steps."""
    started = time.perf_counter()
    cfg = fedconv_tiny_config(num_classes=4, input_resolution=32)
    assert cfg.norm_kind == "none" and cfg.kernel_size == 9
    net = Network(cfg)
    net.init_params(np.random.default_rng([0, 11]))
    train = synth_dataset(0, 4, 128, 32, "train")  # 512 samples
    opt = AdamW(net.named_parameters())
    schedule = LrSchedule(base_lr=3e-3, warmup_epochs=0, total_epochs=10**6)
    rng = np.random.default_rng([0, 101, 0])
    agc = AGCConfig(clipping=0.01, eps=1e-3)
    indices = np.arange(len(train))

    reached = None
    while opt.t < 300:
        train_epochs(net, opt, train, indices, rng, epochs=1, batch_size=32,
                     schedule=schedule, agc_cfg=agc)
        acc = evaluate(net, train.images, train.labels)
        if acc >= 95.0:
            reached = (opt.t, acc)
            break
    elapsed = time.perf_counter() - started
    assert reached is not None, "never reached 95% train accuracy in 300 steps"
    assert elapsed < 300.0, f"took {elapsed:.0f}s"
    print(f"  [trainability: {reached[1]:.1f}% at step {reached[0]}, {elapsed:.1f}s]")
    ok(11, "normalization-free trainability")


def test_c12_heterogeneity_trend():
    """rounds_to_target(85%) non-decreasing across mean-KS targets
    {0.0, 0.5, 0.8}, median of 3 seeds."""
    started = time.perf_counter()

    def rtt(seed, ks):
        part = ({"kind": "iid"} if ks == 0.0 else
                {"kind": "label_skew", "target_ks": ks, "tolerance": 0.02})
        doc = fedconv_tiny_doc(seed=seed, rounds=24, **{
            "data.partition": part, "data.per_class": 128,
            "data.test_per_class": 32,
            "optimizer.base_lr": 3e-4, "optimizer.total_epochs": 24,
            "target_accuracy": 85.0,
        })
        report = run_federated(parse_experiment(doc))
        return (np.inf if report.rounds_to_target is None
                else report.rounds_to_target)

    medians = []
    for ks in (0.0, 0.5, 0.8):
        values = [rtt(seed, ks) for seed in (0, 1, 2)]
        medians.append(float(np.median(values)))
        print(f"  [ks={ks}: rounds_to_target={values} median={medians[-1]}]")
    assert all(np.isfinite(m) for m in medians), medians
    assert medians[0] <= medians[1] <= medians[2], medians
    elapsed = time.perf_counter() - started
    assert elapsed < 1200.0, f"took {elapsed:.0f}s"
    ok(12, "heterogeneity trend")


@pytest.mark.usefixtures("helper_threads")
def test_c13_determinism_across_threads(tmp_path):
    """Identical config/seed with different --threads: byte-identical
    report.json."""
    doc = fedconv_tiny_doc(rounds=2)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["train", "--config", str(cfg_path), "--threads", "1",
                 "--out", str(tmp_path / "t1")]) == 0
    assert main(["train", "--config", str(cfg_path), "--threads", "4",
                 "--out", str(tmp_path / "t4")]) == 0
    a = (tmp_path / "t1" / "report.json").read_bytes()
    b = (tmp_path / "t4" / "report.json").read_bytes()
    assert a == b
    ok(13, "determinism across threads")


def test_c14_checkpoint_round_trip(tmp_path):
    """Save -> load is bitwise exact for model and optimizer state, batch-norm
    running statistics included."""
    cfg = fedconv_tiny_config()
    from dataclasses import replace
    cfg = replace(cfg, norm_kind="bn", norm_placement="all")
    net = Network(cfg)
    net.init_params(np.random.default_rng(14))
    opt = AdamW(net.named_parameters(), weight_decay=0.01)
    train = synth_dataset(14, 4, 16, 32)
    schedule = LrSchedule(1e-3, 0, 10)
    train_epochs(net, opt, train, np.arange(len(train)),
                 np.random.default_rng(14), epochs=1, batch_size=16,
                 schedule=schedule)

    entries = OrderedDict()
    for name, value in net.state_dict().items():
        entries[f"model.{name}"] = value
    for name, value in opt.state_dict().items():
        entries[f"opt.{name}"] = value
    assert any(".running_mean" in k for k in entries)
    assert any(not np.all(v == 0) for k, v in entries.items() if ".running_mean" in k)
    save_checkpoint(entries, tmp_path / "ckpt")
    loaded = load_checkpoint(tmp_path / "ckpt")
    assert list(loaded.keys()) == list(entries.keys())
    for name, value in entries.items():
        assert loaded[name].dtype == np.asarray(value).dtype, name
        assert np.array_equal(loaded[name], value), name
    ok(14, "checkpoint round trip")


def test_c15_activation_statistics():
    """Monte-Carlo (1e6 standard-normal samples) activation means:
    mean(SoftPlus) > 0.35; |mean(SiLU)| < 0.25; mean(ELU) < mean(ReLU).
    Each of the five means lies within 5 Monte-Carlo standard errors
    (std / sqrt(n)) of its value under N(0, 1) from the quadrature oracle,
    whose ReLU, GELU and ELU values match their closed forms 1/sqrt(2 pi)
    ~= 0.399, 1/(2 sqrt(pi)) ~= 0.282 and 1/sqrt(2 pi) + e^(1/2) Phi(-1)
    - 1/2 ~= 0.161 (SoftPlus ~= 0.806, SiLU ~= 0.207). The means order as
    ELU < SiLU < GELU < ReLU < SoftPlus."""
    n = 10**6
    z = np.random.default_rng(15).standard_normal(n).reshape(1, -1)
    x = Tensor(z)
    outs = {
        "relu": ad.relu(x).data,
        "softplus": ad.softplus(x).data,
        "gelu": ad.gelu(x).data,
        "silu": ad.silu(x).data,
        "elu": ad.elu(x, 1.0).data,
    }
    means = {k: float(v.mean()) for k, v in outs.items()}
    print(f"  [activation means: {({k: round(v, 4) for k, v in means.items()})}]")
    assert means["softplus"] > 0.35
    assert means["elu"] < means["relu"]
    assert abs(means["silu"]) < 0.25

    expected = {k: std_normal_mean(f) for k, f in ACTIVATION_FORMULAS.items()}
    inv_sqrt_2pi = 1.0 / math.sqrt(2.0 * math.pi)
    phi_minus_1 = 0.5 * math.erfc(1.0 / math.sqrt(2.0))
    closed = {
        "relu": inv_sqrt_2pi,
        "gelu": 1.0 / (2.0 * math.sqrt(math.pi)),
        "elu": inv_sqrt_2pi + math.exp(0.5) * phi_minus_1 - 0.5,
    }
    for k, v in closed.items():
        assert expected[k] == pytest.approx(v, abs=1e-9), k
    for k, out in outs.items():
        se = float(out.std()) / math.sqrt(n)
        assert abs(means[k] - expected[k]) < 5 * se, (k, means[k], expected[k], se)
    assert means["elu"] < means["silu"] < means["gelu"] < means["relu"] < means["softplus"]
    ok(15, "activation statistics")
