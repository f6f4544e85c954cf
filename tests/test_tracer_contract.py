"""The benchmark tracer's contract with the package.

`bench/tracer.py` wraps functions of `fedconv.*` by module attribute name
(`fedconv.federated.mean_pairwise_ks`, `fedconv.autodiff.activation`, ...).
Renaming or deleting one of them, or calling it other than through its
module, breaks every traced benchmark run; this test fails instead. A traced
run must also write the same report.json as an untraced one, and file every
conv under the kind its layer has: the tracer tells a depth-wise conv by
`x.data.shape[1]`, so an activation whose shape stopped being NCHW would be
misfiled without failing anything else.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import fedconv.autodiff as ad
import fedconv.cli as cli
import fedconv.federated as fed
from fedconv.config import parse_experiment
from fedconv.layers import Conv2d
from fedconv.models import Network

from test_config_cli import base_doc, write_config

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"

CORE_SPANS = {
    "autodiff.conv2d_dw.fwd", "autodiff.conv2d_dw.bwd",
    "autodiff.conv2d_pw.fwd", "autodiff.conv2d_pw.bwd",
    "autodiff.conv2d_dense.fwd", "autodiff.conv2d_dense.bwd",
    "autodiff.act.fwd", "autodiff.act.bwd",
    "autodiff.pool.fwd", "autodiff.other.fwd", "autodiff.backward",
    "models.forward", "models.layer", "optim.step", "optim.zero_grad",
    "data.synth", "data.partition", "data.to_input",
    "federated.round", "federated.local_update", "federated.train_epochs",
    "federated.aggregate", "reporting.evaluate", "reporting.write_report",
    "reporting.checkpoint",
}


def _tracer_module():
    spec = importlib.util.spec_from_file_location("fedconv_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _conv_kinds_per_forward(doc) -> Counter:
    """Conv layers of the config's network by tracer kind, from the layer
    geometry alone."""
    kinds = Counter()
    for _, layer in Network(parse_experiment(doc).arch).iter_layers():
        if isinstance(layer, Conv2d):
            if layer.groups > 1 and layer.groups == layer.cin:
                kinds["conv2d_dw"] += 1
            elif layer.k == 1:
                kinds["conv2d_pw"] += 1
            else:
                kinds["conv2d_dense"] += 1
    return kinds


def _traced_train(tmp_path, doc):
    """Train `doc` untraced and traced; check the tracer left every patched
    name restored and both runs wrote the same report.json. Returns the
    tracer."""
    cfg = write_config(tmp_path, doc)
    argv = ["train", "--config", cfg, "--threads", "2", "--out"]
    assert cli.main(argv + [str(tmp_path / "plain")]) == 0

    originals = (ad.activation, ad.conv2d, fed.mean_pairwise_ks,
                 fed.partition_iid, fed.run_round, cli.save_checkpoint,
                 fed.clip_model_grads)
    tracer = _tracer_module().Tracer("contract")
    tracer.install()
    try:
        rc = cli.main(argv + [str(tmp_path / "traced")])
    finally:
        tracer.uninstall()
    assert rc == 0
    assert (ad.activation, ad.conv2d, fed.mean_pairwise_ks, fed.partition_iid,
            fed.run_round, cli.save_checkpoint, fed.clip_model_grads) == originals
    assert ((tmp_path / "traced" / "report.json").read_bytes()
            == (tmp_path / "plain" / "report.json").read_bytes())
    return tracer


def test_traced_train_records_core_spans_and_same_report(tmp_path):
    tracer = _traced_train(tmp_path, base_doc())
    missing = CORE_SPANS - {span[1] for span in tracer.spans}
    assert not missing, sorted(missing)
    metrics = tracer.summary()["metrics"]
    assert metrics["autodiff.conv2d_dw.calls"] > 0
    forwards = sum(1 for span in tracer.spans if span[1] == "models.forward")
    per_forward = _conv_kinds_per_forward(base_doc())
    assert set(per_forward) == {"conv2d_dw", "conv2d_pw", "conv2d_dense"}
    for kind, count in per_forward.items():
        assert metrics[f"autodiff.{kind}.calls"] == count * forwards, kind
    assert metrics["data.partition_s"] > 0


def test_traced_agc_sgd_fedyogi_train(tmp_path):
    # The AGC and SGD + fedyogi paths that two of the benchmark workloads
    # trace: clip_model_grads is wrapped to count clipped units through
    # optim.unitwise_norm on every named parameter.
    doc = base_doc(**{"fl.method": {"name": "fedyogi"}, "fl.rounds": 2,
                      "optimizer": {"kind": "sgd", "base_lr": 0.03,
                                    "warmup_epochs": 0, "total_epochs": 4,
                                    "momentum": 0.9,
                                    "agc": {"clipping": 0.01, "eps": 1e-3}}})
    tracer = _traced_train(tmp_path, doc)
    names = {span[1] for span in tracer.spans}
    assert {"optim.agc", "optim.step", "optim.zero_grad",
            "federated.aggregate"} <= names
    metrics = tracer.summary()["metrics"]
    assert metrics["optim.agc_s"] > 0 and metrics["optim.step_s"] > 0
    assert 0 < metrics["optim.agc_clip_frac"] <= 1
    # run_round adds each client to the mean with its own aggregate_fedavg
    # call: every round has aggregate spans, and their bytes sum to one
    # state per participating client per round.
    rounds = [span[0] for span in tracer.spans if span[1] == "federated.round"]
    assert len(rounds) == doc["fl"]["rounds"]
    parents = {span[4] for span in tracer.spans if span[1] == "federated.aggregate"}
    assert set(rounds) <= parents
    exp = parse_experiment(doc)
    state_bytes = sum(v.nbytes for v in Network(exp.arch).state_dict().values())
    assert (metrics["federated.aggregate_bytes"]
            == len(rounds) * exp.data.num_clients * state_bytes)
