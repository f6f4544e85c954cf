"""The benchmark's workload configs still parse and build.

`bench/workloads.py` holds frozen `fedconv train` configs, one per workload
and seed. A config-schema or architecture change that one of them no longer
fits would otherwise surface only when the benchmark runs; this test loads
the module from its file, unchanged, and parses and builds every workload at
several seeds.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from fedconv.config import parse_experiment
from fedconv.models import Network

WORKLOADS_PATH = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("fedconv_bench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolves the module's string annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _workloads()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", [0, 4242, 2**31 + 7])
def test_workload_config_parses_and_builds(name, seed):
    w = WORKLOADS[name]
    exp = parse_experiment(w.config(seed))
    assert exp.seed == seed % 2**31
    assert exp.fl.rounds == w.rounds
    net = Network(exp.arch, exp.dtype)
    assert net.named_parameters().data.size > 0
