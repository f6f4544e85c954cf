"""The flat parameter arena: each parameter's data and gradient stay views
into the network's two flat vectors, in registry order, through everything a
run does to them. A parameter whose `.data` or `.grad` got rebound would
drop out of the optimizer step, AGC, zero_grad and the proximal term
without any other test noticing."""

import numpy as np

from fedconv.federated import ClientState, FLMethodConfig, local_update, train_epochs
from fedconv.data import synth_dataset
from fedconv.models import Network, fedconv_tiny_config
from fedconv.optim import AGCConfig, AdamW, LrSchedule

from test_arch import toy_config


def assert_in_arena(net):
    arena = net.named_parameters()
    base_w, base_g = arena.data.ctypes.data, arena.grad.ctypes.data
    lo = 0
    for name, t in arena.items():
        offset = lo * arena.data.itemsize
        for view, flat, base in ((t.data, arena.data, base_w), (t.grad, arena.grad, base_g)):
            assert view.ctypes.data == base + offset, name
            assert np.shares_memory(view, flat), name
            assert view.dtype == flat.dtype and view.flags.c_contiguous, name
        assert t.grad.shape == t.data.shape, name
        lo += t.data.size
    assert lo == arena.data.size == arena.grad.size


def test_views_survive_init_load_zero_grad_and_training():
    cfg = toy_config(norm_kind="bn", norm_placement="all")
    net = Network(cfg)
    assert_in_arena(net)
    net.init_params(np.random.default_rng(1))
    assert_in_arena(net)

    donor = Network(cfg)
    donor.init_params(np.random.default_rng(2))
    net.load_state_dict(donor.state_dict())
    assert_in_arena(net)
    np.testing.assert_array_equal(net.named_parameters().data,
                                  donor.named_parameters().data)

    net.named_parameters().grad.fill(3.0)
    net.zero_grad()
    assert_in_arena(net)
    assert not net.named_parameters().grad.any()

    ds = synth_dataset(0, 4, 8, 32)
    before = net.named_parameters().data.copy()
    train_epochs(net, AdamW(net.named_parameters(), weight_decay=0.01), ds,
                 np.arange(len(ds)), np.random.default_rng(0), epochs=1,
                 batch_size=len(ds), schedule=LrSchedule(1e-2, 0, 4),
                 agc_cfg=AGCConfig(), prox=(0.1, before))
    assert_in_arena(net)
    assert net.named_parameters().grad.any()
    assert np.any(net.named_parameters().data != before)


def test_views_survive_local_update_on_a_worker():
    cfg = fedconv_tiny_config()
    global_model, worker = Network(cfg), Network(cfg)
    global_model.init_params(np.random.default_rng(5))
    ds = synth_dataset(5, 4, 8, 32)
    client = ClientState(0, np.arange(len(ds)), AdamW(global_model.named_parameters()),
                         np.random.default_rng(6))
    global_before = global_model.named_parameters().data.copy()
    local_update(client, worker, global_model.state_dict(),
                 method=FLMethodConfig("fedprox", mu=0.1), dataset=ds, epochs=1,
                 batch_size=16, schedule=LrSchedule(1e-3, 0, 4), agc_cfg=AGCConfig())
    # The steps landed in the worker's arena; the global model's arena, which
    # shaped the optimizer, is bitwise untouched.
    assert np.any(worker.named_parameters().data != global_before)
    assert global_model.named_parameters().data.tobytes() == global_before.tobytes()
    assert_in_arena(worker)
    assert_in_arena(global_model)
    assert worker.named_parameters().grad.any()
