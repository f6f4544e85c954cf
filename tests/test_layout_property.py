"""Property tests: every op gives the same values whatever the memory order
of its (N, C, H, W) input.

Activations live in (C, H, W, N) memory behind (N, C, H, W)-shaped views, so
each op is fed the same values twice: once as a C-contiguous NCHW array and
once as an NCHW view of CHWN memory. Outputs and input gradients must match
bit for bit where the op does the same arithmetic in both orders (conv2d,
maxpool2d, the elementwise ops), and to rounding where a reduction may sum
in another order (pooling means, normalization statistics, bias and slope
gradients). conv2d and maxpool2d outputs, and a conv input's gradient, must
also be CHWN in memory, so a transposing copy cannot come back unnoticed;
depth-wise convs are drawn on their own as well, so the spatial-operator
path is held to the same.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedconv import autodiff as ad
from fedconv.autodiff import Tensor

from test_conv_property import (_arrays, _depthwise_arrays, conv_cases,
                                depthwise_cases)
from test_pool_property import pool_cases

LAYOUTS = ("nchw", "chwn")


def _as(layout, a):
    """`a`'s values as a C-contiguous NCHW array or an NCHW view of CHWN
    memory."""
    if layout == "nchw":
        return np.ascontiguousarray(a)
    return np.ascontiguousarray(a.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)


def _is_chwn(a):
    return a.transpose(1, 2, 3, 0).flags.c_contiguous


def _run(op, arrays, coeffs, layout, maps):
    """Forward `op` on leaf tensors of `arrays`, the first `maps` of them
    activations laid out as `layout`, backpropagate sum(out * coeffs) and
    return the output data and each leaf's gradient."""
    leaves = [Tensor(_as(layout, a) if i < maps else a.copy(), requires_grad=True)
              for i, a in enumerate(arrays)]
    out = op(*leaves)
    c = _as(layout, coeffs) if coeffs.ndim == 4 else coeffs
    ad.weighted_sum(out, c).backward()
    return out.data, [leaf.grad for leaf in leaves]


def _both(op, arrays, coeffs_shape, seed, maps=1):
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(coeffs_shape).astype(arrays[0].dtype)
    return [_run(op, arrays, coeffs, layout, maps) for layout in LAYOUTS]


def _same_bytes(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def _close(case):
    """allclose at a tolerance set by the case's dtype, for values a
    reduction may sum in another order."""
    tol = 1e-4 if case["dtype"] == np.float32 else 1e-10
    return lambda a, b: np.testing.assert_allclose(a, b, rtol=tol, atol=tol)


@st.composite
def map_cases(draw):
    return dict(n=draw(st.integers(1, 3)), c=draw(st.integers(1, 4)),
                h=draw(st.integers(1, 4)), w=draw(st.integers(1, 4)),
                dtype=draw(st.sampled_from([np.float32, np.float64])),
                seed=draw(st.integers(0, 2**32 - 1)))


def _maps(case, count=1):
    rng = np.random.default_rng(case["seed"])
    shape = (case["n"], case["c"], case["h"], case["w"])
    return rng, [rng.standard_normal(shape).astype(case["dtype"]) for _ in range(count)]


@settings(max_examples=100)
@given(case=conv_cases())
def test_conv2d_is_layout_invariant_and_writes_chwn(case):
    x, w, b = _arrays(case)
    kw = dict(stride=case["stride"], padding=case["padding"], groups=case["groups"])
    hout = (case["h"] + 2 * case["padding"] - case["k"]) // case["stride"] + 1
    wout = (case["w"] + 2 * case["padding"] - case["k"]) // case["stride"] + 1
    shape = (case["n"], w.shape[0], hout, wout)
    (out0, (gx0, gw0, gb0)), (out1, (gx1, gw1, gb1)) = _both(
        lambda xt, wt, bt: ad.conv2d(xt, wt, bt, **kw), [x, w, b], shape, case["seed"])
    _same_bytes(out0, out1)
    _same_bytes(gx0, gx1)
    _same_bytes(gw0, gw1)
    np.testing.assert_allclose(gb0, gb1, rtol=1e-12, atol=1e-12)
    assert all(_is_chwn(a) for a in (out0, out1, gx0, gx1))


@settings(max_examples=100)
@given(case=depthwise_cases())
@example(case=dict(n=4, c=3, h=8, w=8, k=9, stride=1, padding=4,
                   dtype=np.float32, seed=9))
def test_depthwise_conv2d_is_layout_invariant_and_writes_chwn(case):
    # Depth-wise convs on small maps run against their spatial operator,
    # which must read and write the same memory order as the correlation.
    x, w, b = _depthwise_arrays(case)
    s, p, k = case["stride"], case["padding"], case["k"]
    hout, wout = ((size + 2 * p - k) // s + 1 for size in (case["h"], case["w"]))
    kw = dict(stride=s, padding=p, groups=case["c"])
    (out0, (gx0, gw0, gb0)), (out1, (gx1, gw1, gb1)) = _both(
        lambda xt, wt, bt: ad.conv2d(xt, wt, bt, **kw), [x, w, b],
        (case["n"], case["c"], hout, wout), case["seed"])
    _same_bytes(out0, out1)
    _same_bytes(gx0, gx1)
    _same_bytes(gw0, gw1)
    _close(case)(gb0, gb1)
    assert all(_is_chwn(a) for a in (out0, out1, gx0, gx1))


@settings(max_examples=100)
@given(case=pool_cases())
def test_maxpool2d_is_layout_invariant_and_writes_chwn(case):
    rng = np.random.default_rng(case["seed"])
    shape = (case["n"], case["c"], case["h"], case["w"])
    x = rng.integers(-case["levels"], case["levels"] + 1, shape).astype(case["dtype"])
    k, stride, padding = case["k"], case["stride"], case["padding"]
    out_shape = ad.maxpool2d(Tensor(x), k, stride, padding).shape
    (out0, (gx0,)), (out1, (gx1,)) = _both(
        lambda xt: ad.maxpool2d(xt, k, stride, padding), [x], out_shape, case["seed"])
    _same_bytes(out0, out1)
    _same_bytes(gx0, gx1)
    assert _is_chwn(out0) and _is_chwn(out1)


@pytest.mark.parametrize("kind", ad.ACTIVATION_KINDS)
@settings(max_examples=25)
@given(case=map_cases())
def test_activations_are_layout_invariant(kind, case):
    rng, (x,) = _maps(case)
    # Scale so the saturating and negative branches are all reached.
    x *= 4
    alpha = rng.uniform(0.0, 0.5, case["c"]).astype(case["dtype"])
    (out0, (gx0, ga0)), (out1, (gx1, ga1)) = _both(
        lambda xt, at: ad.activation(kind, xt, at), [x, alpha], x.shape, case["seed"])
    _same_bytes(out0, out1)
    _same_bytes(gx0, gx1)
    assert _is_chwn(out1) and _is_chwn(gx1)
    if kind == "prelu":
        _close(case)(ga0, ga1)


@settings(max_examples=50)
@given(case=map_cases())
def test_add_is_layout_invariant(case):
    _, (a, b) = _maps(case, 2)
    (out0, grads0), (out1, grads1) = _both(ad.add, [a, b], a.shape, case["seed"], maps=2)
    _same_bytes(out0, out1)
    for g0, g1 in zip(grads0, grads1):
        _same_bytes(g0, g1)
    assert _is_chwn(out1)


@settings(max_examples=50)
@given(case=map_cases())
def test_global_avg_pool_is_layout_invariant(case):
    _, (x,) = _maps(case)
    close = _close(case)
    (out0, (gx0,)), (out1, (gx1,)) = _both(
        ad.global_avg_pool, [x], x.shape[:2], case["seed"])
    close(out0, out1)
    close(gx0, gx1)
    assert _is_chwn(gx1)


@settings(max_examples=50)
@given(case=map_cases())
def test_layer_norm_c_is_layout_invariant(case):
    rng, (x,) = _maps(case)
    close = _close(case)
    gamma, beta = (rng.standard_normal(case["c"]).astype(case["dtype"]) for _ in "gb")
    (out0, grads0), (out1, grads1) = _both(
        ad.layer_norm_c, [x, gamma, beta], x.shape, case["seed"])
    close(out0, out1)
    for g0, g1 in zip(grads0, grads1):
        close(g0, g1)
    assert _is_chwn(out1)


@pytest.mark.parametrize("training", [True, False])
@settings(max_examples=50)
@given(case=map_cases())
def test_batch_norm_is_layout_invariant(training, case):
    rng, (x,) = _maps(case)
    close = _close(case)
    gamma, beta = (rng.standard_normal(case["c"]).astype(case["dtype"]) for _ in "gb")
    start_mean = rng.standard_normal(case["c"]).astype(case["dtype"])
    start_var = rng.uniform(0.5, 2.0, case["c"]).astype(case["dtype"])
    buffers = []

    def op(xt, gt, bt):
        mean, var = start_mean.copy(), start_var.copy()
        buffers.append((mean, var))
        return ad.batch_norm(xt, gt, bt, mean, var, training=training)

    (out0, grads0), (out1, grads1) = _both(op, [x, gamma, beta], x.shape, case["seed"])
    close(out0, out1)
    for g0, g1 in zip(grads0, grads1):
        close(g0, g1)
    for b0, b1 in zip(*buffers):
        close(b0, b1)
    assert _is_chwn(out1)
