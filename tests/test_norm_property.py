"""Property test: channel layer norm and batch norm against the float64 loop
oracle `helpers.loop_norm`.

Inputs are NCHW arrays or NCHW views of CHWN memory (the activations'
layout), 1x1 maps included, plus NC vectors for layer norm, in float32 and
float64. Every case checks the forward, the input, gamma and beta
gradients, the batch-norm running statistics, and the variance of the
shared standardization core: that one must equal `np.var` over the same
axes bit for bit, which is what lets the core square the centered values it
already holds instead of centering the input a second time.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fedconv import autodiff as ad
from fedconv.autodiff import Tensor

from helpers import loop_norm

AXES = {"ln": (1,), "bn_train": (0, 2, 3), "bn_eval": (0, 2, 3)}


@st.composite
def norm_cases(draw):
    kind = draw(st.sampled_from(sorted(AXES)))
    vector = kind == "ln" and draw(st.booleans())
    return dict(kind=kind, n=draw(st.integers(1, 3)), c=draw(st.integers(1, 5)),
                hw=(1, 1) if vector else (draw(st.integers(1, 4)), draw(st.integers(1, 4))),
                vector=vector, chwn=draw(st.booleans()),
                dtype=draw(st.sampled_from([np.float32, np.float64])),
                seed=draw(st.integers(0, 2**32 - 1)))


def _layout(a, chwn):
    """`a` as a C-contiguous array, or the same values as a view of memory
    with the first axis innermost (CHWN for maps, CN for vectors)."""
    if not chwn:
        return np.ascontiguousarray(a)
    order = tuple(range(1, a.ndim)) + (0,)
    return np.ascontiguousarray(a.transpose(order)).transpose(np.argsort(order))


def _close(dtype, got, want):
    tol = 1e-4 if dtype == np.float32 else 1e-10
    np.testing.assert_allclose(got, want, rtol=tol,
                               atol=tol * max(1.0, float(np.abs(want).max())))


@settings(max_examples=150)
@given(case=norm_cases())
def test_norm_ops_match_loop_oracle(case):
    kind, dtype, c = case["kind"], case["dtype"], case["c"]
    rng = np.random.default_rng(case["seed"])
    shape = (case["n"], c) if case["vector"] else (case["n"], c, *case["hw"])
    # An offset and scale per case keep the centering step honest.
    x = (rng.standard_normal(shape) * rng.uniform(0.5, 4.0)
         + rng.uniform(-3.0, 3.0)).astype(dtype)
    g = rng.standard_normal(shape).astype(dtype)
    gamma, beta = (rng.standard_normal(c).astype(dtype) for _ in "gb")
    start_mean = rng.standard_normal(c).astype(dtype)
    start_var = rng.uniform(0.5, 2.0, c).astype(dtype)

    xt = Tensor(_layout(x, case["chwn"]), requires_grad=True)
    gt, bt = Tensor(gamma.copy(), requires_grad=True), Tensor(beta.copy(), requires_grad=True)
    mean, var = start_mean.copy(), start_var.copy()
    if kind == "ln":
        out = ad.layer_norm_c(xt, gt, bt)
    else:
        out = ad.batch_norm(xt, gt, bt, mean, var, training=kind == "bn_train")
    ad.weighted_sum(out, _layout(g, case["chwn"])).backward()

    want_out, want_dx, want_dg, want_db, want_var, want_mean, want_rv = loop_norm(
        kind, x, gamma, beta, g, start_mean, start_var)
    assert out.data.dtype == dtype and xt.grad.dtype == dtype
    for got, want in ((out.data, want_out), (xt.grad, want_dx),
                      (gt.grad, want_dg), (bt.grad, want_db)):
        assert got.shape == want.shape
        _close(dtype, got, want)
    if kind != "ln":
        _close(dtype, mean, want_mean)
        _close(dtype, var, want_rv)

    xd = xt.data.reshape(case["n"], c, 1, 1) if case["vector"] else xt.data
    axes = AXES[kind]
    _, core_mean, core_var = ad._standardize(
        Tensor(xd), xd, Tensor(gamma), Tensor(beta), axes, 1e-5, "core")
    assert core_var.tobytes() == np.var(xd, axis=axes, keepdims=True).tobytes()
    assert core_mean.tobytes() == np.mean(xd, axis=axes, keepdims=True).tobytes()
    if want_var is not None:
        _close(dtype, core_var, want_var)
