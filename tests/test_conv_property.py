"""Property tests of conv2d over random shapes, strides, paddings and groups.

Forward values are compared with the six-loop oracle, gradients with central
differences. Padding is drawn up to k + 1, so some cases crop the kernel to
a few live taps and some make the stride-1 input gradient crop the output
gradient (padding >= k). Half the strides are drawn up to the map size plus
both paddings and one, so some windows lie wholly in the padding and no tap
is live: the output is the bias and both gradients are zero. Batches of up
to 3 keep a mix-up of the batch and space axes in the batch-innermost column
layout from passing. Column matrices built in blocks of output rows must
give bitwise the single-GEMM result, and the ResNet stem's forward-only peak
memory stays bounded.

Depth-wise convs are drawn on their own, on maps of up to 12x12 with
kernels up to 9: conv2d runs those on small maps as one GEMM against
their spatial operator, so each case is compared with the loop oracles
with the rule as `conv2d` applies it, forced on and forced off.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedconv import autodiff as ad
from fedconv.autodiff import Tensor
from fedconv.gradcheck import finite_diff_check

from helpers import loop_conv2d_grads, naive_conv2d


def strides(size, padding):
    """Strides 1-3 half the time; else up to `size` + 2 * `padding` + 1, past
    the last stride at which a window can reach the map."""
    return st.one_of(st.integers(1, 3), st.integers(1, size + 2 * padding + 1))


@st.composite
def conv_cases(draw):
    k = draw(st.integers(1, 7))
    padding = draw(st.integers(0, k + 1))
    smallest = max(1, k - 2 * padding)
    h = draw(st.integers(smallest, smallest + 3))
    w = draw(st.sampled_from([v for v in range(smallest, smallest + 4) if v != h]))
    return dict(n=draw(st.integers(1, 3)), groups=draw(st.integers(1, 3)),
                cin_g=draw(st.integers(1, 2)), cout_g=draw(st.integers(1, 2)),
                h=h, w=w, k=k, stride=draw(strides(max(h, w), padding)),
                padding=padding, seed=draw(st.integers(0, 2**32 - 1)))


def _arrays(case):
    rng = np.random.default_rng(case["seed"])
    g = case["groups"]
    x = rng.standard_normal((case["n"], g * case["cin_g"], case["h"], case["w"]))
    w = rng.standard_normal((g * case["cout_g"], case["cin_g"], case["k"], case["k"]))
    b = rng.standard_normal(g * case["cout_g"])
    return x, w, b


def _case(k, padding, stride, h, w, groups=2):
    return dict(n=2, groups=groups, cin_g=1, cout_g=2, h=h, w=w, k=k,
                stride=stride, padding=padding, seed=k * 100 + padding)


COVERED = [
    _case(k=1, padding=1, stride=1, h=3, w=2),   # 1x1 kernel, padded
    _case(k=1, padding=2, stride=2, h=2, w=3),
    _case(k=3, padding=4, stride=1, h=2, w=1),   # padding >= k
    _case(k=2, padding=3, stride=3, h=1, w=4),
    _case(k=7, padding=3, stride=1, h=2, w=1, groups=3),  # few live taps
    _case(k=1, padding=2, stride=5, h=1, w=3),   # rows wholly in padding
    # The stage-0 shape of the FedConv recipe in small: k9 depth-wise, same
    # padding, a 2x2 map and a batch of 3 beside the batch-innermost columns.
    dict(n=3, groups=4, cin_g=1, cout_g=1, h=2, w=2, k=9, stride=1,
         padding=4, seed=904),
]


def _covered(test, **fixed):
    for case in COVERED:
        test = example(case=case, **fixed)(test)
    return test


@settings(max_examples=200)
@given(case=conv_cases())
@_covered
def test_conv2d_forward_matches_naive_oracle(case):
    x, w, b = _arrays(case)
    kw = dict(stride=case["stride"], padding=case["padding"], groups=case["groups"])
    got = ad.conv2d(Tensor(x), Tensor(w), Tensor(b), **kw)
    np.testing.assert_allclose(got.data, naive_conv2d(x, w, b, **kw),
                               atol=1e-12, rtol=0)


@settings(max_examples=100)
@given(case=conv_cases())
@_covered
def test_conv2d_gradients_match_finite_differences(case):
    x, w, b = _arrays(case)
    err = finite_diff_check(
        lambda xt, wt, bt: ad.conv2d(xt, wt, bt, stride=case["stride"],
                                     padding=case["padding"],
                                     groups=case["groups"]),
        [x, w, b])
    assert err < 1e-6


def _blocks(h, w, n, k, stride, padding):
    """GEMMs `_correlate` runs with one output row per block: one per output
    row when the windows need a copy and a row's columns are aligned, else
    one. A single live tap at stride 1 is the input slab itself."""
    hout, th0, th1 = ad._axis(h, k, padding, padding, stride)[:3]
    wout, tw0, tw1 = ad._axis(w, k, padding, padding, stride)[:3]
    copies = (th1 - th0, tw1 - tw0, stride) != (1, 1, 1)
    return hout if copies and (wout * n) % ad._BLOCK_ALIGN == 0 else 1


@settings(max_examples=200)
@given(case=conv_cases(), batch=st.sampled_from([1, 64]),
       dtype=st.sampled_from([np.float32, np.float64]), wgrad=st.booleans())
def test_column_blocks_match_single_gemm(case, batch, dtype, wgrad):
    # Batches scaled by 64 align every row, so most cases run one GEMM per
    # output row; the others must fall back to one block.
    case = dict(case, n=case["n"] * batch)
    x, w, _ = _arrays(case)
    x, w = x.astype(dtype), w.astype(dtype)
    k, s, p = case["k"], case["stride"], case["padding"]
    kw = dict(stride=s, padding=p, groups=case["groups"])
    gy = np.random.default_rng(case["seed"] + 1).standard_normal(
        ad.conv2d(Tensor(x), Tensor(w), **kw).shape).astype(dtype)

    def run():
        with mock.patch.object(np, "matmul", wraps=np.matmul) as mm:
            with ad.no_grad():
                y = ad.conv2d(Tensor(x), Tensor(w), **kw).data
            fwd, mm.call_count = mm.call_count, 0
            xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=wgrad)
            out = ad.conv2d(xt, wt, **kw)
            train_fwd, mm.call_count = mm.call_count, 0
            ad.weighted_sum(out, gy).backward()
        return y, out.data, xt.grad, wt.grad, fwd, train_fwd, mm.call_count

    # These matrices are far below the blocking size, so each is one GEMM,
    # and the weight gradient is one more in the backward.
    y0, t0, gx0, gw0, fwd0, tfwd0, bwd0 = run()
    assert (fwd0, tfwd0, bwd0) == (1, 1, 1 + wgrad)
    assert t0.tobytes() == y0.tobytes()
    with mock.patch.object(ad, "_BLOCK_ABOVE", 0), \
            mock.patch.object(ad, "_BLOCK_BYTES", 1):
        y1, t1, gx1, gw1, fwd1, tfwd1, bwd1 = run()
    assert y1.tobytes() == y0.tobytes()
    assert t1.tobytes() == t0.tobytes()
    assert gx1.tobytes() == gx0.tobytes()
    if wgrad:
        assert gw1.tobytes() == gw0.tobytes()
    h, w_, n = case["h"], case["w"], case["n"]
    if ad._spatial_operator_applies(case["groups"], x.shape[1], w.shape[0],
                                    h, w_, k, s, p):
        # A depth-wise conv on a small map never builds columns: forward,
        # input gradient and weight gradient are one GEMM each against its
        # spatial operator, at any stride.
        assert (fwd1, tfwd1, bwd1) == (1, 1, 1 + wgrad)
    else:
        assert fwd1 == tfwd1 == _blocks(h, w_, n, k, s, p)
        if s == 1:
            assert bwd1 == _blocks(y0.shape[2], y0.shape[3], n, k, 1, k - 1 - p) + wgrad


test_column_blocks_match_single_gemm = _covered(
    test_column_blocks_match_single_gemm, batch=64, dtype=np.float32, wgrad=True)


@st.composite
def depthwise_cases(draw):
    """Depth-wise convs on maps of up to 12x12 with odd and even kernels up
    to 9 and every padding from the least that holds the kernel to k + 1,
    on both sides of the spatial-operator rule."""
    k = draw(st.integers(1, 9))
    h, w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    least = max(0, -(-(k - min(h, w)) // 2))
    padding = draw(st.integers(least, k + 1))
    return dict(n=draw(st.integers(1, 5)), c=draw(st.integers(1, 3)), h=h, w=w,
                k=k, stride=draw(strides(max(h, w), padding)), padding=padding,
                dtype=draw(st.sampled_from([np.float32, np.float64])),
                seed=draw(st.integers(0, 2**32 - 1)))


def _depthwise_arrays(case):
    rng = np.random.default_rng(case["seed"])
    c, k, dtype = case["c"], case["k"], case["dtype"]
    x = rng.standard_normal((case["n"], c, case["h"], case["w"])).astype(dtype)
    w = rng.standard_normal((c, 1, k, k)).astype(dtype)
    b = rng.standard_normal(c).astype(dtype)
    return x, w, b


def _operator_applies(case):
    c = case["c"]
    return ad._spatial_operator_applies(c, c, c, case["h"], case["w"], case["k"],
                                        case["stride"], case["padding"])


def _reached_taps(case):
    """(k, k) mask of the kernel taps that some output reads a real pixel
    with."""
    s, p, k = case["stride"], case["padding"], case["k"]

    def axis(size):
        out = (size + 2 * p - k) // s + 1
        return np.array([any(0 <= o * s + i - p < size for o in range(out))
                         for i in range(k)])
    return axis(case["h"])[:, None] & axis(case["w"])[None, :]


def _depthwise_run(case, x, w, b, gy, rule=None):
    """Forward and gradients of a depth-wise conv2d; `rule` forces the
    spatial operator on (True) or off (False)."""
    xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
    kw = dict(stride=case["stride"], padding=case["padding"], groups=case["c"])
    with mock.patch.object(ad, "_spatial_operator_applies",
                           wraps=ad._spatial_operator_applies) as applies:
        if rule is not None:
            applies.side_effect = None
            applies.return_value = rule
        out = ad.conv2d(xt, wt, bt, **kw)
    ad.weighted_sum(out, gy).backward()
    return out.data, xt.grad, wt.grad, bt.grad


@settings(max_examples=200)
@given(case=depthwise_cases())
@example(case=dict(n=2, c=3, h=8, w=8, k=9, stride=1, padding=4,
                   dtype=np.float32, seed=8))   # fedconv_skew's stage 0
@example(case=dict(n=1, c=2, h=1, w=4, k=3, stride=3, padding=3,
                   dtype=np.float64, seed=3))   # unreached live taps
@example(case=dict(n=2, c=3, h=2, w=1, k=2, stride=7, padding=3,
                   dtype=np.float32, seed=5))   # no live tap at all
def test_depthwise_conv2d_matches_loop_oracles_on_both_sides_of_the_rule(case):
    x, w, b = _depthwise_arrays(case)
    s, p, c = case["stride"], case["padding"], case["c"]
    want = naive_conv2d(x.astype(np.float64), w.astype(np.float64),
                        b.astype(np.float64), stride=s, padding=p, groups=c)
    gy = np.random.default_rng(case["seed"] + 1).standard_normal(want.shape)
    want_gx, want_gw = loop_conv2d_grads(x, w, gy, stride=s, padding=p, groups=c)
    tol = 1e-4 if case["dtype"] == np.float32 else 1e-10
    unreached = ~_reached_taps(case)
    assert not want_gw[:, :, unreached].any()
    runs = [_depthwise_run(case, x, w, b, gy.astype(case["dtype"]), rule)
            for rule in (None, True, False)]
    for out, gx, gw, gb in runs:
        assert out.dtype == gx.dtype == gw.dtype == case["dtype"]
        np.testing.assert_allclose(out, want, rtol=tol, atol=tol * 10)
        np.testing.assert_allclose(gx, want_gx, rtol=tol, atol=tol * 10)
        np.testing.assert_allclose(gw, want_gw, rtol=tol, atol=tol * 10)
        np.testing.assert_allclose(gb, gy.sum(axis=(0, 2, 3)), rtol=tol, atol=tol * 10)
        # Taps that no output reaches get an exact zero, not a leftover.
        assert not gw[:, :, unreached].any()


@settings(max_examples=60)
@given(case=depthwise_cases().filter(_operator_applies))
@example(case=dict(n=3, c=2, h=4, w=4, k=9, stride=1, padding=4,
                   dtype=np.float64, seed=4))   # fedconv_skew's stage 1
def test_spatial_operator_gradients_match_finite_differences(case):
    x, w, b = (a.astype(np.float64) for a in _depthwise_arrays(case))
    err = finite_diff_check(
        lambda xt, wt, bt: ad.conv2d(xt, wt, bt, stride=case["stride"],
                                     padding=case["padding"], groups=case["c"]),
        [x, w, b])
    assert err < 1e-6


@pytest.mark.parametrize("c", [1, 2], ids=["depthwise", "dense"])
def test_window_wholly_in_padding_gives_the_bias(c):
    # Stride 5 over a 1x1 map padded by 2: the only window starts two pixels
    # before the map and ends before it, so no kernel tap reaches a pixel.
    # One channel takes the depth-wise path, two the dense one.
    x = Tensor(np.ones((1, c, 1, 1)), requires_grad=True)
    w = Tensor(np.ones((1, c, 1, 1)), requires_grad=True)
    b = Tensor(np.array([0.5]), requires_grad=True)
    out = ad.conv2d(x, w, b, stride=5, padding=2)
    assert out.shape == (1, 1, 1, 1)
    assert out.data.tobytes() == np.full((1, 1, 1, 1), 0.5).tobytes()
    out.backward()
    assert x.grad.tobytes() == np.zeros((1, c, 1, 1)).tobytes()
    assert w.grad.tobytes() == np.zeros((1, c, 1, 1)).tobytes()
    assert b.grad.tolist() == [1.0]


def test_training_conv_keeps_no_column_matrix():
    # fedconv_skew's stage-0 conv: depth-wise k9 over 8 channels at 8x8 with
    # batch 32. Its column matrix (5.3 MB) is 81x its input; after a training
    # forward only the output and the graph record may stay allocated.
    n, c, size, k, p = 32, 8, 8, 9, 4
    rng = np.random.default_rng(0)
    x = rng.standard_normal((c, size, size, n), dtype=np.float32)
    w = rng.standard_normal((c, 1, k, k), dtype=np.float32)
    xt = Tensor(x.transpose(3, 0, 1, 2), requires_grad=True)
    wt = Tensor(w, requires_grad=True)
    tracemalloc.start()
    try:
        y = ad.conv2d(xt, wt, padding=p, groups=c)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert y.requires_grad and y.shape == (n, c, size, size)
    assert held < 2 * y.data.nbytes, held


def test_no_grad_resnet_stem_peak_memory_is_bounded():
    # The 7x7 stride-2 stem on a 256-image eval batch: its whole column
    # matrix is 38.5 MB, and a forward-only conv must not build it.
    n, cin, size, cout, k, stride, p = 256, 3, 32, 16, 7, 2, 3
    rng = np.random.default_rng(0)
    x = rng.standard_normal((cin, size, size, n), dtype=np.float32)
    w = rng.standard_normal((cout, cin, k, k), dtype=np.float32)
    hout, _, _, start, stop = ad._axis(size, k, p, p, stride)
    itemsize = x.itemsize
    out_bytes = cout * hout * hout * n * itemsize
    slab_bytes = cin * (stop - start) ** 2 * n * itemsize
    row_bytes = cin * k * k * hout * n * itemsize
    block_bytes = max(1, ad._BLOCK_BYTES // row_bytes) * row_bytes
    xt, wt = Tensor(x.transpose(3, 0, 1, 2)), Tensor(w)
    tracemalloc.start()
    try:
        with ad.no_grad():
            y = ad.conv2d(xt, wt, stride=stride, padding=p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert y.shape == (n, cout, hout, hout)
    assert peak < out_bytes + slab_bytes + 2 * block_bytes, peak
