"""Property tests of conv2d over random shapes, strides, paddings and groups.

Forward values are compared with the six-loop oracle, gradients with central
differences. Padding is drawn up to k + 1, so some cases crop the kernel to
a few live taps and some make the stride-1 input gradient crop the output
gradient (padding >= k). Batches of up to 3 keep a mix-up of the batch and
space axes in the batch-innermost column layout from passing.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedconv import autodiff as ad
from fedconv.autodiff import Tensor
from fedconv.gradcheck import finite_diff_check

from helpers import naive_conv2d


@st.composite
def conv_cases(draw):
    k = draw(st.integers(1, 7))
    padding = draw(st.integers(0, k + 1))
    smallest = max(1, k - 2 * padding)
    h = draw(st.integers(smallest, smallest + 3))
    w = draw(st.sampled_from([v for v in range(smallest, smallest + 4) if v != h]))
    return dict(n=draw(st.integers(1, 3)), groups=draw(st.integers(1, 3)),
                cin_g=draw(st.integers(1, 2)), cout_g=draw(st.integers(1, 2)),
                h=h, w=w, k=k, stride=draw(st.integers(1, 3)), padding=padding,
                seed=draw(st.integers(0, 2**32 - 1)))


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
    # The stage-0 shape of the FedConv recipe in small: k9 depth-wise, same
    # padding, a 2x2 map and a batch of 3 beside the batch-innermost columns.
    dict(n=3, groups=4, cin_g=1, cout_g=1, h=2, w=2, k=9, stride=1,
         padding=4, seed=904),
]


def _covered(test):
    for case in COVERED:
        test = example(case=case)(test)
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
