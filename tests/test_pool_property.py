"""Property test of maxpool2d against the loop oracle in `helpers`.

Inputs are small integers, so windows often tie and the first-maximal
routing is exercised; padding is drawn up to k - 1, so edge windows mix
real pixels with padding. Half the strides are drawn up to the map size plus
both paddings and one, so a stride can skip every window after the first. Forward values and input gradients must match the
oracle bit for bit: each pixel sums its windows' gradients in window order.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fedconv import autodiff as ad
from fedconv.autodiff import Tensor

from helpers import loop_maxpool2d
from test_conv_property import strides


@st.composite
def pool_cases(draw):
    k = draw(st.integers(1, 4))
    padding = draw(st.integers(0, k - 1))
    smallest = max(1, k - 2 * padding)
    h = draw(st.integers(smallest, smallest + 5))
    w = draw(st.integers(smallest, smallest + 5))
    return dict(n=draw(st.integers(1, 2)), c=draw(st.integers(1, 3)), h=h, w=w,
                k=k, stride=draw(strides(max(h, w), padding)), padding=padding,
                levels=draw(st.integers(1, 6)),
                dtype=draw(st.sampled_from([np.float32, np.float64])),
                seed=draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=150)
@given(case=pool_cases())
def test_maxpool2d_matches_loop_oracle(case):
    rng = np.random.default_rng(case["seed"])
    shape = (case["n"], case["c"], case["h"], case["w"])
    x = rng.integers(-case["levels"], case["levels"] + 1, shape).astype(case["dtype"])
    k, stride, padding = case["k"], case["stride"], case["padding"]
    xt = Tensor(x, requires_grad=True)
    out = ad.maxpool2d(xt, k, stride, padding)
    g = rng.standard_normal(out.shape).astype(case["dtype"])
    ad.weighted_sum(out, g).backward()
    want, want_gx = loop_maxpool2d(x, g, k, stride, padding)
    assert out.data.dtype == x.dtype
    assert np.array_equal(out.data, want)
    assert xt.grad.tobytes() == want_gx.tobytes()
