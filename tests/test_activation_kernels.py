"""Accuracy of the float32 GELU and SiLU kernels.

Float32 GELU takes Phi from Numerical Recipes' erfcc form in cache-sized
blocks, and float32 SiLU its sigmoid from `np.exp`; float64 keeps scipy's
`erf` and `expit`. Errors are measured against float64 references on the
same float32 inputs. A blocked kernel must give the same bits as its
unblocked closed form at any size, block boundaries included, and in any
memory order of its input.
"""

import math

import numpy as np
import pytest
from scipy.special import erf, erfc, expit

from fedconv import autodiff as ad
from fedconv.autodiff import Tensor

from helpers import gauss_cdf_f32_closed_form, sigmoid_f32_closed_form

GRID = np.linspace(-10.0, 10.0, 400_001).astype(np.float32)


def _gelu_reference(x):
    """x * Phi(x) in float64 through erfc, accurate in the negative tail."""
    x = np.asarray(x, np.float64)
    return x * 0.5 * erfc(-x / math.sqrt(2.0))


def _forward(fn, x):
    return fn(Tensor(x)).data


def test_float32_gelu_keeps_its_negative_tail():
    # 0.5 * (1 + erf(x / sqrt 2)) cancels below x ~ -5.5: gelu(-5.6) came
    # out as -0.0 and gelu(-5.5) as -1.64e-7 against -1.04e-7.
    x = np.concatenate([np.array([-5.5, -5.6, -6.0], np.float32),
                        GRID[GRID <= -3.0]])
    want = _gelu_reference(x)
    got = _forward(ad.gelu, x).astype(np.float64)
    assert np.all(want < 0)
    rel = np.abs(got - want) / np.abs(want)
    assert rel.max() <= 1e-5, (x[rel.argmax()], rel.max())


def test_float32_gelu_absolute_error():
    err = np.abs(_forward(ad.gelu, GRID).astype(np.float64) - _gelu_reference(GRID))
    assert err.max() <= 4.5e-7, (GRID[err.argmax()], err.max())


def test_float32_silu_within_4_ulp():
    x = np.concatenate([GRID, np.linspace(-100.0, 100.0, 20_001, dtype=np.float32)])
    want = x.astype(np.float64) * expit(x.astype(np.float64))
    got = _forward(ad.silu, x).astype(np.float64)
    live = np.abs(want) >= 1e-30
    ulp = np.spacing(np.abs(want[live]).astype(np.float32)).astype(np.float64)
    assert (np.abs(got[live] - want[live]) / ulp).max() <= 4.0


@pytest.mark.parametrize("size", [0, 1, ad._ACT_BLOCK - 1, ad._ACT_BLOCK,
                                  ad._ACT_BLOCK + 1, 3 * ad._ACT_BLOCK + 5])
def test_float32_kernels_match_closed_forms_at_any_size(size):
    x = (np.random.default_rng(size).standard_normal(size) * 4).astype(np.float32)
    phi = gauss_cdf_f32_closed_form(x)
    out, kept = ad._gelu_f32(x, keep_phi=True)
    assert kept.tobytes() == phi.tobytes()
    assert out.tobytes() == (x * phi).tobytes()
    out, kept = ad._gelu_f32(x, keep_phi=False)
    assert kept is None and out.tobytes() == (x * phi).tobytes()
    assert ad._sigmoid(x).tobytes() == sigmoid_f32_closed_form(x).tobytes()


@pytest.mark.parametrize("kind", ["gelu", "silu"])
def test_float32_kernels_follow_memory_order(kind):
    # (N, C, H, W) values in C order and as a view of (C, H, W, N) memory,
    # over more than one block.
    x = (np.random.default_rng(3).standard_normal((8, 16, 8, 40)) * 4).astype(np.float32)
    chwn = np.ascontiguousarray(x.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)
    assert x.size > ad._ACT_BLOCK
    c_order = ad.activation(kind, Tensor(x)).data
    viewed = ad.activation(kind, Tensor(chwn)).data
    assert c_order.flags.c_contiguous
    assert viewed.transpose(1, 2, 3, 0).flags.c_contiguous
    assert c_order.tobytes() == np.ascontiguousarray(viewed).tobytes()
    flat = ad.activation(kind, Tensor(x.ravel())).data
    assert flat.tobytes() == c_order.tobytes()


def test_float64_activations_keep_scipy():
    x = np.random.default_rng(5).standard_normal((4, 3, 5, 5)) * 4
    gelu = x * (0.5 * (1.0 + erf(x / math.sqrt(2.0))))
    assert _forward(ad.gelu, x).tobytes() == gelu.tobytes()
    assert _forward(ad.silu, x).tobytes() == (x * expit(x)).tobytes()
