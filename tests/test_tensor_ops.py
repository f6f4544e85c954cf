"""Forward values and backward bookkeeping of the autodiff ops."""

import gc
import math
import threading
import weakref

import numpy as np
import pytest
from scipy.special import erf, expit

from fedconv import autodiff as ad
from fedconv.autodiff import Tensor
from fedconv.gradcheck import finite_diff_check

from helpers import (gauss_cdf_f32_closed_form, naive_conv2d,
                     sigmoid_f32_closed_form)


def t(data, grad=False, dtype=np.float64):
    return Tensor(np.asarray(data, dtype=dtype), requires_grad=grad)


class TestConv2d:
    def test_zero_input_gives_bias(self):
        x = t(np.zeros((2, 3, 5, 5)))
        w = t(np.random.default_rng(0).standard_normal((4, 3, 3, 3)))
        b = t([1.0, -2.0, 0.5, 3.0])
        out = ad.conv2d(x, w, b, stride=1, padding=1)
        for c, v in enumerate([1.0, -2.0, 0.5, 3.0]):
            assert np.all(out.data[:, c] == v)

    def test_kernel9_depthwise_shape(self):
        x = t(np.random.default_rng(1).standard_normal((1, 4, 9, 9)))
        w = t(np.random.default_rng(2).standard_normal((4, 1, 9, 9)))
        out = ad.conv2d(x, w, stride=1, padding=4, groups=4)
        assert out.shape == (1, 4, 9, 9)

    def test_one_by_one_hand_case(self):
        # Per-pixel channel vector (1, 2); rows (1,0), (0,1), (1,1) -> (1, 2, 3).
        x = np.zeros((1, 2, 2, 2))
        x[0, 0] = 1.0
        x[0, 1] = 2.0
        w = np.array([[[[1.0]], [[0.0]]],
                      [[[0.0]], [[1.0]]],
                      [[[1.0]], [[1.0]]]])
        out = ad.conv2d(t(x), t(w))
        for c, v in enumerate([1.0, 2.0, 3.0]):
            assert np.all(out.data[0, c] == v)

    @pytest.mark.parametrize("stride,padding,groups,cin,cout,k,hw", [
        (1, 1, 1, 3, 4, 3, 6),
        (2, 2, 1, 2, 3, 5, 7),
        (1, 4, 4, 4, 4, 9, 9),
        (2, 0, 2, 4, 6, 3, 8),
        (3, 1, 1, 2, 2, 3, 9),
    ])
    def test_matches_naive_oracle(self, stride, padding, groups, cin, cout, k, hw):
        rng = np.random.default_rng(hash((stride, padding, groups)) % 2**32)
        x = rng.standard_normal((2, cin, hw, hw))
        w = rng.standard_normal((cout, cin // groups, k, k))
        b = rng.standard_normal(cout)
        got = ad.conv2d(t(x), t(w), t(b), stride=stride, padding=padding,
                        groups=groups)
        want = naive_conv2d(x, w, b, stride=stride, padding=padding, groups=groups)
        np.testing.assert_allclose(got.data, want, atol=1e-12, rtol=0)

    def test_grad_shapes_and_accumulation(self):
        rng = np.random.default_rng(3)
        x = t(rng.standard_normal((2, 4, 5, 5)), grad=True)
        w = t(rng.standard_normal((4, 1, 3, 3)), grad=True)
        b = t(rng.standard_normal(4), grad=True)
        out = ad.conv2d(x, w, b, padding=1, groups=4)
        loss = ad.weighted_sum(out, np.ones(out.shape))
        loss.backward()
        assert x.grad.shape == x.shape
        assert w.grad.shape == w.shape
        # d(sum)/db_c counts output positions of channel c
        np.testing.assert_allclose(b.grad, np.full(4, 2 * 25.0))

    @pytest.mark.parametrize("hw,live", [(1, slice(4, 5)), (2, slice(3, 6))])
    def test_same_padded_k9_depthwise_cropped_taps(self, hw, live):
        # At 1x1 and 2x2 a same-padded 9x9 kernel reaches real pixels only
        # with its central 1x1 and 3x3 taps; every other tap reads padding.
        rng = np.random.default_rng(hw)
        x = rng.standard_normal((2, 3, hw, hw))
        w = rng.standard_normal((3, 1, 9, 9))
        b = rng.standard_normal(3)
        xt, wt = t(x, grad=True), t(w, grad=True)
        out = ad.conv2d(xt, wt, t(b), padding=4, groups=3)
        np.testing.assert_allclose(
            out.data, naive_conv2d(x, w, b, padding=4, groups=3), atol=1e-12, rtol=0)
        ad.weighted_sum(out, rng.standard_normal(out.shape)).backward()
        dead = np.ones((9, 9), dtype=bool)
        dead[live, live] = False
        assert np.all(wt.grad[:, :, dead] == 0.0)
        assert np.all(wt.grad[:, :, live, live] != 0.0)
        err = finite_diff_check(
            lambda a, c: ad.conv2d(a, c, padding=4, groups=3), [x, w])
        assert err < 1e-6

    def test_group_mismatch_raises(self):
        x = t(np.zeros((1, 3, 4, 4)))
        w = t(np.zeros((4, 1, 3, 3)))
        with pytest.raises(ad.ShapeError):
            ad.conv2d(x, w, groups=2)

    def test_kernel_exceeds_input_raises(self):
        x = t(np.zeros((1, 1, 3, 3)))
        w = t(np.zeros((1, 1, 5, 5)))
        with pytest.raises(ad.ShapeError):
            ad.conv2d(x, w)


class TestLinear:
    def test_identity(self):
        x = np.random.default_rng(0).standard_normal((3, 4))
        out = ad.linear(t(x), t(np.eye(4)), t(np.zeros(4)))
        np.testing.assert_array_equal(out.data, x)

    def test_zero_weight_gives_bias(self):
        out = ad.linear(t(np.ones((3, 4))), t(np.zeros((2, 4))), t([5.0, -1.0]))
        np.testing.assert_array_equal(out.data, np.tile([5.0, -1.0], (3, 1)))

    def test_hand_case(self):
        x = t([[1.0, 2.0], [3.0, 4.0]])
        w = t([[5.0, 6.0], [7.0, 8.0]])
        b = t([0.5, -1.0])
        out = ad.linear(x, w, b)
        # dot products by hand: rows of x against rows of w, plus bias
        np.testing.assert_array_equal(out.data, [[17.5, 22.0], [39.5, 52.0]])


class TestMaxPool:
    def test_constant_input(self):
        out = ad.maxpool2d(t(np.full((1, 2, 4, 4), 3.5)), 2, 2)
        assert np.all(out.data == 3.5)

    def test_enumerated_windows(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out = ad.maxpool2d(t(x), 2, 2)
        np.testing.assert_array_equal(out.data[0, 0], [[5.0, 7.0], [13.0, 15.0]])

    def test_subgradient_routes_to_argmax(self):
        x = t(np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4), grad=True)
        out = ad.maxpool2d(x, 2, 2)
        ad.weighted_sum(out, np.ones(out.shape)).backward()
        want = np.zeros((4, 4))
        want[1, 1] = want[1, 3] = want[3, 1] = want[3, 3] = 1.0
        np.testing.assert_array_equal(x.grad[0, 0], want)

    def test_tie_breaks_to_lowest_linear_index(self):
        x = t(np.array([[[[1.0, 1.0], [1.0, 1.0]]]]), grad=True)
        out = ad.maxpool2d(x, 2, 2)
        ad.weighted_sum(out, np.ones(out.shape)).backward()
        want = np.zeros((2, 2))
        want[0, 0] = 1.0
        np.testing.assert_array_equal(x.grad[0, 0], want)

    def test_kernel_larger_than_padded_input_raises(self):
        with pytest.raises(ad.ShapeError):
            ad.maxpool2d(t(np.zeros((1, 1, 2, 2))), 5, 1)

    @pytest.mark.parametrize("k,stride,padding", [(1, 1, 1), (2, 2, 2), (3, 1, 5)])
    def test_window_of_only_padding_raises(self, k, stride, padding):
        # padding >= k puts a whole window in the -inf border: a bad
        # argument, not a numerics failure of the forward pass.
        x = t(np.random.default_rng(k).standard_normal((1, 2, 4, 4)))
        with pytest.raises(ad.ShapeError, match="padding"):
            ad.maxpool2d(x, k, stride, padding)


class TestGlobalAvgPool:
    def test_constant(self):
        out = ad.global_avg_pool(t(np.full((2, 3, 4, 4), 1.25)))
        assert np.all(out.data == 1.25)

    def test_mean_value(self):
        x = np.array([[[[0.0, 2.0], [4.0, 6.0]]]])
        assert ad.global_avg_pool(t(x)).data[0, 0] == 3.0

    def test_uniform_gradient(self):
        x = t(np.random.default_rng(0).standard_normal((1, 2, 2, 2)), grad=True)
        out = ad.global_avg_pool(x)
        ad.weighted_sum(out, np.ones(out.shape)).backward()
        np.testing.assert_allclose(x.grad, np.full(x.shape, 0.25))


class TestLayerNormC:
    def test_closed_form_three_channels(self):
        x = t(np.array([1.0, 2.0, 3.0]).reshape(1, 3, 1, 1))
        out = ad.layer_norm_c(x, t(np.ones(3)), t(np.zeros(3)), eps=0.0)
        r = np.sqrt(3.0 / 2.0)
        np.testing.assert_allclose(out.data.ravel(), [-r, 0.0, r], atol=1e-12)

    def test_zero_gamma_gives_beta(self):
        x = t(np.random.default_rng(0).standard_normal((2, 4, 3, 3)))
        out = ad.layer_norm_c(x, t(np.zeros(4)), t(np.arange(4.0)))
        for c in range(4):
            assert np.all(out.data[:, c] == float(c))

    def test_standardized_input_unchanged(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 8, 3, 3))
        x = (x - x.mean(axis=1, keepdims=True)) / x.std(axis=1, keepdims=True)
        out = ad.layer_norm_c(t(x), t(np.ones(8)), t(np.zeros(8)), eps=0.0)
        np.testing.assert_allclose(out.data, x, atol=1e-10)

    def test_normalization_property_random(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 16, 4, 4)) * 5 + 2
        out = ad.layer_norm_c(t(x), t(np.ones(16)), t(np.zeros(16)))
        mean = out.data.mean(axis=1)
        var = out.data.var(axis=1)
        assert np.abs(mean).max() < 1e-6
        assert np.abs(var - 1).max() < 1e-4  # eps=1e-5 shifts variance slightly

    def test_two_dim_input(self):
        x = t(np.array([[1.0, 2.0, 3.0]]))
        out = ad.layer_norm_c(x, t(np.ones(3)), t(np.zeros(3)), eps=0.0)
        r = np.sqrt(3.0 / 2.0)
        np.testing.assert_allclose(out.data, [[-r, 0.0, r]], atol=1e-12)


class TestBatchNorm:
    def test_eval_identity_with_unit_stats(self):
        x = np.random.default_rng(0).standard_normal((2, 3, 4, 4))
        out = ad.batch_norm(t(x), t(np.ones(3)), t(np.zeros(3)),
                            np.zeros(3), np.ones(3), eps=0.0, training=False)
        np.testing.assert_allclose(out.data, x, atol=1e-12)

    def test_train_constant_batch_gives_beta(self):
        x = np.full((4, 2, 3, 3), 7.0)
        beta = np.array([1.5, -0.5])
        out = ad.batch_norm(t(x), t(np.ones(2)), t(beta),
                            np.zeros(2), np.ones(2), training=True)
        for c in range(2):
            np.testing.assert_allclose(out.data[:, c], beta[c], atol=1e-6)

    def test_running_stats_ema_hand_case(self):
        x = np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 1, 2, 2)
        rm, rv = np.zeros(1), np.ones(1)
        ad.batch_norm(t(x), t(np.ones(1)), t(np.zeros(1)), rm, rv,
                      momentum=0.1, training=True)
        # batch mean 2.5, biased batch var 1.25
        np.testing.assert_allclose(rm, [0.1 * 2.5])
        np.testing.assert_allclose(rv, [0.9 * 1.0 + 0.1 * 1.25])


class TestActivations:
    @pytest.mark.parametrize("kind", ad.ACTIVATION_KINDS)
    def test_value_at_zero(self, kind):
        x = t(np.zeros((1, 4)))
        alpha = t(np.full(4, 0.25)) if kind == "prelu" else None
        out = ad.activation(kind, x, alpha)
        if kind == "softplus":
            # log(1 + e^0) = log 2; the only listed curve not through the origin
            np.testing.assert_allclose(out.data, np.log(2.0), atol=1e-12)
        else:
            np.testing.assert_array_equal(out.data, np.zeros((1, 4)))

    def test_silu_at_one(self):
        out = ad.silu(t([[1.0]]))
        assert abs(out.data[0, 0] - 0.7310585786300049) < 1e-12

    def test_elu_at_minus_one(self):
        out = ad.elu(t([[-1.0]]), alpha=1.0)
        assert abs(out.data[0, 0] - (np.exp(-1.0) - 1.0)) < 1e-15

    def test_softplus_positive_everywhere(self):
        x = np.random.default_rng(0).standard_normal((4, 64)) * 10
        assert np.all(ad.softplus(t(x)).data > 0)

    def test_gelu_exact_gaussian_cdf_form(self):
        from scipy.stats import norm
        x = np.linspace(-4, 4, 41)
        out = ad.gelu(t(x.reshape(1, -1)))
        np.testing.assert_allclose(out.data.ravel(), x * norm.cdf(x), atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", ["relu", "lrelu", "softplus", "gelu",
                                      "silu", "elu"])
    def test_gradient_is_closed_form_derivative(self, kind, dtype):
        # With a unit output gradient, backward returns the derivative array
        # itself, so it must equal the closed form bit for bit. Float32 GELU
        # and SiLU take Phi and the sigmoid from their float32 kernels'
        # closed forms, float64 from scipy.
        x = np.random.default_rng(7).standard_normal((3, 4, 5, 5)).astype(dtype) * 4
        x[0, 0, 0, :3] = (0.0, 40.0, -40.0)
        sig = expit(x)
        if dtype == np.float32:
            phi = gauss_cdf_f32_closed_form(x)
            silu_sig = sigmoid_f32_closed_form(x)
        else:
            phi = 0.5 * (1.0 + erf(x / math.sqrt(2.0)))
            silu_sig = sig
        want = {
            "relu": (x > 0).astype(dtype),
            "lrelu": np.where(x > 0, 1.0, 0.01).astype(dtype),
            "softplus": sig,
            "gelu": phi + x * (1.0 / math.sqrt(2.0 * math.pi)
                               * np.exp(-0.5 * x * x)),
            "silu": silu_sig * (1.0 + x * (1.0 - silu_sig)),
            "elu": np.where(x > 0, 1.0, np.exp(np.minimum(x, 0.0))).astype(dtype),
        }[kind]
        xt = t(x, grad=True, dtype=dtype)
        ad.weighted_sum(ad.activation(kind, xt), np.ones(x.shape)).backward()
        assert xt.grad.dtype == want.dtype == dtype
        assert xt.grad.tobytes() == want.tobytes()

    def test_prelu_learns_per_channel(self):
        x = t(np.array([[[[-2.0]], [[-2.0]]]]), grad=True)
        alpha = t(np.array([0.25, 0.5]), grad=True)
        out = ad.prelu(x, alpha)
        np.testing.assert_allclose(out.data.ravel(), [-0.5, -1.0])
        ad.weighted_sum(out, np.ones(out.shape)).backward()
        np.testing.assert_allclose(alpha.grad, [-2.0, -2.0])
        np.testing.assert_allclose(x.grad.ravel(), [0.25, 0.5])


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        for k in (2, 5, 10):
            loss = ad.softmax_cross_entropy(t(np.zeros((3, k))), np.zeros(3, dtype=np.int64))
            assert abs(float(loss.data) - np.log(k)) < 1e-12

    def test_confident_correct_logit(self):
        z = np.zeros((1, 4))
        z[0, 2] = 50.0
        loss = ad.softmax_cross_entropy(t(z), np.array([2]))
        assert float(loss.data) < 1e-12

    def test_two_class_hand_case(self):
        loss = ad.softmax_cross_entropy(t([[2.0, 0.0]]), np.array([0]))
        # direct formula: -log(e^2 / (e^2 + 1)) = log(1 + e^-2)
        assert abs(float(loss.data) - np.log(1 + np.exp(-2.0))) < 1e-12

    def test_gradient_is_softmax_minus_onehot_over_n(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal((4, 3))
        labels = np.array([0, 2, 1, 1])
        logits = t(z, grad=True)
        ad.softmax_cross_entropy(logits, labels).backward()
        p = np.exp(z - z.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(4), labels] -= 1
        np.testing.assert_allclose(logits.grad, p / 4, atol=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(ad.ShapeError):
            ad.softmax_cross_entropy(t(np.zeros((1, 3))), np.array([3]))


class TestGraph:
    def test_backward_linearity(self):
        rng = np.random.default_rng(0)
        xv = rng.standard_normal((2, 3))
        c1 = rng.standard_normal((2, 3))
        c2 = rng.standard_normal((2, 3))

        def grads_of(build):
            x = t(xv, grad=True)
            build(x).backward()
            return x.grad

        g1 = grads_of(lambda x: ad.weighted_sum(ad.silu(x), c1))
        g2 = grads_of(lambda x: ad.weighted_sum(ad.gelu(x), c2))
        gsum = grads_of(lambda x: ad.add(ad.weighted_sum(ad.silu(x), c1),
                                         ad.weighted_sum(ad.gelu(x), c2)))
        np.testing.assert_allclose(gsum, g1 + g2, atol=1e-12)

    def test_shared_input_accumulates(self):
        x = t(np.array([[2.0]]), grad=True)
        out = ad.add(ad.relu(x), ad.relu(x))
        ad.weighted_sum(out, np.ones((1, 1))).backward()
        assert x.grad[0, 0] == 2.0

    def test_backward_requires_scalar(self):
        x = t(np.ones((2, 2)), grad=True)
        with pytest.raises(ad.ShapeError):
            ad.relu(x).backward()

    def test_determinism_same_seed_bitwise(self):
        def run():
            rng = np.random.default_rng(42)
            x = t(rng.standard_normal((2, 3, 8, 8)), grad=True)
            w = t(rng.standard_normal((4, 3, 3, 3)), grad=True)
            out = ad.silu(ad.conv2d(x, w, padding=1))
            ad.weighted_sum(out, np.ones(out.shape)).backward()
            return out.data.copy(), x.grad.copy(), w.grad.copy()

        a, b = run(), run()
        for left, right in zip(a, b):
            assert np.array_equal(left, right)

    def test_finite_values_with_overflowing_sum_pass(self):
        # Each element is finite in float32, their sum (4e39) is not.
        x = t(np.full((4, 1000), 1e36), dtype=np.float32)
        out = ad.relu(x)
        np.testing.assert_array_equal(out.data, x.data)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_element_among_large_values_raises(self, bad):
        data = np.full((4, 1000), 1e36, dtype=np.float32)
        data[2, 7] = bad
        with pytest.raises(ad.NumericsError, match="relu"):
            ad.relu(t(data, dtype=np.float32))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_each_non_finite_value_raises_with_op_name(self, bad):
        data = np.ones((2, 3, 8, 8), dtype=np.float32)
        data[1, 2, 3, 4] = bad
        with pytest.raises(ad.NumericsError, match="'add'"):
            ad.add(t(data, dtype=np.float32), t(np.zeros_like(data), dtype=np.float32))

    def test_finite_values_with_overflowing_squares_pass(self):
        # 1e20 is finite in float32, its square (1e40) is not.
        x = t(np.full((4, 1000), 1e20), dtype=np.float32)
        out = ad.add(x, t(np.zeros((4, 1000)), dtype=np.float32))
        np.testing.assert_array_equal(out.data, x.data)

    def test_non_finite_value_in_strided_view_raises(self):
        data = np.arange(48, dtype=np.float32).reshape(2, 4, 6)
        strided = data[:, :, ::2]
        ad._finite_or_raise(strided, "strided")
        data[1, 3, 4] = np.nan
        with pytest.raises(ad.NumericsError, match="strided"):
            ad._finite_or_raise(strided, "strided")

    def test_backward_frees_graph_without_gc(self):
        rng = np.random.default_rng(5)
        x = t(rng.standard_normal((2, 3, 6, 6)))
        w = t(rng.standard_normal((4, 3, 3, 3)), grad=True)

        def build():
            hidden = ad.silu(ad.conv2d(x, w, padding=1))
            return ad.weighted_sum(hidden, np.ones(hidden.shape)), weakref.ref(hidden.data)

        enabled = gc.isenabled()
        gc.disable()
        try:
            loss, hidden_data = build()
            loss.backward()
            del loss
            assert hidden_data() is None
        finally:
            if enabled:
                gc.enable()
        assert w.grad is not None and np.any(w.grad != 0.0)

    def test_no_grad_is_per_thread(self):
        inside, release = threading.Event(), threading.Event()
        seen = {}

        def evaluator():
            with ad.no_grad():
                inside.set()
                release.wait(timeout=10)
                seen["eval"] = ad.relu(t(np.ones((1, 2)), grad=True)).requires_grad

        worker = threading.Thread(target=evaluator)
        worker.start()
        try:
            assert inside.wait(timeout=10)
            out = ad.relu(t(np.ones((1, 2)), grad=True))
        finally:
            release.set()
            worker.join(timeout=10)
        assert not worker.is_alive()
        assert out.requires_grad and out._backward is not None
        assert seen == {"eval": False}

    def test_nan_aborts_with_node_name(self):
        x = t(np.array([[[[np.inf]]]]))
        w = t(np.ones((1, 1, 1, 1)))
        with pytest.raises(ad.NumericsError, match="conv2d"):
            ad.conv2d(x, w)

    def test_no_grad_skips_graph(self):
        x = t(np.ones((1, 2)), grad=True)
        with ad.no_grad():
            out = ad.relu(x)
        assert not out.requires_grad and out._backward is None
