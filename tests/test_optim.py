"""Optimizer steps, adaptive gradient clipping, and the lr schedule."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedconv.autodiff import Tensor
from fedconv.optim import (AGCConfig, AdamW, LrSchedule, ParamArena, SGD,
                           clip_model_grads, lr_at, unitwise_norm)

from helpers import LoopAdamW, LoopSGD, agc_clip, arena_clip, arena_of


def params_of(arrays):
    return arena_of(arrays, dtype=np.float64)


class TestAdamW:
    def test_zero_grad_zero_wd_leaves_params(self):
        p = params_of([np.array([1.0, -2.0])])
        p["p0"].grad[...] = 0.0
        AdamW(p).step(p, lr=0.1)
        np.testing.assert_array_equal(p["p0"].data, [1.0, -2.0])

    def test_single_step_hand_value(self):
        # g=1 from zero state: m_hat = 1, v_hat = 1, so the update is
        # -lr / (1 + eps), evaluated here at float64.
        p = params_of([np.array([0.0])])
        p["p0"].grad[...] = np.array([1.0])
        AdamW(p).step(p, lr=0.1)
        expected = -0.1 * 1.0 / (1.0 + 1e-8)
        assert abs(p["p0"].data[0] - expected) < 1e-15

    def test_decay_one_over_lr_zeroes_before_update(self):
        p = params_of([np.array([3.0])])
        p["p0"].grad[...] = np.array([0.0])
        AdamW(p, weight_decay=10.0).step(p, lr=0.1)
        assert p["p0"].data[0] == 0.0

    def test_scale_equivariance_up_to_eps(self):
        rng = np.random.default_rng(0)
        g = rng.uniform(0.5, 2.0, 16) * np.where(rng.random(16) < 0.5, -1, 1)

        def update(scale):
            p = params_of([np.zeros(16)])
            p["p0"].grad[...] = g * scale
            AdamW(p).step(p, lr=0.05)
            return p["p0"].data.copy()

        np.testing.assert_allclose(update(1.0), update(10.0), atol=1e-6)

    def test_state_round_trip_bitwise(self):
        rng = np.random.default_rng(1)
        p = params_of([rng.standard_normal(4), rng.standard_normal((2, 3))])
        opt = AdamW(p, weight_decay=0.01)
        for _ in range(3):
            for t in p.values():
                t.grad[...] = rng.standard_normal(t.data.shape)
            opt.step(p, lr=0.01)
        state = opt.state_dict()
        # Flat arrays in arena order, not one entry per parameter.
        assert list(state) == ["t", "m", "v"]
        assert state["m"].shape == state["v"].shape == p.data.shape
        other = AdamW(p, weight_decay=0.01)
        other.load_state_dict(state)
        for k, v in other.state_dict().items():
            np.testing.assert_array_equal(v, state[k])


class TestSGD:
    def test_plain_step(self):
        p = params_of([np.array([5.0])])
        p["p0"].grad[...] = np.array([2.0])
        SGD(p).step(p, lr=1.0)
        assert p["p0"].data[0] == 3.0

    def test_zero_lr_is_identity(self):
        p = params_of([np.array([5.0])])
        p["p0"].grad[...] = np.array([2.0])
        SGD(p, momentum=0.9).step(p, lr=0.0)
        assert p["p0"].data[0] == 5.0

    def test_momentum_two_step_recurrence(self):
        # v1 = g1; v2 = 0.9 v1 + g2; param -= lr (v1 + v2)
        p = params_of([np.array([0.0])])
        opt = SGD(p, momentum=0.9)
        p["p0"].grad[...] = np.array([1.0])
        opt.step(p, lr=0.1)
        p["p0"].grad[...] = np.array([2.0])
        opt.step(p, lr=0.1)
        expected = -0.1 * 1.0 - 0.1 * (0.9 * 1.0 + 2.0)
        assert abs(p["p0"].data[0] - expected) < 1e-15

    def test_state_round_trip(self):
        p = params_of([np.ones(3)])
        opt = SGD(p, momentum=0.9)
        p["p0"].grad[...] = np.array([1.0, 2.0, 3.0])
        opt.step(p, lr=0.1)
        state = opt.state_dict()
        assert list(state) == ["t", "buf"] and state["buf"].shape == p.data.shape
        assert list(SGD(p).state_dict()) == ["t"]
        fresh = SGD(p, momentum=0.9)
        fresh.load_state_dict(state)
        np.testing.assert_array_equal(fresh.buf, opt.buf)
        assert fresh.t == opt.t


class TestAGC:
    def test_formula_case(self):
        # ||g|| = 1, ||w|| = 10, lambda = 0.01 -> rescale to 0.1
        w = np.zeros((1, 100))
        w[0, 0] = 10.0
        g = np.zeros((1, 100))
        g[0, 1] = 1.0
        out = arena_clip(w, g, AGCConfig(clipping=0.01, eps=1e-3))
        assert abs(np.linalg.norm(out) - 0.1) < 1e-12

    def test_small_ratio_unchanged(self):
        rng = np.random.default_rng(0)
        w = rng.standard_normal((4, 8))
        g = w * 0.001  # ratio well below lambda
        out = arena_clip(w, g, AGCConfig())
        np.testing.assert_array_equal(out, g)

    def test_zero_weights_use_eps_floor(self):
        w = np.zeros((2, 4))
        g = np.ones((2, 4))
        cfg = AGCConfig(clipping=0.01, eps=1e-3)
        out = arena_clip(w, g, cfg)
        for row in out:
            assert abs(np.linalg.norm(row) - 0.01 * 1e-3) < 1e-15

    def test_unitwise_rules(self):
        assert unitwise_norm(np.ones(5)).shape == (1,)
        assert unitwise_norm(np.ones((3, 4))).shape == (3, 1)
        assert unitwise_norm(np.ones((6, 2, 3, 3))).shape == (6, 1, 1, 1)

    def test_ratio_bound_and_idempotence_random(self):
        rng = np.random.default_rng(42)
        cfg = AGCConfig()
        for _ in range(100):
            shape = [(8,), (4, 9), (5, 3, 3, 3)][rng.integers(0, 3)]
            w = rng.standard_normal(shape)
            g = rng.standard_normal(shape) * (10.0 ** rng.integers(-2, 3))
            once = arena_clip(w, g, cfg)
            ratio = unitwise_norm(once) / np.maximum(unitwise_norm(w), cfg.eps)
            assert np.all(ratio <= cfg.clipping + 1e-12)
            twice = arena_clip(w, once, cfg)
            np.testing.assert_allclose(twice, once, rtol=1e-12, atol=1e-15)

    def test_head_exclusion(self):
        p = ParamArena([("body.weight", Tensor(np.zeros((2, 4)), requires_grad=True)),
                        ("head.weight", Tensor(np.zeros((2, 4)), requires_grad=True))])
        for t in p.values():
            t.grad[...] = np.ones((2, 4))
        clip_model_grads(p, AGCConfig(), exclude={"head.weight"})
        assert np.linalg.norm(p["body.weight"].grad[0]) < 1.0
        np.testing.assert_array_equal(p["head.weight"].grad, np.ones((2, 4)))

    def test_no_unit_rule_for_3d(self):
        with pytest.raises(ValueError, match="ndim=3"):
            clip_model_grads(params_of([np.ones((2, 2, 2))]), AGCConfig())


_AGC_SHAPES = {1: st.tuples(st.integers(1, 12)),
               2: st.tuples(st.integers(1, 5), st.integers(1, 9)),
               4: st.tuples(st.integers(1, 4), st.integers(1, 3),
                            st.integers(1, 3), st.integers(1, 3))}


@st.composite
def agc_registries(draw):
    """(weights, grads, exclude, dtype): a registry of 1-D, 2-D and 4-D
    parameters of one dtype, the gradients spread over six decades so some
    units clip and some do not, and a random set of excluded names."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    shapes = draw(st.lists(st.sampled_from([1, 2, 4]).flatmap(_AGC_SHAPES.get),
                           min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights, grads = [], []
    for shape in shapes:
        weights.append((rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 2)).astype(dtype))
        grads.append((rng.standard_normal(shape) * 10.0 ** rng.integers(-5, 2)).astype(dtype))
    exclude = set(draw(st.sets(st.sampled_from([f"p{i}" for i in range(len(shapes))]))))
    return weights, grads, exclude, dtype


@settings(max_examples=200)
@given(agc_registries())
def test_flat_agc_matches_per_tensor_oracle(case):
    # Excluded gradients must come back untouched. The others are compared
    # bitwise, which is stronger than allclose: the flat unit sums reduce
    # each unit in np.sum's pairwise order, so AGC runs keep byte-identical
    # reports across the flat and per-tensor implementations.
    weights, grads, exclude, dtype = case
    cfg = AGCConfig(clipping=0.01, eps=1e-3)
    arena = arena_of(weights)
    for t, g in zip(arena.values(), grads):
        t.grad[...] = g
    clip_model_grads(arena, cfg, exclude)
    want = agc_clip(weights, grads, cfg)
    for (name, t), g, w in zip(arena.items(), grads, want):
        assert t.grad.dtype == dtype
        expected = g if name in exclude else w
        assert t.grad.tobytes() == expected.tobytes(), name


class TestFlatStepsMatchLoops:
    """The flat AdamW and SGD steps are bitwise equal to per-tensor loops on
    a mixed-shape float32 registry."""

    SHAPES = [(6, 3, 3, 3), (6,), (4, 6, 1, 1), (4,), (3, 4), (3,), (5,)]

    def run(self, make_flat, make_loop, steps=6):
        rng = np.random.default_rng(7)
        init = [rng.standard_normal(s).astype(np.float32) for s in self.SHAPES]
        arena = arena_of(init)
        flat = make_flat(arena)
        loop_params = [a.copy() for a in init]
        loop = make_loop(loop_params)
        for k in range(steps):
            grads = [rng.standard_normal(s).astype(np.float32) * 10.0 ** (k - 3)
                     for s in self.SHAPES]
            for t, g in zip(arena.values(), grads):
                t.grad[...] = g
            lr = 0.01 * (k + 1)
            flat.step(arena, lr)
            loop.step(grads, lr)
        for t, want in zip(arena.values(), loop_params):
            assert t.data.tobytes() == want.tobytes()

    def test_adamw_with_weight_decay(self):
        self.run(lambda a: AdamW(a, weight_decay=0.05),
                 lambda ps: LoopAdamW(ps, weight_decay=0.05))

    def test_sgd_with_momentum(self):
        self.run(lambda a: SGD(a, momentum=0.9), lambda ps: LoopSGD(ps, momentum=0.9))

    def test_plain_sgd(self):
        self.run(lambda a: SGD(a), lambda ps: LoopSGD(ps))


class TestSchedule:
    def test_zero_at_step_zero_with_warmup(self):
        s = LrSchedule(base_lr=0.1, warmup_epochs=2, total_epochs=10)
        assert lr_at(s, 0, 5) == 0.0

    def test_base_at_warmup_end(self):
        s = LrSchedule(base_lr=0.1, warmup_epochs=2, total_epochs=10)
        assert abs(lr_at(s, 10, 5) - 0.1) < 1e-15

    def test_half_base_at_cosine_midpoint(self):
        s = LrSchedule(base_lr=0.2, warmup_epochs=0, total_epochs=10)
        assert abs(lr_at(s, 50, 10) - 0.1) < 1e-12

    def test_nonincreasing_after_warmup(self):
        s = LrSchedule(base_lr=0.1, warmup_epochs=1, total_epochs=5)
        values = [lr_at(s, k, 10) for k in range(10, 50)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_no_warmup_starts_at_base(self):
        s = LrSchedule(base_lr=0.3, warmup_epochs=0, total_epochs=4)
        assert lr_at(s, 0, 7) == 0.3

    @pytest.mark.parametrize("step", [3, 25, 80], ids=["warmup", "cosine", "past_end"])
    def test_lr_keeps_float32_updates_float32(self, step):
        # NumPy 2 treats a Python float as a weak scalar and an np.float64
        # as a float64 operand, which would run every update in float64.
        s = LrSchedule(base_lr=0.1, warmup_epochs=1, total_epochs=5)
        assert (lr_at(s, step, 10) * np.ones(3, np.float32)).dtype == np.float32
