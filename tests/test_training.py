"""Cooperative objective: per-view loss, the closed-form weight solver,
Adam, the alternating epoch loop, and the weighted decision."""

import math
import os
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from coopseg import tensor as T
from coopseg.config import toy_config
from coopseg.data import make_batches, synth_dataset
from coopseg.fusion import ChannelGate
from coopseg.model import SegmentationModel, ViewOutputs
from coopseg.tensor import ShapeError, Tensor
from coopseg.train import (
    Adam,
    ViewWeights,
    fuse_decision,
    solve_weights,
    total_objective,
    train_epoch,
    view_loss,
)


def rng_of(seed):
    return np.random.default_rng(seed)


def tiny_cfg(**kw):
    base = dict(image_size=32, d_model=48, stem_channels=4, stage_units=1,
                c4=8, c8=12, c16=16, batch_size=2, synth_samples=2)
    base.update(kw)
    return toy_config(**base)


def tiny_batch(cfg, seed=5):
    samples = synth_dataset(cfg.synth_samples, cfg.image_size, seed=seed)
    [(_, images, masks)] = make_batches(samples, len(samples), np.float32)
    return images, masks


class TestViewLoss:
    def test_constant_half_prediction_golden(self):
        # 4 pixels, 2 positive: overlap term 2/3, cross-entropy ln 2
        pre = Tensor(np.full((1, 1, 2, 2), 0.5))
        gt = Tensor(np.array([[[[1.0, 1.0], [0.0, 0.0]]]]))
        val = float(view_loss(pre, gt).item())
        assert abs(val - (2.0 / 3.0 + math.log(2.0))) < 1e-9

    def test_perfect_prediction_near_zero(self):
        gt = np.array([[[[1.0, 0.0], [0.0, 1.0]]]])
        val = float(view_loss(Tensor(gt.copy()), Tensor(gt)).item())
        assert 0.0 <= val < 1e-6

    def test_matches_per_pixel_oracle(self):
        rng = rng_of(0)
        pre = rng.uniform(0.01, 0.99, size=(1, 1, 8, 8))
        gt = (rng.uniform(size=(1, 1, 8, 8)) > 0.6).astype(np.float64)
        val = float(view_loss(Tensor(pre.copy()), Tensor(gt)).item())

        inter = union = bce = 0.0
        for y, p in zip(gt.ravel(), pre.ravel()):
            pc = min(max(p, 1e-7), 1.0 - 1e-7)
            inter += y * p
            union += y + p - y * p
            bce += -(y * math.log(pc) + (1 - y) * math.log(1 - pc))
        expected = 1.0 - inter / union + bce / gt.size
        assert abs(val - expected) < 1e-10

    def test_non_binary_ground_truth_rejected(self):
        pre = Tensor(np.full((1, 1, 2, 2), 0.5))
        gt = Tensor(np.full((1, 1, 2, 2), 0.25))
        with pytest.raises(ValueError, match="binary"):
            view_loss(pre, gt)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            view_loss(Tensor(np.zeros((1, 1, 4, 4))), Tensor(np.zeros((1, 1, 2, 2))))

    def test_loss_nonnegative(self):
        rng = rng_of(1)
        for _ in range(20):
            pre = Tensor(rng.uniform(1e-4, 1 - 1e-4, size=(1, 1, 4, 4)))
            gt = Tensor((rng.uniform(size=(1, 1, 4, 4)) > 0.5).astype(np.float64))
            assert float(view_loss(pre, gt).item()) >= 0.0


class TestSolveWeights:
    def test_equal_losses_give_uniform(self):
        for lam in (0.1, 1.0, 7.3):
            w = solve_weights([0.4, 0.4, 0.4], lam).w
            np.testing.assert_array_equal(w, np.full(3, 1.0 / 3.0))

    def test_constant_shift_invariance(self):
        rng = rng_of(3)
        for _ in range(10):
            losses = rng.uniform(0.1, 2.0, 3)
            shift = rng.uniform(-5.0, 5.0)
            a = solve_weights(losses, 1.0).w
            b = solve_weights(losses + shift, 1.0).w
            np.testing.assert_allclose(a, b, atol=1e-12, rtol=0)

    def test_matches_brute_force_grid(self):
        rng = rng_of(4)
        for _ in range(5):
            losses = rng.uniform(0.05, 2.5, 3)
            for lam in (0.1, 1.0, 10.0):
                bf = helpers.brute_force_weights(losses, lam)
                cf = solve_weights(losses, lam).w
                np.testing.assert_allclose(cf, bf, atol=1e-3, rtol=0)

    def test_simplex_invariant(self):
        rng = rng_of(5)
        for _ in range(50):
            w = solve_weights(rng.uniform(0.0, 4.0, 3), float(rng.uniform(0.05, 20))).w
            assert abs(w.sum() - 1.0) <= 1e-9
            assert (w >= 0).all()

    def test_huge_losses_stay_finite(self):
        w = solve_weights([1e8, 2e8, 3e8], 1.0).w
        assert np.isfinite(w).all()
        assert abs(w.sum() - 1.0) <= 1e-9

    def test_lambda_must_be_positive(self):
        with pytest.raises(ValueError):
            solve_weights([1.0, 2.0, 3.0], 0.0)

    def test_overflowing_lambda_is_rejected_naming_lambda(self):
        """At lambda = 1e-310, -loss / lambda overflows to -inf and the max shift makes
        every weight NaN; NaN passes both the sum and the sign check."""
        with pytest.raises(ValueError, match="lambda"):
            solve_weights([0.7, 0.9, 1.1], 1e-310)

    @pytest.mark.parametrize("w", [np.full(3, np.nan), [np.inf, 0.0, 0.0], [np.nan, 0.5, 0.5]])
    def test_non_finite_weights_rejected(self, w):
        with pytest.raises(ValueError, match="lambda"):
            ViewWeights(w, 1.0)

    def test_smaller_loss_never_gets_smaller_weight(self):
        rng = rng_of(6)
        for _ in range(20):
            losses = rng.uniform(0.0, 3.0, 3)
            w = solve_weights(losses, 1.0).w
            order = np.argsort(losses)
            assert w[order[0]] >= w[order[1]] >= w[order[2]]


class TestTotalObjective:
    def test_uniform_golden(self):
        w = ViewWeights(np.full(3, 1.0 / 3.0), 1.0)
        val = total_objective(w, [1.0, 1.0, 1.0])
        assert abs(val - (1.0 + math.log(1.0 / 3.0))) < 1e-12

    def test_vertex_skips_entropy(self):
        w = ViewWeights(np.array([1.0, 0.0, 0.0]), 1.0)
        assert total_objective(w, [0.7, 5.0, 9.0]) == pytest.approx(0.7, abs=1e-15)

    def test_solver_output_beats_random_simplex_points(self):
        rng = rng_of(7)
        losses = rng.uniform(0.1, 2.0, 3)
        lam = 0.8
        best = total_objective(solve_weights(losses, lam), losses)
        for _ in range(1000):
            w = ViewWeights(helpers.random_simplex(rng), lam)
            assert best <= total_objective(w, losses) + 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        l1=st.floats(0.0, 5.0),
        l2=st.floats(0.0, 5.0),
        l3=st.floats(0.0, 5.0),
        lam=st.floats(0.05, 15.0),
    )
    def test_solver_optimality_property(self, l1, l2, l3, lam):
        losses = [l1, l2, l3]
        w = solve_weights(losses, lam)
        base = total_objective(w, losses)
        rng = rng_of(hash((l1, l2, l3)) & 0xFFFF)
        for _ in range(25):
            other = ViewWeights(helpers.random_simplex(rng), lam)
            assert base <= total_objective(other, losses) + 1e-10


class TestAdam:
    def test_zero_gradient_is_null_update(self):
        p = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        opt = Adam([p], lr=0.1)
        p.grad = np.zeros(3)
        before = p.data.copy()
        opt.step()
        np.testing.assert_array_equal(p.data, before)
        assert opt.step_count == 1

    def test_first_step_approximates_signed_lr(self):
        p = Tensor(np.array([0.0, 10.0, -4.0]), requires_grad=True)
        opt = Adam([p], lr=1e-2)
        p.grad = np.array([3.0, -0.5, 2.0])
        opt.step()
        expected = -1e-2 * np.sign([3.0, -0.5, 2.0])
        np.testing.assert_allclose(p.data - [0.0, 10.0, -4.0], expected, atol=1e-6)

    def test_ten_steps_match_reference_trace(self):
        # loss 0.5*||p - t||^2 on a fixed target, straight-line numpy Adam
        target = np.array([0.3, -1.2, 2.5, 0.0])
        p = Tensor(np.array([1.0, 1.0, 1.0, 1.0]), requires_grad=True)
        opt = Adam([p], lr=0.05)

        ref = np.array([1.0, 1.0, 1.0, 1.0])
        m = np.zeros(4)
        v = np.zeros(4)
        beta1, beta2, eps, lr = 0.9, 0.999, 1e-8, 0.05
        for step in range(1, 11):
            g = p.data - target
            p.grad = g.copy()
            opt.step()
            opt.zero_grad()

            g_ref = ref - target
            m = beta1 * m + (1 - beta1) * g_ref
            v = beta2 * v + (1 - beta2) * g_ref * g_ref
            mhat = m / (1 - beta1**step)
            vhat = v / (1 - beta2**step)
            ref = ref - lr * mhat / (np.sqrt(vhat) + eps)
            np.testing.assert_allclose(p.data, ref, atol=1e-10, rtol=0)

    def test_float32_steps_bitwise_equal_to_the_expression_form(self):
        rng = rng_of(7)
        p = Tensor(rng.standard_normal((5, 6)).astype(np.float32), requires_grad=True)
        opt = Adam([p], lr=3e-3)
        ref = p.data.copy()
        m = np.zeros_like(ref)
        v = np.zeros_like(ref)
        for step in range(1, 4):
            g = (rng.standard_normal(ref.shape) * 10.0 ** (step - 2)).astype(np.float32)
            p.grad = g
            opt.step()
            bc1, bc2 = 1.0 - 0.9**step, 1.0 - 0.999**step
            m += (1.0 - 0.9) * (g - m)
            v += (1.0 - 0.999) * (g * g - v)
            ref -= 3e-3 * (m / bc1) / (np.sqrt(v / bc2) + 1e-8)
            assert p.data.dtype == np.float32
            np.testing.assert_array_equal(p.data, ref)
            np.testing.assert_array_equal(opt.m[0], m)
            np.testing.assert_array_equal(opt.v[0], v)

    def test_step_holds_at_most_two_parameter_sized_temporaries(self):
        p = Tensor(rng_of(8).standard_normal((256, 512)).astype(np.float32), requires_grad=True)
        opt = Adam([p], lr=1e-3)
        p.grad = np.ones(p.shape, np.float32)
        _, peak = helpers.alloc_peak(opt.step)
        assert peak <= 2 * p.data.nbytes + 64 * 1024

    @pytest.mark.skipif(not Path("/proc/self/statm").is_file(), reason="needs /proc/self/statm")
    def test_moments_stay_uncommitted_zero_pages_until_the_first_step(self):
        def rss():
            return int(Path("/proc/self/statm").read_text().split()[1]) * os.sysconf("SC_PAGE_SIZE")

        p = Tensor(np.ones((4096, 4096), np.float32), requires_grad=True)  # 64 MB
        before = rss()
        opt = Adam([p], lr=1e-3)
        assert rss() - before < 8 * 2**20
        g = rng_of(9).standard_normal(p.shape).astype(np.float32)
        p.grad = g
        opt.step()
        m = np.zeros_like(g)
        m += (1.0 - 0.9) * (g - m)
        np.testing.assert_array_equal(opt.m[0], m)
        del m
        v = np.zeros_like(g)
        v += (1.0 - 0.999) * (g * g - v)
        np.testing.assert_array_equal(opt.v[0], v)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_gradient_is_refused_naming_the_parameter(self, bad):
        p = Tensor(np.ones(4, np.float32), requires_grad=True)
        opt = Adam([p], lr=0.1)
        p.grad = np.array([1.0, bad, 2.0, 3.0], np.float32)
        with pytest.raises(RuntimeError, match=r"parameter 'params\[0\]' is not finite"):
            opt.step()
        assert (p.data == 1.0).all() and not opt.m[0].any() and not opt.v[0].any()

    @pytest.mark.parametrize("dtype, big", [(np.float32, 1e19), (np.float64, 1e154)])
    def test_a_finite_gradient_whose_squared_norm_overflows_is_refused(self, dtype, big, recwarn):
        p = Tensor(np.ones(4, dtype), requires_grad=True)
        opt = Adam([p], lr=0.1)
        p.grad = np.full(4, big, dtype)
        assert np.isfinite(p.grad * p.grad).all()  # each square is finite; their sum is not
        name = np.dtype(dtype).name
        with pytest.raises(RuntimeError, match=f"squared norm overflows {name}; the update is"):
            opt.step()
        assert (p.data == 1.0).all() and not opt.m[0].any() and not opt.v[0].any()
        assert not recwarn.list  # the error is the one report

    def test_zero_grad_clears_accumulated(self):
        p = Tensor(np.ones(2), requires_grad=True)
        opt = Adam([p], lr=0.1)
        p.grad = np.ones(2)
        opt.zero_grad()
        assert p.grad is None


class TestTrainEpoch:
    def test_large_lambda_gives_uniform_weights(self):
        cfg = tiny_cfg()
        model = SegmentationModel(cfg)
        opt = Adam(model.parameters(), lr=cfg.lr)
        rep = train_epoch(model, opt, [tiny_batch(cfg)], lam=1e6)
        np.testing.assert_allclose(rep.weights, np.full(3, 1.0 / 3.0), atol=1e-3)
        for bw in rep.batch_weights:
            np.testing.assert_allclose(bw, np.full(3, 1.0 / 3.0), atol=1e-3)

    def test_small_lambda_is_winner_take_all(self):
        cfg = tiny_cfg()
        model = SegmentationModel(cfg)
        opt = Adam(model.parameters(), lr=cfg.lr)
        rep = train_epoch(model, opt, [tiny_batch(cfg)], lam=1e-6)
        assert rep.weights.max() > 1.0 - 1e-6
        assert rep.weights.argmax() == rep.losses.argmin()

    def test_weights_on_simplex_every_step(self):
        cfg = tiny_cfg()
        model = SegmentationModel(cfg)
        opt = Adam(model.parameters(), lr=cfg.lr)
        b = tiny_batch(cfg)
        for _ in range(3):
            rep = train_epoch(model, opt, [b, b], lam=1.0)
            for bw in rep.batch_weights:
                assert abs(bw.sum() - 1.0) <= 1e-9
                assert (bw >= 0).all()

    def test_weight_substep_is_exact_minimizer(self):
        # re-solving on the same losses cannot increase the objective
        cfg = tiny_cfg()
        model = SegmentationModel(cfg)
        opt = Adam(model.parameters(), lr=cfg.lr)
        rep = train_epoch(model, opt, [tiny_batch(cfg)], lam=1.0)
        solved = total_objective(solve_weights(rep.losses, 1.0), rep.losses)
        for other in (np.full(3, 1.0 / 3.0), np.array([0.6, 0.3, 0.1])):
            assert solved <= total_objective(ViewWeights(other, 1.0), rep.losses) + 1e-12

    def test_parameter_substep_reduces_objective_at_tiny_lr(self):
        cfg = tiny_cfg(lr=1e-6)
        model = SegmentationModel(cfg)
        opt = Adam(model.parameters(), lr=cfg.lr)
        batch = tiny_batch(cfg)
        first = train_epoch(model, opt, [batch], lam=1.0)
        second = train_epoch(model, opt, [batch], lam=1.0)
        obj_before = total_objective(ViewWeights(first.weights, 1.0), first.losses)
        obj_after = total_objective(ViewWeights(second.weights, 1.0), second.losses)
        assert obj_after <= obj_before + 1e-7

    def test_nan_loss_names_the_view(self):
        cfg = tiny_cfg()
        model = SegmentationModel(cfg)
        model.head_t.proj.bias.data[...] = np.nan
        opt = Adam(model.parameters(), lr=cfg.lr)
        with pytest.raises(RuntimeError, match="transformer"):
            train_epoch(model, opt, [tiny_batch(cfg)], lam=1.0)

    def test_nan_abort_releases_its_graph(self, monkeypatch):
        # the cyclic GC stays off: the aborted forward must go by refcount
        cfg = tiny_cfg()
        model = SegmentationModel(cfg)
        opt = Adam(model.parameters(), lr=cfg.lr)
        batch = tiny_batch(cfg)
        with helpers.cyclic_gc_disabled():
            with T.step() as tape:
                model(batch[0])
                step_nodes = len(tape)

            refs = []
            record = T._record

            def spy(op, inputs, backward_fn, out):
                refs.append(weakref.ref(out.data))
                record(op, inputs, backward_fn, out)

            monkeypatch.setattr(T, "_record", spy)
            bias = model.head_t.proj.bias.data
            saved = bias.copy()
            bias[...] = np.nan
            with pytest.raises(RuntimeError, match="non-finite"):
                train_epoch(model, opt, [batch], lam=1.0)
            monkeypatch.setattr(T, "_record", record)
            assert T._state.tape is None
            assert len(refs) > step_nodes
            assert [r for r in refs if r() is not None] == []

            bias[...] = saved
            with T.step() as tape:
                model(batch[0])
                assert len(tape) == step_nodes

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_updates_inside_backward_equal_backward_then_step_bitwise(self, dtype):
        cfg = tiny_cfg(dtype=np.dtype(dtype).name)
        images, masks = (Tensor(t.data.astype(dtype)) for t in tiny_batch(cfg))
        # a ChannelGate's fc1 and fc2 are shared: the avg- and the max-pooled descriptor
        # each take them through a matmul node of their own
        probe = SegmentationModel(cfg).eval()
        gate = next(m for _, m in probe.modules() if isinstance(m, ChannelGate))
        with T.step() as tape:
            probe(images)
            assert sum(src is gate.fc1.weight for n in tape.nodes for src in n.inputs) == 2

        fused, ref = SegmentationModel(cfg), SegmentationModel(cfg)
        fused_opt, ref_opt = Adam(fused.parameters(), lr=cfg.lr), Adam(ref.parameters(), lr=cfg.lr)
        train_epoch(fused, fused_opt, [(images, masks)] * 2, lam=1.0)
        for _ in range(2):
            with T.step():
                losses = [view_loss(pre, masks) for pre in ref(images)]
                w = solve_weights([float(lk.item()) for lk in losses], 1.0)
                T.backward(sum(lk * float(wk) for lk, wk in zip(losses, w.w)))
            ref_opt.step()
            ref_opt.zero_grad()
        assert fused_opt.step_count == ref_opt.step_count == 2
        assert all(p.grad is None for p in fused.parameters())
        fused_arrays = [p.data for p in fused.parameters()] + fused_opt.m + fused_opt.v
        ref_arrays = [p.data for p in ref.parameters()] + ref_opt.m + ref_opt.v
        assert len(fused_arrays) == len(ref_arrays)
        for got, want in zip(fused_arrays, ref_arrays):
            assert got.dtype == dtype
            np.testing.assert_array_equal(got, want)

    def test_empty_batches_rejected(self):
        cfg = tiny_cfg()
        model = SegmentationModel(cfg)
        opt = Adam(model.parameters(), lr=cfg.lr)
        with pytest.raises(ValueError):
            train_epoch(model, opt, [], lam=1.0)

    def test_epoch_weights_stored_on_model(self):
        cfg = tiny_cfg()
        model = SegmentationModel(cfg)
        opt = Adam(model.parameters(), lr=cfg.lr)
        rep = train_epoch(model, opt, [tiny_batch(cfg)], lam=1.0)
        np.testing.assert_array_equal(model.view_weights, rep.weights)


def random_views(rng, shape=(1, 1, 6, 6), dtype=np.float32):
    return ViewOutputs(
        Tensor(rng.uniform(0, 1, shape).astype(dtype)),
        Tensor(rng.uniform(0, 1, shape).astype(dtype)),
        Tensor(rng.uniform(0, 1, shape).astype(dtype)),
    )


class TestFuseDecision:
    def test_vertex_weight_returns_view_bitwise(self):
        outs = random_views(rng_of(8))
        for k in range(3):
            w = np.zeros(3)
            w[k] = 1.0
            fused = fuse_decision(ViewWeights(w, 1.0), outs)
            np.testing.assert_array_equal(fused.data, outs[k].data)

    def test_identical_views_are_fixed_point(self):
        rng = rng_of(9)
        base = rng.uniform(0, 1, (2, 1, 5, 5)).astype(np.float32)
        outs = ViewOutputs(Tensor(base.copy()), Tensor(base.copy()), Tensor(base.copy()))
        for w in (np.array([0.2, 0.5, 0.3]), helpers.random_simplex(rng)):
            fused = fuse_decision(ViewWeights(w, 1.0), outs)
            np.testing.assert_array_equal(fused.data, base)

    def test_matches_per_pixel_oracle(self):
        rng = rng_of(10)
        outs = random_views(rng, shape=(1, 1, 4, 4))
        w = helpers.random_simplex(rng)
        fused = fuse_decision(ViewWeights(w, 1.0), outs).data
        views = [v.data for v in outs]
        for i in range(4):
            for j in range(4):
                acc = 0.0
                for k in range(3):
                    acc += float(w[k]) * float(views[k][0, 0, i, j])
                assert fused[0, 0, i, j] == np.float32(acc)

    def test_envelope_property(self):
        rng = rng_of(11)
        for _ in range(20):
            outs = random_views(rng)
            w = helpers.random_simplex(rng)
            fused = fuse_decision(ViewWeights(w, 1.0), outs).data
            stack = np.stack([v.data for v in outs])
            assert (fused >= stack.min(axis=0)).all()
            assert (fused <= stack.max(axis=0)).all()

    def test_shape_mismatch_rejected(self):
        rng = rng_of(12)
        outs = ViewOutputs(
            Tensor(rng.uniform(0, 1, (1, 1, 4, 4))),
            Tensor(rng.uniform(0, 1, (1, 1, 4, 4))),
            Tensor(rng.uniform(0, 1, (1, 1, 2, 2))),
        )
        with pytest.raises(ShapeError):
            fuse_decision(ViewWeights(np.full(3, 1.0 / 3.0), 1.0), outs)

    def test_weights_must_be_valid(self):
        with pytest.raises(ValueError):
            ViewWeights(np.array([0.7, 0.2, 0.2]), 1.0)
        with pytest.raises(ValueError):
            ViewWeights(np.array([1.2, -0.1, -0.1]), 1.0)
        with pytest.raises(ValueError):
            ViewWeights(np.full(3, 1.0 / 3.0), -1.0)
