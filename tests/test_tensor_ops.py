"""Forward-path contracts of the tensor ops, checked against naive oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

import helpers
from coopseg import gradcheck
from coopseg import tensor as T
from coopseg.nn import Conv2d, Linear
from coopseg.tensor import ShapeError, Tensor


# ---------------------------------------------------------------------------
# Oracles: deliberately naive, loop-based reference implementations.
# ---------------------------------------------------------------------------


def matmul_oracle(a, b):
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for t in range(k):
                out[i, j] += a[i, t] * b[t, j]
    return out


def conv2d_oracle(x, kernel, padding):
    b, cin, h, w = x.shape
    cout, _, kh, kw = kernel.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = h + 2 * padding - kh + 1
    ow = w + 2 * padding - kw + 1
    out = np.zeros((b, cout, oh, ow))
    for bi in range(b):
        for co in range(cout):
            for i in range(oh):
                for j in range(ow):
                    acc = 0.0
                    for ci in range(cin):
                        for u in range(kh):
                            for v in range(kw):
                                acc += xp[bi, ci, i + u, j + v] * kernel[co, ci, u, v]
                    out[bi, co, i, j] = acc
    return out


def conv2d_grad_oracle(x, kernel, padding, g):
    """Input and kernel gradients of sum(conv2d(x, kernel) * g), one
    multiply-add per (output pixel, input channel, kernel tap)."""
    b, cin, h, w = x.shape
    cout, _, kh, kw = kernel.shape
    _, _, oh, ow = g.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    gxp = np.zeros_like(xp)
    gk = np.zeros_like(kernel)
    for bi in range(b):
        for co in range(cout):
            for i in range(oh):
                for j in range(ow):
                    for ci in range(cin):
                        for u in range(kh):
                            for v in range(kw):
                                gxp[bi, ci, i + u, j + v] += g[bi, co, i, j] * kernel[co, ci, u, v]
                                gk[co, ci, u, v] += g[bi, co, i, j] * xp[bi, ci, i + u, j + v]
    return gxp[:, :, padding : padding + h, padding : padding + w], gk


def softmax_oracle(row):
    ex = np.exp(row)
    return ex / ex.sum()


def norm_oracle(x, gamma, beta, eps=1e-5):
    # explicit two-pass: mean first, then variance
    mu = sum(x) / len(x)
    var = sum((v - mu) ** 2 for v in x) / len(x)
    return [(v - mu) / math.sqrt(var + eps) * g + b for v, g, b in zip(x, gamma, beta)]


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = T.matmul(a, Tensor(np.eye(2)))
        np.testing.assert_array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])

    def test_zeros_annihilate(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = T.matmul(a, Tensor(np.zeros((2, 3))))
        np.testing.assert_array_equal(out.data, np.zeros((2, 3)))

    def test_matches_triple_loop_oracle(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0, 6.0], [7.0, 8.0]])
        out = T.matmul(Tensor(a), Tensor(b))
        np.testing.assert_allclose(out.data, matmul_oracle(a, b), rtol=0, atol=0)

    @given(st.integers(2, 5), st.integers(2, 5), st.integers(2, 5), st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_random_matches_oracle(self, m, k, n, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.standard_normal((m, k)), rng.standard_normal((k, n))
        out = T.matmul(Tensor(a), Tensor(b))
        np.testing.assert_allclose(out.data, matmul_oracle(a, b), rtol=1e-12, atol=1e-12)

    def test_inner_mismatch_names_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 5\)"):
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("lead", [(3,), (2, 3)], ids=["2d", "3d"])
    def test_bias_matches_separate_add_bitwise(self, dtype, lead):
        rng = np.random.default_rng(16)
        a = rng.standard_normal(lead + (4,)).astype(dtype)
        w = rng.standard_normal((4, 5)).astype(dtype)
        b = rng.standard_normal(5).astype(dtype)
        g = rng.standard_normal(lead + (5,)).astype(dtype)
        chain = [Tensor(x, requires_grad=True) for x in (a, w, b)]
        fused = [Tensor(x, requires_grad=True) for x in (a, w, b)]
        with T.step():
            ref = T.matmul(chain[0], chain[1]) + chain[2]
            (ref * Tensor(g)).sum().backward()  # each backward spends its whole tape
            out = T.matmul(*fused)
            (out * Tensor(g)).sum().backward()
        assert out.dtype == dtype
        np.testing.assert_array_equal(out.data, ref.data)
        for x, c in zip(fused, chain):
            assert x.grad.dtype == dtype
            np.testing.assert_array_equal(x.grad, c.grad)

    def test_wrong_bias_shape_rejected(self):
        a, w = Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4)))
        for bias in (np.zeros(3), np.zeros((1, 4)), np.zeros((2, 4))):
            with pytest.raises(ShapeError, match="bias"):
                T.matmul(a, w, Tensor(bias))

    def test_biased_linear_module_records_one_tape_node(self):
        fc = Linear(3, 4, np.random.default_rng(17))
        with T.step() as tape:
            y = fc(Tensor(np.ones((2, 5, 3)), requires_grad=True))
            assert [n.op for n in tape.nodes] == ["matmul"]
            assert y.node.inputs[1] is fc.weight and y.node.inputs[2] is fc.bias


# ---------------------------------------------------------------------------
# conv2d
# ---------------------------------------------------------------------------


class TestConv2d:
    def test_1x1_scaling(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        k = Tensor(np.full((1, 1, 1, 1), 2.0))
        out = T.conv2d(x, k)
        np.testing.assert_array_equal(out.data, np.full((1, 1, 3, 3), 2.0))

    def test_padded_count_symmetry(self):
        x = Tensor(np.ones((1, 1, 4, 4)))
        k = Tensor(np.ones((1, 1, 3, 3)))
        out = T.conv2d(x, k).data[0, 0]
        assert out.shape == (4, 4)
        for i, j in [(0, 0), (0, 3), (3, 0), (3, 3)]:
            assert out[i, j] == 4.0
        for i, j in [(0, 1), (1, 0), (2, 3), (3, 2)]:
            assert out[i, j] == 6.0
        assert (out[1:3, 1:3] == 9.0).all()

    def test_random_matches_nested_loop_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 3, 5, 5))
        k = rng.standard_normal((4, 3, 3, 3))
        out = T.conv2d(Tensor(x), Tensor(k))
        np.testing.assert_allclose(out.data, conv2d_oracle(x, k, 1), rtol=1e-12, atol=1e-12)

    # each kernel size fixes the padding: k // 2 keeps the 5x5 input size
    @given(st.sampled_from([1, 3, 5]), st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_padding_combos_match_oracle(self, ksize, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((1, 2, 5, 5))
        k = rng.standard_normal((3, 2, ksize, ksize))
        out = T.conv2d(Tensor(x), Tensor(k))
        assert out.shape == (1, 3, 5, 5)
        np.testing.assert_allclose(out.data, conv2d_oracle(x, k, ksize // 2), rtol=1e-12, atol=1e-12)

    # the oracle pads by k // 2, as the op does
    @pytest.mark.parametrize("ksize,padding", [(1, 0), (3, 1), (7, 3)])
    def test_gradients_match_nested_loop_oracle(self, ksize, padding):
        rng = np.random.default_rng(100 + ksize + padding)
        x = rng.standard_normal((2, 3, 7, 6))
        k = rng.standard_normal((2, 3, ksize, ksize))
        tx, tk = Tensor(x, requires_grad=True), Tensor(k, requires_grad=True)
        with T.step():
            out = T.conv2d(tx, tk)
            g = rng.standard_normal(out.shape)
            (out * Tensor(g)).sum().backward()
        gx, gk = conv2d_grad_oracle(x, k, padding, g)
        np.testing.assert_allclose(tx.grad, gx, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(tk.grad, gk, rtol=1e-12, atol=1e-12)

    def test_input_without_grad_gets_no_input_gradient(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((2, 3, 5, 5))
        k = Tensor(rng.standard_normal((4, 3, 3, 3)), requires_grad=True)
        g = rng.standard_normal((2, 4, 5, 5))
        with T.step():
            gx, gk, _ = T.conv2d(Tensor(x), k).node.backward_fn(g)
            gx_live, gk_live, _ = T.conv2d(Tensor(x, requires_grad=True), k).node.backward_fn(g)
        assert gx is None
        assert gx_live.shape == x.shape
        np.testing.assert_array_equal(gk, gk_live)

    def test_even_kernel_rejected(self):
        with pytest.raises(ShapeError, match="odd"):
            T.conv2d(Tensor(np.ones((1, 1, 4, 4))), Tensor(np.ones((1, 1, 2, 2))))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bias_matches_separate_add_bitwise(self, dtype):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((2, 3, 5, 4)).astype(dtype)
        k = rng.standard_normal((4, 3, 3, 3)).astype(dtype)
        b = rng.standard_normal(4).astype(dtype)
        g = rng.standard_normal((2, 4, 5, 4)).astype(dtype)
        chain = [Tensor(a, requires_grad=True) for a in (x, k, b)]
        fused = [Tensor(a, requires_grad=True) for a in (x, k, b)]
        with T.step():
            ref = T.conv2d(chain[0], chain[1]) + T.reshape(chain[2], (1, -1, 1, 1))
            (ref * Tensor(g)).sum().backward()  # each backward spends its whole tape
            out = T.conv2d(*fused)
            (out * Tensor(g)).sum().backward()
        assert out.dtype == dtype
        np.testing.assert_array_equal(out.data, ref.data)
        for a, c in zip(fused, chain):
            np.testing.assert_array_equal(a.grad, c.grad)
        np.testing.assert_array_equal(fused[2].grad, g.sum(axis=(0, 2, 3)))

    def test_wrong_bias_shape_rejected(self):
        x, k = Tensor(np.ones((1, 2, 4, 4))), Tensor(np.ones((3, 2, 3, 3)))
        for bias in (np.zeros(2), np.zeros((1, 3, 1, 1))):
            with pytest.raises(ShapeError, match="bias"):
                T.conv2d(x, k, Tensor(bias))

    def test_biased_conv_module_records_one_tape_node(self):
        conv = Conv2d(2, 3, 3, np.random.default_rng(15))
        with T.step() as tape:
            y = conv(Tensor(np.ones((1, 2, 4, 4)), requires_grad=True))
            assert [n.op for n in tape.nodes] == ["conv2d"]
            assert y.node.inputs[1] is conv.weight and y.node.inputs[2] is conv.bias

    # the walk reads the backward closure the way the benchmark's saved-bytes count does
    @pytest.mark.parametrize("ksize", [1, 3])
    def test_backward_keeps_no_array_but_its_operands(self, ksize):
        rng = np.random.default_rng(16)
        operands = [
            Tensor(rng.standard_normal((2, 3, 5, 4)), requires_grad=True),
            Tensor(rng.standard_normal((4, 3, ksize, ksize)), requires_grad=True),
            Tensor(rng.standard_normal(4), requires_grad=True),
        ]
        with T.step():
            closure = T.conv2d(*operands).node.backward_fn.__closure__
        allowed = {id(t.data) for t in operands}
        for cell in closure:
            value = cell.cell_contents
            if isinstance(value, Tensor):
                assert any(value is t for t in operands)
            else:
                assert not isinstance(value, np.ndarray) or id(value) in allowed

    @pytest.mark.parametrize("ksize", [1, 3])
    def test_output_and_input_gradient_are_contiguous_nchw(self, ksize):
        rng = np.random.default_rng(17)
        x = Tensor(rng.standard_normal((2, 3, 5, 4)), requires_grad=True)
        with T.step():
            y = T.conv2d(x, Tensor(rng.standard_normal((4, 3, ksize, ksize))))
            gx, _, _ = y.node.backward_fn(rng.standard_normal((2, 4, 5, 4)))
        assert y.shape == (2, 4, 5, 4) and y.data.flags.c_contiguous
        assert gx.shape == (2, 3, 5, 4) and gx.flags.c_contiguous

    def test_float32_batch4_repeats_bitwise_and_matches_oracle(self):
        rng = np.random.default_rng(18)
        x = rng.standard_normal((4, 3, 6, 5))
        k = rng.standard_normal((2, 3, 3, 3))
        b = rng.standard_normal(2)
        g = rng.standard_normal((4, 2, 6, 5))

        def run():
            ts = [Tensor(a.astype(np.float32), requires_grad=True) for a in (x, k, b)]
            with T.step():
                out = T.conv2d(*ts)
                (out * Tensor(g.astype(np.float32))).sum().backward()
            return [out.data] + [t.grad for t in ts]

        first, second = run(), run()
        for a, c in zip(first, second):
            assert a.dtype == np.float32
            np.testing.assert_array_equal(a, c)
        gx, gk = conv2d_grad_oracle(x, k, 1, g)
        oracle = [conv2d_oracle(x, k, 1) + b[:, None, None], gx, gk, g.sum(axis=(0, 2, 3))]
        for a, want in zip(first, oracle):
            np.testing.assert_allclose(a, want, rtol=1e-5, atol=1e-5)

    def test_forward_holds_one_image_of_windows_at_a_time(self):
        rng = np.random.default_rng(19)
        x = Tensor(rng.standard_normal((4, 16, 32, 32)).astype(np.float32))
        k = Tensor(rng.standard_normal((8, 16, 3, 3)).astype(np.float32))
        out, peak = helpers.alloc_peak(lambda: T.conv2d(x, k))
        padded = 4 * 16 * 34 * 34 * 4
        one_image_windows = 16 * 9 * 32 * 32 * 4
        assert peak <= out.data.nbytes + padded + one_image_windows + 64 * 1024

    # each shape's one-image windows exceed the block budget: the forward and the input
    # gradient run in bands of rows and the kernel gradient in blocks of channels (at
    # (1, 40, 64, 64) float64 the 16-channel floor sets them)
    @pytest.mark.parametrize("xshape,cout,ksize,dtype", [
        ((1, 160, 88, 88), 64, 3, np.float32),
        ((2, 64, 44, 44), 64, 3, np.float32),
        ((1, 40, 64, 64), 24, 3, np.float64),
        ((1, 2, 160, 160), 3, 7, np.float32),
    ])
    def test_blocked_windows_equal_whole_window_gemms_bitwise(self, xshape, cout, ksize, dtype):
        rng = np.random.default_rng(21)
        b, cin, h, w = xshape
        x = rng.standard_normal(xshape).astype(dtype)
        k = rng.standard_normal((cout, cin, ksize, ksize)).astype(dtype)
        g = rng.standard_normal((b, cout, h, w)).astype(dtype)
        assert cin * ksize * ksize * h * w * x.itemsize > T.WINDOW_BLOCK_BYTES
        with T.step():
            out = T.conv2d(Tensor(x, requires_grad=True), Tensor(k))
            gx, gk, _ = out.node.backward_fn(g)

        def windows(a):  # every image's windows at once, each a contiguous (C*kh*kw) x (H*W)
            p = ksize // 2
            a = np.pad(a, ((0, 0), (0, 0), (p, p), (p, p)))
            view = np.lib.stride_tricks.sliding_window_view(a, (ksize, ksize), axis=(2, 3))
            return view.transpose(0, 1, 4, 5, 2, 3).reshape(b, -1, h * w)

        cols = windows(x)
        np.testing.assert_array_equal(out.data, np.stack([k.reshape(cout, -1) @ c for c in cols])
                                      .reshape(out.shape))
        np.testing.assert_array_equal(gk, sum(gi @ c.T for gi, c in zip(g.reshape(b, cout, -1), cols))
                                      .reshape(k.shape))
        k_flip = k[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(cin, -1)
        np.testing.assert_array_equal(gx, np.stack([k_flip @ c for c in windows(g)]).reshape(xshape))

    # a block budget of a few bytes splits even small maps: every row its own band, the
    # kernel gradient in channel blocks of 16 or more
    @given(b=st.integers(1, 2), cin=st.integers(1, 40), cout=st.integers(1, 4),
           h=st.integers(1, 7), w=st.integers(1, 7), ksize=st.sampled_from([1, 3, 5]),
           block_bytes=st.integers(1, 4096), f32=st.booleans(), seed=st.integers(0, 2**16))
    @settings(max_examples=200, deadline=None)
    def test_blocked_windows_match_whole_window_on_small_shapes(self, b, cin, cout, h, w, ksize,
                                                                block_bytes, f32, seed):
        dtype = np.float32 if f32 else np.float64
        rng = np.random.default_rng(seed)
        x, k, bias, g = (rng.standard_normal(shape).astype(dtype) for shape in
                         [(b, cin, h, w), (cout, cin, ksize, ksize), (cout,), (b, cout, h, w)])

        def run():
            with T.step():
                out = T.conv2d(Tensor(x, requires_grad=True), Tensor(k, requires_grad=True),
                               Tensor(bias, requires_grad=True))
                return [out.data, *out.node.backward_fn(g)]

        whole = run()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(T, "WINDOW_BLOCK_BYTES", block_bytes)
            blocked = run()
        # equal sums, but BLAS may order a split GEMM's products differently: within
        # about 100 units in the last place of each array's largest entry
        tol = 1e-5 if f32 else 1e-13
        for got, want in zip(blocked, whole):
            assert got.dtype == want.dtype == dtype
            np.testing.assert_allclose(got, want, rtol=0, atol=tol * np.abs(want).max())

    def test_finite_differences_pass_through_split_blocks(self, monkeypatch):
        split = []

        def spy(count, *args, real=T._blocks, **kwargs):
            bounds = real(count, *args, **kwargs)
            split.append((count, len(bounds) - 1))
            return bounds

        monkeypatch.setattr(T, "WINDOW_BLOCK_BYTES", 1)
        monkeypatch.setattr(T, "_blocks", spy)
        rng = np.random.default_rng(23)
        x, k, bias = (Tensor(rng.standard_normal(shape), requires_grad=True)
                      for shape in [(2, 32, 5, 4), (3, 32, 3, 3), (3,)])
        weights = Tensor(rng.standard_normal((2, 3, 5, 4)))
        err = gradcheck.check_function(lambda: (T.conv2d(x, k, bias) * weights).sum(),
                                       [x, k, bias], rng)
        assert err < gradcheck.TOL_DEFAULT
        assert (5, 5) in split  # forward and input gradient: one band per row
        assert (32, 2) in split  # kernel gradient: two blocks of 16 channels

    def test_1x1_windows_are_the_input_not_a_copy(self, monkeypatch):
        """The GLFF projections and the view heads are 1x1 convs: a forward band and a
        kernel-gradient channel block of their windows are views of the input, however
        small the block budget."""
        monkeypatch.setattr(T, "WINDOW_BLOCK_BYTES", 1)
        x = np.random.default_rng(24).standard_normal((2, 32, 6, 5)).astype(np.float32)
        win = T._im2col(x, 1, 1)
        (r0, r1), (c0, c1) = T._blocks(6, 32 * 5, x.dtype, 1), T._blocks(32, 30, x.dtype, 1, least=16)
        assert (r0, r1, c0, c1) == (0, 6, 0, 32)
        assert np.shares_memory(T._gather(win[1][..., r0:r1, :]), x)
        assert np.shares_memory(T._gather(win[1][c0:c1]), x)
        assert not np.shares_memory(T._gather(T._im2col(x, 3, 3)[1][..., 0:3, :]), x)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_blocked_windows_hold_one_block_at_a_time(self, monkeypatch, workers):
        """Per thread: with two workers the pool's half of the bands, or the input
        gradient beside the kernel gradient, holds one more block and padded array."""
        helpers.set_workers(monkeypatch, workers)
        rng = np.random.default_rng(22)
        x = Tensor(rng.standard_normal((1, 160, 64, 64)).astype(np.float32), requires_grad=True)
        k = Tensor(rng.standard_normal((64, 160, 3, 3)).astype(np.float32))
        padded = 160 * 66 * 66 * 4  # the input's; the upstream gradient's, 64 * 66 * 66 * 4, is smaller
        # the whole image's windows are 23.6 MB; the kernel-sized slack holds the flipped kernel
        bound = workers * (padded + T.WINDOW_BLOCK_BYTES) + k.data.nbytes + 256 * 1024
        with T.step():
            out, peak = helpers.alloc_peak(lambda: T.conv2d(x, k))
            assert peak <= out.data.nbytes + bound
            g = rng.standard_normal(out.shape).astype(np.float32)
            grads, peak = helpers.alloc_peak(lambda: out.node.backward_fn(g))
        assert peak <= sum(a.nbytes for a in grads if a is not None) + bound

    def test_batch4_equals_four_batch1_calls_bitwise(self):
        rng = np.random.default_rng(20)
        x = rng.standard_normal((4, 5, 9, 7)).astype(np.float32)
        k = rng.standard_normal((6, 5, 3, 3)).astype(np.float32)
        b = rng.standard_normal(6).astype(np.float32)
        g = rng.standard_normal((4, 6, 9, 7)).astype(np.float32)

        def run(xs, gs):
            ts = [Tensor(a, requires_grad=True) for a in (xs, k, b)]
            with T.step():
                out = T.conv2d(*ts)
                (out * Tensor(gs)).sum().backward()
            return out.data, ts[0].grad, ts[1].grad, ts[2].grad

        out, gx, gk, gb = run(x, g)
        singles = [run(x[n : n + 1], g[n : n + 1]) for n in range(4)]
        np.testing.assert_array_equal(out, np.concatenate([s[0] for s in singles]))
        np.testing.assert_array_equal(gx, np.concatenate([s[1] for s in singles]))
        # the batch sums the per-image kernel and bias gradients in image order
        for got, idx in ((gk, 2), (gb, 3)):
            want = singles[0][idx]
            for s in singles[1:]:
                want = want + s[idx]
            np.testing.assert_array_equal(got, want)


# ---------------------------------------------------------------------------
# softmax
# ---------------------------------------------------------------------------


class TestSoftmax:
    def test_symmetry(self):
        out = T.softmax_lastdim(Tensor([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)

    def test_exponentials_cancel(self):
        out = T.softmax_lastdim(Tensor([math.log(1), math.log(2), math.log(3)]))
        np.testing.assert_allclose(out.data, [1 / 6, 1 / 3, 1 / 2], atol=1e-15)

    @given(st.integers(0, 2**31 - 1), st.integers(2, 9))
    @settings(max_examples=25, deadline=None)
    def test_random_matches_formula_oracle(self, seed, n):
        row = np.random.default_rng(seed).standard_normal(n)
        out = T.softmax_lastdim(Tensor(row))
        np.testing.assert_allclose(out.data, softmax_oracle(row), atol=1e-12, rtol=0)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_rows_sum_to_one_and_positive(self, seed):
        x = np.random.default_rng(seed).standard_normal((4, 7)) * 50
        out = T.softmax_lastdim(Tensor(x)).data
        np.testing.assert_allclose(out.sum(axis=-1), np.ones(4), atol=1e-12, rtol=0)
        assert (out > 0).all()

    def test_huge_logits_no_overflow(self):
        out = T.softmax_lastdim(Tensor([1000.0, 1000.0, -1000.0])).data
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out[:2], [0.5, 0.5], atol=1e-12)


# ---------------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------------


class TestAttention:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("d", [16, 64])
    def test_output_and_gradients_equal_the_composed_chain_bitwise(self, dtype, d):
        rng = np.random.default_rng(30 + d)
        b, h, n = 2, 3, 7
        arrays = [rng.standard_normal((b, h, n, d)).astype(dtype) for _ in range(3)]
        g = rng.standard_normal((b, n, h * d)).astype(dtype)

        def composed(q, k, v):
            logits = (q * (1.0 / math.sqrt(d))) @ T.transpose(k, (0, 1, 3, 2))
            mixed = T.softmax_lastdim(logits) @ v
            return T.reshape(T.transpose(mixed, (0, 2, 1, 3)), (b, n, h * d))

        results = []
        for fn in (composed, T.attention):
            qkv = [Tensor(a, requires_grad=True) for a in arrays]
            with T.step():
                out = fn(*qkv)
                (out * Tensor(g)).sum().backward()
            results.append([out.data] + [t.grad for t in qkv])
        for ref, new in zip(*results):
            assert new.dtype == dtype
            np.testing.assert_array_equal(new, ref)

    def test_backward_keeps_its_operands_and_no_other_array(self):
        # the softmax rows are rebuilt from q and k, not saved
        rng = np.random.default_rng(34)
        qkv = [Tensor(rng.standard_normal((2, 2, 5, 4)), requires_grad=True) for _ in range(3)]
        with T.step():
            node = T.attention(*qkv).node
            values = helpers.closure_values(node)
        assert not [v for v in values if isinstance(v, Tensor)]
        arrays = [v for v in values if isinstance(v, np.ndarray)]
        assert sorted(map(id, arrays)) == sorted(id(t.data) for t in qkv)
        assert all(t is u for t, u in zip(node.inputs, qkv))

    @pytest.mark.parametrize(
        "shapes",
        [
            [(2, 5, 4)] * 3,
            [(1, 2, 5, 4), (1, 2, 6, 4), (1, 2, 5, 4)],
            [(1, 2, 5, 4), (1, 2, 5, 4), (1, 2, 5, 3)],
        ],
    )
    def test_mismatched_operands_raise(self, shapes):
        with pytest.raises(ShapeError):
            T.attention(*(Tensor(np.ones(s)) for s in shapes))


def _mlp_chain(x, w1, b1, w2, b2):
    return T.matmul(T.gelu(T.matmul(x, w1, b1)), w2, b2)


class TestMlp:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("lead", [(7,), (2, 5)])
    def test_output_and_gradients_equal_the_composed_chain_bitwise(self, dtype, lead):
        rng = np.random.default_rng(40 + len(lead))
        arrays = [(rng.standard_normal(s) * 2).astype(dtype) for s in (lead + (6,), (6, 24), (24,), (24, 6), (6,))]
        g = rng.standard_normal(lead + (6,)).astype(dtype)
        results = []
        for fn in (_mlp_chain, T.mlp):
            ts = [Tensor(a, requires_grad=True) for a in arrays]
            with T.step():
                out = fn(*ts)
                (out * Tensor(g)).sum().backward()
            results.append([out.data] + [t.grad for t in ts])
        for ref, new in zip(*results):
            assert new.dtype == dtype
            np.testing.assert_array_equal(new, ref)

    def test_backward_keeps_its_input_and_the_hidden_pre_activation(self):
        rng = np.random.default_rng(42)
        ts = [Tensor(rng.standard_normal(s), requires_grad=True) for s in ((2, 5, 6), (6, 24), (24,), (24, 6), (6,))]
        with T.step():
            node = T.mlp(*ts).node
            values = helpers.closure_values(node)
        assert node.op == "mlp" and all(t is u for t, u in zip(node.inputs, ts))
        assert not [v for v in values if isinstance(v, Tensor)]
        arrays = [v for v in values if isinstance(v, np.ndarray)]
        # x and the two weight matrices, by identity; of the biases only the shapes
        operands = [a for a in arrays if any(a is t.data for t in ts)]
        assert sorted(map(id, operands)) == sorted(id(ts[i].data) for i in (0, 1, 3))
        hidden = [a for a in arrays if not any(a is t.data for t in ts)]
        assert [a.shape for a in hidden] == [(2, 5, 24)]
        np.testing.assert_array_equal(hidden[0], ts[0].data @ ts[1].data + ts[2].data)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_forward_allocates_h_its_output_and_a_gelu_half_per_thread(self, monkeypatch, workers):
        # paper geometry at batch 4: 484 tokens, d_model 384, hidden 1536
        helpers.set_workers(monkeypatch, workers)
        rng = np.random.default_rng(43)
        shapes = ((4, 484, 384), (384, 1536), (1536,), (1536, 384), (384,))
        ts = [Tensor((rng.standard_normal(s) * 0.05).astype(np.float32)) for s in shapes]
        out_chain, peak_chain = helpers.alloc_peak(lambda: _mlp_chain(*ts))
        out, peak = helpers.alloc_peak(lambda: T.mlp(*ts))
        np.testing.assert_array_equal(out.data, out_chain.data)
        # the chain peaks at two hidden-sized arrays, h and the CDF, whose array numpy
        # reuses for the GELU product. The op holds h, which its tape node keeps, and its
        # output, and each half of the rows its GELU output: one half at a time on one
        # worker, 1.75 hidden arrays, below the chain; both at once on two, 2.25. The op's
        # closure cells and a fork's future add some tens of KB of Python objects
        hidden = 4 * 484 * 1536 * 4
        assert 2 * hidden <= peak_chain < 2 * hidden + 64 * 1024
        assert peak <= hidden + out.data.nbytes + workers * hidden // 2 + 64 * 1024
        if workers == 1:
            assert peak <= peak_chain + 1024

    @pytest.mark.parametrize(
        "shapes",
        [
            [(6,), (6, 24), (24,), (24, 6), (6,)],
            [(3, 6), (5, 24), (24,), (24, 6), (6,)],
            [(3, 6), (6, 24), (24,), (23, 6), (6,)],
            [(3, 6), (6, 24), (6,), (24, 6), (6,)],
            [(3, 6), (6, 24), (24,), (24, 6), (24,)],
        ],
    )
    def test_mismatched_operands_raise(self, shapes):
        with pytest.raises(ShapeError, match="mlp"):
            T.mlp(*(Tensor(np.ones(s)) for s in shapes))


# ---------------------------------------------------------------------------
# upsample / avgpool
# ---------------------------------------------------------------------------


class TestResampling:
    def test_block_replication(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2))
        out = T.upsample2x_nearest(x).data[0, 0]
        expected = [[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]]
        np.testing.assert_array_equal(out, expected)

    def test_constant_preserved(self):
        x = Tensor(np.full((2, 3, 4, 5), 0.7))
        out = T.upsample2x_nearest(x)
        assert out.shape == (2, 3, 8, 10)
        assert (out.data == 0.7).all()

    def test_upsample_backward_all_fours(self):
        x = Tensor(np.random.default_rng(0).standard_normal((1, 2, 3, 3)), requires_grad=True)
        with T.step():
            T.upsample2x_nearest(x).sum().backward()
        np.testing.assert_array_equal(x.grad, np.full((1, 2, 3, 3), 4.0))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_avgpool_inverts_upsample_exactly(self, seed):
        x = np.random.default_rng(seed).standard_normal((2, 3, 4, 5))
        back = T.avgpool2x(T.upsample2x_nearest(Tensor(x))).data
        np.testing.assert_array_equal(back, x)

    def test_avgpool_odd_dims_rejected(self):
        with pytest.raises(ShapeError, match="even"):
            T.avgpool2x(Tensor(np.ones((1, 1, 3, 4))))


# ---------------------------------------------------------------------------
# concat / elementwise
# ---------------------------------------------------------------------------


class TestConcatElementwise:
    def test_concat_single_identity(self):
        x = np.random.default_rng(1).standard_normal((2, 3, 4, 4))
        np.testing.assert_array_equal(T.concat_channels([Tensor(x)]).data, x)

    def test_concat_channel_arithmetic_and_split(self):
        rng = np.random.default_rng(2)
        a, b = rng.standard_normal((2, 3, 4, 4)), rng.standard_normal((2, 5, 4, 4))
        out = T.concat_channels([Tensor(a), Tensor(b)])
        assert out.shape[1] == 3 + 5
        np.testing.assert_array_equal(out.data[:, :3], a)
        np.testing.assert_array_equal(out.data[:, 3:], b)

    def test_concat_spatial_mismatch(self):
        with pytest.raises(ShapeError, match="spatial"):
            T.concat_channels([Tensor(np.ones((1, 2, 4, 4))), Tensor(np.ones((1, 2, 5, 4)))])

    def test_elementwise_identities(self):
        x = np.random.default_rng(3).standard_normal((3, 4))
        np.testing.assert_array_equal(T.elementwise(Tensor(x), Tensor(np.zeros((3, 4))), "add").data, x)
        np.testing.assert_array_equal(T.elementwise(Tensor(x), Tensor(np.ones((3, 4))), "mul").data, x)

    def test_elementwise_commutes(self):
        rng = np.random.default_rng(4)
        a, b = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
        np.testing.assert_array_equal(
            T.elementwise(Tensor(a), Tensor(b), "add").data,
            T.elementwise(Tensor(b), Tensor(a), "add").data,
        )

    def test_elementwise_rejects_broadcast(self):
        with pytest.raises(ShapeError):
            T.elementwise(Tensor(np.ones((3, 4))), Tensor(np.ones(4)), "add")


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------


class TestActivations:
    def test_fixed_points(self):
        assert T.gelu(Tensor([0.0])).data[0] == 0.0
        assert T.sigmoid(Tensor([0.0])).data[0] == 0.5
        assert T.relu(Tensor([-1.0])).data[0] == 0.0

    @pytest.mark.parametrize("op", [T.relu, lambda t: T.clip(t, -0.5, 0.5)], ids=["relu", "clip"])
    def test_an_op_that_records_nothing_allocates_only_its_output(self, op):
        """The backward mask, one byte per element, is made only when the op records."""
        x = Tensor(np.random.default_rng(36).standard_normal((64, 1024)), requires_grad=True)
        with T.step():
            with T.no_grad():
                out, peak = helpers.alloc_peak(lambda: op(x))
            assert out.node is None and peak < out.data.nbytes + 4096
            recorded, peak = helpers.alloc_peak(lambda: op(x))
            assert recorded.node is not None and peak >= out.data.nbytes + x.size

    def test_gelu_saturates(self):
        assert abs(T.gelu(Tensor([10.0])).data[0] - 10.0) < 1e-6

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_gelu_matches_erf_oracle(self, seed):
        x = np.random.default_rng(seed).standard_normal(64) * 3
        expected = x * 0.5 * (1.0 + special.erf(x / math.sqrt(2.0)))
        np.testing.assert_allclose(T.gelu(Tensor(x)).data, expected, atol=1e-12, rtol=0)

    def test_gelu_gradient_equals_the_saved_cdf_formula_bitwise(self):
        rng = np.random.default_rng(35)
        for dtype in (np.float32, np.float64):
            x = (rng.standard_normal((6, 40)) * 3).astype(dtype)
            g = rng.standard_normal((6, 40)).astype(dtype)
            xt = Tensor(x, requires_grad=True)
            with T.step():
                (T.gelu(xt) * Tensor(g)).sum().backward()
            cdf = 0.5 * (1.0 + special.erf(x * (1.0 / math.sqrt(2.0))))
            pdf = np.exp(-0.5 * x * x) * (1.0 / math.sqrt(2.0 * math.pi))
            np.testing.assert_array_equal(xt.grad, g * (cdf + x * pdf))

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_normal_cdf_is_the_erf_expression_computed_in_its_output(self, monkeypatch,
                                                                     dtype, workers):
        """The bits of 0.5 * (1 + erf(x / sqrt 2)), ±0, ±inf and NaN included, with the
        output the only array it allocates (paper-geometry MLP hidden size, batch 4). The
        pool's task objects and the halves' closures add a few KB of Python objects."""
        helpers.set_workers(monkeypatch, workers)
        x = (np.random.default_rng(39).standard_normal((4, 484, 1536)) * 3).astype(dtype)
        x.reshape(-1)[:6] = [np.nan, np.inf, -np.inf, -0.0, 0.0, 40.0]
        out, peak = helpers.alloc_peak(lambda: T._normal_cdf(x))
        ref = 0.5 * (1.0 + special.erf(x * (1.0 / math.sqrt(2.0))))
        assert out.dtype == dtype and out.tobytes() == ref.tobytes()
        assert peak <= out.nbytes + 16 * 1024

    @pytest.mark.parametrize("layout", ["transposed", "fortran", "strided"])
    def test_gelu_of_a_non_c_ordered_input_equals_the_contiguous_result(self, layout):
        """The CDF's output is C-ordered whatever the input's layout, so its flat view is
        the array itself: forward and gradient are those of the contiguous input."""
        rng = np.random.default_rng(37)
        base = rng.standard_normal((40, 6, 30)) * 3
        g = rng.standard_normal((6, 40, 15))
        x = {"transposed": base[:, :, :15].transpose(1, 0, 2),
             "fortran": np.asfortranarray(base[:, :, :15].transpose(1, 0, 2)),
             "strided": base[:, :, ::2].transpose(1, 0, 2)}[layout]
        assert not x.flags.c_contiguous
        results = []
        for data in (x, np.ascontiguousarray(x)):
            xt = Tensor(data, requires_grad=True)
            with T.step():
                out = T.gelu(xt)
                (out * Tensor(g)).sum().backward()
            results.append((out.data, xt.grad))
        for got, ref in zip(*results):
            assert got.tobytes() == ref.tobytes()
        cdf = T._normal_cdf(x)
        assert cdf.flags.c_contiguous and cdf.tobytes() == T._normal_cdf(np.ascontiguousarray(x)).tobytes()

    def test_gelu_backward_keeps_no_array_but_its_input(self):
        x = Tensor(np.random.default_rng(36).standard_normal((4, 9)), requires_grad=True)
        with T.step():
            values = helpers.closure_values(T.gelu(x).node)
        assert all(v is x.data for v in values if isinstance(v, np.ndarray))

    def test_sigmoid_extremes_finite(self):
        out = T.sigmoid(Tensor([-1000.0, 1000.0])).data
        assert np.isfinite(out).all()
        assert out[0] == 0.0 and out[1] == 1.0

    @staticmethod
    def _two_branch_sigmoid(x):
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_equals_the_two_branch_form_bitwise(self, dtype):
        """One expression over e^-|x| gives the bits of 1 / (1 + e^-x) on x >= 0 and
        e^x / (1 + e^x) below, ±0, ±inf and either sign of NaN included."""
        rng = np.random.default_rng(37)
        edge = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e-300, -1e-300,
                         800.0, -800.0, 88.7, -88.7, 1e-45, -1e-45], dtype)
        cases = [np.array(v, dtype) for v in edge]
        for shape in [(16,), (3, 5), (2, 3, 17, 19), (4, 1, 352, 352)]:
            x = (rng.standard_normal(shape) * 30).astype(dtype)
            x.reshape(-1)[: edge.size] = edge
            cases.append(x)
        for x in cases:
            out = T.sigmoid(Tensor(x)).data
            ref = self._two_branch_sigmoid(x)
            assert out.dtype == ref.dtype and out.shape == ref.shape
            assert out.tobytes() == ref.tobytes()

    def test_sigmoid_transient_peak_below_two_and_a_half_inputs(self):
        """e, the output and the x >= 0 mask: 2.25 inputs at float32 (the masked
        gathers took 2.75)."""
        x = Tensor(np.random.default_rng(38).standard_normal((4, 1, 352, 352)).astype(np.float32))
        _, peak = helpers.alloc_peak(lambda: T.sigmoid(x))
        assert peak <= 2.5 * x.data.nbytes


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


class TestNorms:
    def test_layernorm_already_normalized(self):
        # zero-mean unit-variance rows pass through up to the eps shrinkage
        x = np.array([[1.0, -1.0, 1.0, -1.0], [2.0, 0.0, -2.0, 0.0]])
        x = (x - x.mean(axis=-1, keepdims=True)) / x.std(axis=-1, keepdims=True)
        out = T.layernorm_lastdim(Tensor(x), Tensor(np.ones(4)), Tensor(np.zeros(4)))
        np.testing.assert_allclose(out.data, x, atol=1e-4)

    def test_layernorm_gamma_zero(self):
        x = np.random.default_rng(5).standard_normal((3, 6))
        beta = np.random.default_rng(6).standard_normal(6)
        out = T.layernorm_lastdim(Tensor(x), Tensor(np.zeros(6)), Tensor(beta))
        np.testing.assert_allclose(out.data, np.broadcast_to(beta, (3, 6)), atol=1e-15)

    @given(st.integers(0, 2**31 - 1), st.integers(2, 9))
    @settings(max_examples=25, deadline=None)
    def test_layernorm_matches_two_pass_oracle(self, seed, d):
        rng = np.random.default_rng(seed)
        x, g, b = rng.standard_normal(d), rng.standard_normal(d), rng.standard_normal(d)
        out = T.layernorm_lastdim(Tensor(x), Tensor(g), Tensor(b)).data
        np.testing.assert_allclose(out, norm_oracle(list(x), list(g), list(b)), atol=1e-10, rtol=0)

    def test_batchnorm_train_matches_two_pass_oracle(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((2, 3, 4, 4))
        g, b = rng.standard_normal(3), rng.standard_normal(3)
        rm, rv = np.zeros(3), np.ones(3)
        out = T.batchnorm_channel(Tensor(x), Tensor(g), Tensor(b), rm, rv, training=True).data
        for c in range(3):
            vals = list(x[:, c].ravel())
            expected = norm_oracle(vals, [g[c]] * len(vals), [b[c]] * len(vals))
            np.testing.assert_allclose(out[:, c].ravel(), expected, atol=1e-10, rtol=0)

    def test_batchnorm_running_stats_update_and_eval(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((4, 2, 3, 3)) * 2 + 1
        g, b = np.ones(2), np.zeros(2)
        rm, rv = np.zeros(2), np.ones(2)
        T.batchnorm_channel(Tensor(x), Tensor(g), Tensor(b), rm, rv, training=True)
        mu = x.mean(axis=(0, 2, 3))
        n = x.size // 2
        var_unbiased = x.var(axis=(0, 2, 3)) * n / (n - 1)
        np.testing.assert_allclose(rm, 0.1 * mu, atol=1e-12)
        np.testing.assert_allclose(rv, 0.9 * 1.0 + 0.1 * var_unbiased, atol=1e-12)
        # eval mode must use the running buffers, not batch stats
        out = T.batchnorm_channel(Tensor(x), Tensor(g), Tensor(b), rm, rv, training=False).data
        expected = (x - rm.reshape(1, 2, 1, 1)) / np.sqrt(rv.reshape(1, 2, 1, 1) + 1e-5)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_gamma_length_checked(self):
        with pytest.raises(ShapeError):
            T.layernorm_lastdim(Tensor(np.ones((2, 5))), Tensor(np.ones(4)), Tensor(np.zeros(5)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", ["layernorm", "batchnorm_train", "batchnorm_eval"])
    def test_output_and_gradients_equal_the_closed_forms_bitwise(self, case, dtype):
        # the closed forms written out op by op, in the order the norms evaluate them
        rng = np.random.default_rng(23)
        shape, axis, stat_axes = {
            "layernorm": ((2, 5, 8), -1, -1),
            "batchnorm_train": ((2, 3, 4, 5), 1, (0, 2, 3)),
            "batchnorm_eval": ((2, 3, 4, 5), 1, (0, 2, 3)),
        }[case]
        c = shape[axis]
        x, g = (rng.standard_normal(shape).astype(dtype) for _ in range(2))
        gamma, beta = (rng.standard_normal(c).astype(dtype) for _ in range(2))
        rm, rv = rng.standard_normal(c), 0.5 + rng.random(c)
        pshape = [1] * len(shape)
        pshape[axis] = c
        param_axes = tuple(i for i in range(len(shape)) if i != axis % len(shape))
        if case == "batchnorm_eval":
            mu, var = rm.astype(dtype).reshape(pshape), rv.astype(dtype).reshape(pshape)
        else:
            mu, var = x.mean(axis=stat_axes, keepdims=True), x.var(axis=stat_axes, keepdims=True)
        inv = 1.0 / np.sqrt(var + T.NORM_EPS)
        gamma_b, beta_b = gamma.reshape(pshape), beta.reshape(pshape)
        xhat = (x - mu) * inv
        gxhat = g * gamma_b
        if case == "batchnorm_eval":
            gx = gxhat * inv
        else:
            gx = inv * (
                gxhat
                - gxhat.mean(axis=stat_axes, keepdims=True)
                - xhat * (gxhat * xhat).mean(axis=stat_axes, keepdims=True)
            )
        expected = (xhat * gamma_b + beta_b, gx, (g * xhat).sum(axis=param_axes), g.sum(axis=param_axes))

        xt, gt, bt = (Tensor(a, requires_grad=True) for a in (x, gamma, beta))
        with T.step():
            if case == "layernorm":
                out = T.layernorm_lastdim(xt, gt, bt)
            else:
                out = T.batchnorm_channel(xt, gt, bt, rm.copy(), rv.copy(), training=case == "batchnorm_train")
            got = (out.data, *out.node.backward_fn(g))
        for e, a in zip(expected, got):
            assert a.dtype == dtype
            np.testing.assert_array_equal(a, e)


@pytest.mark.parametrize("name", ["batchnorm_train", "batchnorm_eval", "layernorm", "softmax"])
def test_forward_allocates_little_beyond_its_output(name):
    rng = np.random.default_rng(21)

    def f32(*shape):
        return Tensor(rng.standard_normal(shape).astype(np.float32))

    x4, g16, b16 = f32(4, 16, 32, 32), f32(16), f32(16)
    x3, g96, b96 = f32(4, 256, 96), f32(96), f32(96)
    scores = f32(4, 4, 128, 128)
    forward = {
        "batchnorm_train": lambda: T.batchnorm_channel(x4, g16, b16, np.zeros(16), np.ones(16), training=True),
        "batchnorm_eval": lambda: T.batchnorm_channel(x4, g16, b16, np.zeros(16), np.ones(16), training=False),
        "layernorm": lambda: T.layernorm_lastdim(x3, g96, b96),
        "softmax": lambda: T.softmax_lastdim(scores),
    }[name]
    out, peak = helpers.alloc_peak(forward)
    assert out.dtype == np.float32
    assert peak <= 1.5 * out.data.nbytes


@pytest.mark.parametrize("name", ["batchnorm_train", "batchnorm_eval", "layernorm"])
def test_backward_holds_two_input_sized_buffers(name):
    rng = np.random.default_rng(22)

    def f32(*shape):
        return Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)

    x4, g16, b16 = f32(4, 16, 32, 32), f32(16), f32(16)
    x3, g96, b96 = f32(4, 256, 96), f32(96), f32(96)
    x, forward = {
        "batchnorm_train": (x4, lambda: T.batchnorm_channel(x4, g16, b16, np.zeros(16), np.ones(16), training=True)),
        "batchnorm_eval": (x4, lambda: T.batchnorm_channel(x4, g16, b16, np.zeros(16), np.ones(16), training=False)),
        "layernorm": (x3, lambda: T.layernorm_lastdim(x3, g96, b96)),
    }[name]
    with T.step():
        out = forward()
        g = rng.standard_normal(out.shape).astype(np.float32)
        grads, peak = helpers.alloc_peak(lambda: out.node.backward_fn(g))
    assert grads[0].dtype == np.float32
    # the input gradient is one of the two
    assert peak <= 2 * x.data.nbytes + 64 * 1024


# ---------------------------------------------------------------------------
# purity / finiteness invariants
# ---------------------------------------------------------------------------


class TestEngineInvariants:
    def test_forward_ops_pure(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2, 3, 4, 4))
        k = rng.standard_normal((5, 3, 3, 3))
        a = T.conv2d(Tensor(x), Tensor(k)).data
        b = T.conv2d(Tensor(x), Tensor(k)).data
        np.testing.assert_array_equal(a, b)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_composite_forward_finite(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.standard_normal((1, 2, 4, 4)))
        k = Tensor(rng.standard_normal((3, 2, 3, 3)) * 0.5)
        y = T.relu(T.conv2d(x, k))
        y = T.sigmoid(T.upsample2x_nearest(y))
        assert np.isfinite(y.data).all()
