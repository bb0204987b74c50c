"""Token-path contracts: patch embedding, attention, encoder blocks, and
the multi-scale post-processing."""

import math

import numpy as np
import pytest

import helpers
from coopseg import gradcheck
from coopseg import tensor as T
from coopseg.config import RunConfig
from coopseg.nn import LayerNorm, MultiScaleFeatures
from coopseg.tensor import ShapeError, Tensor
from coopseg.transformer import (
    EncoderBlock,
    MlpBlock,
    MultiHeadSelfAttention,
    PatchEmbed,
    TransformerBranch,
    ViewHead,
)


def small_cfg(**kw):
    base = dict(depth=2, d_model=8, heads=2)
    base.update(kw)
    return RunConfig(**base)


def rng_of(seed):
    return np.random.default_rng(seed)


def drawn_norm(d, seed):
    """A LayerNorm with drawn gain and shift, so neither is the identity."""
    norm = LayerNorm(d)
    rng = rng_of(seed)
    norm.gamma.data[...] = 1.0 + 0.5 * rng.standard_normal(d)
    norm.beta.data[...] = 0.5 * rng.standard_normal(d)
    return norm


def normalized(x, norm):
    """The normalized tokens an encoder half reads, from the closed form."""
    mu = x.mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-5) * norm.gamma.data + norm.beta.data


class TestPatchEmbed:
    def test_token_count_352(self):
        pe = PatchEmbed(small_cfg(image_size=352), rng_of(0))
        tokens = pe(Tensor(np.zeros((1, 3, 352, 352))))
        assert tokens.shape == (1, 484, 8)
        assert pe.grid == (22, 22)

    def test_token_count_64(self):
        pe = PatchEmbed(small_cfg(image_size=64), rng_of(0))
        tokens = pe(Tensor(np.zeros((2, 3, 64, 64))))
        assert tokens.shape == (2, 16, 8)

    def test_indivisible_size_rejected(self):
        # RunConfig.validate rejects 50 px; unvalidated, the grid floors to 3x3 and
        # the forward rejects a 50-px image
        pe = PatchEmbed(small_cfg(image_size=50), rng_of(0))
        with pytest.raises(ShapeError, match="expected 3x48x48 image"):
            pe(Tensor(np.zeros((1, 3, 50, 50))))

    def test_wrong_image_rejected(self):
        # sizes that floor to the same grid, and a gray image, are rejected too
        pe = PatchEmbed(small_cfg(image_size=64), rng_of(0))
        for shape in ((1, 3, 70, 64), (1, 3, 64, 79), (1, 1, 64, 64)):
            with pytest.raises(ShapeError, match="expected 3x64x64 image"):
                pe(Tensor(np.zeros(shape)))

    def test_patch_flatten_matches_manual_slice(self):
        # token j must be proj(flatten(patch_j)) + pos_j
        rng = rng_of(1)
        pe = PatchEmbed(small_cfg(image_size=32), rng)
        img = rng.standard_normal((1, 3, 32, 32))
        tokens = pe(Tensor(img))
        w, b = pe.proj.weight.data, pe.proj.bias.data
        patch01 = img[0, :, 0:16, 16:32].reshape(-1)  # row 0, col 1 of the grid
        expected = patch01 @ w + b + pe.pos.data[1]
        np.testing.assert_allclose(tokens.data[0, 1], expected, atol=1e-12)


class TestAttention:
    def test_single_token_ignores_qk(self):
        # one token: the softmax is 1 regardless of logits, so only V and Wo act
        cfg = small_cfg()
        msa, norm = MultiHeadSelfAttention(cfg, rng_of(2)), drawn_norm(8, 2)
        x = rng_of(3).standard_normal((1, 1, 8))
        out = msa(Tensor(x), norm).data
        v = np.einsum("nd,hde->hne", normalized(x, norm)[0], msa.wv.data)  # heads x 1 x d_head
        expected = v.transpose(1, 0, 2).reshape(1, -1) @ msa.wo.data
        np.testing.assert_allclose(out[0], expected, atol=1e-12)
        # changing Wq/Wk must not change the single-token output
        msa.wq.data[...] = 0.0
        msa.wk.data[...] = 100.0
        np.testing.assert_allclose(msa(Tensor(x), norm).data[0], expected, atol=1e-12)

    def test_identical_tokens_identical_rows(self):
        msa = MultiHeadSelfAttention(small_cfg(), rng_of(4))
        row = rng_of(5).standard_normal(8)
        x = Tensor(np.tile(row, (1, 6, 1)))
        out = msa(x, drawn_norm(8, 5)).data[0]
        np.testing.assert_allclose(out, np.tile(out[0], (6, 1)), atol=1e-12)

    def test_matches_per_head_loop_oracle(self):
        cfg = small_cfg(d_model=8, heads=2)
        msa, norm = MultiHeadSelfAttention(cfg, rng_of(6)), drawn_norm(8, 6)
        x = rng_of(7).standard_normal((1, 4, 8))
        out = msa(Tensor(x), norm).data[0]

        # unbatched reference: loop heads explicitly, 2-d matmuls only
        xn = normalized(x, norm)[0]
        heads = []
        for i in range(2):
            q = xn @ msa.wq.data[i]
            k = xn @ msa.wk.data[i]
            v = xn @ msa.wv.data[i]
            logits = q @ k.T / math.sqrt(cfg.d_model // cfg.heads)
            att = np.exp(logits - logits.max(axis=-1, keepdims=True))
            att /= att.sum(axis=-1, keepdims=True)
            heads.append(att @ v)
        expected = np.concatenate(heads, axis=-1) @ msa.wo.data
        np.testing.assert_allclose(out, expected, atol=1e-10, rtol=0)

    def test_attention_rows_sum_to_one(self):
        # d_head = N = 4 and per-head identity values: the op's output is its softmax rows
        msa = MultiHeadSelfAttention(small_cfg(), rng_of(8))
        xh = Tensor(rng_of(9).standard_normal((2, 1, 4, 8)))
        q, k = xh @ msa.wq, xh @ msa.wk
        v = Tensor(np.broadcast_to(np.eye(4), (2, 2, 4, 4)))
        out = T.attention_heads(q, k, v)
        assert out.shape == (2, 4, 8)
        maps = out.data.reshape(2, 4, 2, 4).transpose(0, 2, 1, 3)
        sums = maps.sum(axis=-1)
        np.testing.assert_allclose(sums, np.ones_like(sums), atol=1e-10, rtol=0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_query_scaling_matches_score_scaling_bitwise(self, dtype):
        # d_head 16: the scale 1/4 is a power of two, so scaling q or q @ k^T rounds alike
        msa = MultiHeadSelfAttention(small_cfg(d_model=32, heads=2), rng_of(13)).cast(dtype)
        norm = drawn_norm(32, 13).cast(dtype)
        x = rng_of(14).standard_normal((2, 5, 32)).astype(dtype)
        g = rng_of(15).standard_normal((2, 5, 32)).astype(dtype)
        params = [norm.gamma, norm.beta, msa.wq, msa.wk, msa.wv, msa.wo]

        def scores_scaled(xt):
            xh = T.reshape(norm(xt), (2, 1, 5, 32))
            q, k, v = xh @ msa.wq, xh @ msa.wk, xh @ msa.wv
            logits = (q @ T.transpose(k, (0, 1, 3, 2))) * (1.0 / math.sqrt(16))
            mixed = T.softmax_lastdim(logits) @ v
            return T.reshape(T.transpose(mixed, (0, 2, 1, 3)), (2, 5, 32)) @ msa.wo

        results = []
        for fn in (scores_scaled, lambda xt: msa(xt, norm)):
            xt = Tensor(x, requires_grad=True)
            with T.step():
                out = fn(xt)
                (out * Tensor(g)).sum().backward()
            results.append([out.data, xt.grad] + [p.grad for p in params])
            for p in params:
                p.grad = None
        for ref, new in zip(*results):
            assert new.dtype == dtype
            np.testing.assert_array_equal(new, ref)

    def test_tape_holds_no_score_or_gelu_output_array(self, monkeypatch):
        # attention rebuilds its softmax rows and the MLP its GELU output in backward:
        # no node output, input or closure array is B x heads x N x N, and the only
        # B x N x hidden arrays are the MLPs' pre-activations, one per block
        pre_activations = []

        def mlp(x, gamma, beta, w1, b1, *rest, inner=T.mlp):
            pre_activations.append(T.layernorm_lastdim(x, gamma, beta).data @ w1.data + b1.data)
            return inner(x, gamma, beta, w1, b1, *rest)

        monkeypatch.setattr(T, "mlp", mlp)
        blocks = [EncoderBlock(small_cfg(), rng_of(s)) for s in (16, 17)]
        with T.step() as tape:
            x = Tensor(rng_of(18).standard_normal((2, 5, 8)), requires_grad=True)
            for block in blocks:
                x = block(x)
            held = {}
            for n in tape.nodes:
                for value in [n.out, *n.inputs, *helpers.closure_values(n)]:
                    if isinstance(value, Tensor):
                        value = value.data
                    if isinstance(value, np.ndarray):
                        held[id(value)] = value
        assert not [a for a in held.values() if a.shape == (2, 2, 5, 5)]
        hidden = [a for a in held.values() if a.shape == (2, 5, 32)]
        assert len(hidden) == len(pre_activations) == 2
        for a, h in zip(hidden, pre_activations):
            np.testing.assert_array_equal(a, h)

    def test_permutation_equivariance(self):
        msa, norm = MultiHeadSelfAttention(small_cfg(), rng_of(10)), drawn_norm(8, 10)
        x = rng_of(11).standard_normal((1, 7, 8))
        perm = rng_of(12).permutation(7)
        out = msa(Tensor(x), norm).data[0]
        out_perm = msa(Tensor(x[:, perm]), norm).data[0]
        np.testing.assert_allclose(out_perm, out[perm], atol=1e-12)


class TestMlpBlock:
    def test_records_one_node_and_keeps_the_linear_parameters(self):
        mlp = MlpBlock(small_cfg(), rng_of(19))
        assert [name for name, _ in mlp.named_parameters()] == [
            "fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias",
        ]
        x, norm = Tensor(rng_of(20).standard_normal((2, 5, 8)), requires_grad=True), drawn_norm(8, 20)
        with T.step() as tape:
            out = mlp(x, norm)
            assert [n.op for n in tape.nodes] == ["mlp"]
        chain = mlp.fc2(T.gelu(mlp.fc1(norm(x))))
        np.testing.assert_array_equal(out.data, chain.data)


class TestEncoderBlock:
    def test_zeroed_projections_identity(self):
        block = EncoderBlock(small_cfg(), rng_of(13))
        block.attn.wo.data[...] = 0.0
        block.mlp.fc2.weight.data[...] = 0.0
        block.mlp.fc2.bias.data[...] = 0.0
        x = rng_of(14).standard_normal((2, 5, 8))
        np.testing.assert_array_equal(block(Tensor(x)).data, x)

    def test_shape_preserved_when_stacked(self):
        cfg = small_cfg()
        blocks = [EncoderBlock(cfg, rng_of(s)) for s in (1, 2, 3)]
        x = Tensor(rng_of(15).standard_normal((2, 4, 8)))
        for b in blocks:
            x = b(x)
            assert x.shape == (2, 4, 8)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_each_half_is_one_node_and_the_block_equals_the_ops_it_fuses_bitwise(self, dtype):
        block = EncoderBlock(small_cfg(), rng_of(21))
        block.norm1, block.norm2 = drawn_norm(8, 22), drawn_norm(8, 23)
        block.cast(dtype)
        attn, mlp = block.attn, block.mlp

        def unfused(x):
            b, n, d = x.shape
            xh = T.reshape(block.norm1(x), (b, 1, n, d))
            x = x + T.attention_heads(xh @ attn.wq, xh @ attn.wk, xh @ attn.wv) @ attn.wo
            return x + mlp.fc2(T.gelu(mlp.fc1(block.norm2(x))))

        x = rng_of(24).standard_normal((2, 5, 8)).astype(dtype)
        g = rng_of(25).standard_normal((2, 5, 8)).astype(dtype)
        results = []
        for fn in (unfused, block):
            xt = Tensor(x, requires_grad=True)
            grads = {}
            with T.step() as tape:
                out = fn(xt)
                ops = [n.op for n in tape.nodes]
                T.backward((out * Tensor(g)).sum(), sink=grads.__setitem__)
            results.append([out.data, grads[xt]] + [grads[p] for p in block.parameters()])
        assert ops == ["attention", "add", "mlp", "add"]
        for ref, new in zip(*results):
            assert new.dtype == dtype
            np.testing.assert_array_equal(new, ref)

    def test_gradient_vs_finite_differences(self):
        block = EncoderBlock(small_cfg(), rng_of(16))
        x = Tensor(rng_of(17).standard_normal((1, 3, 8)), requires_grad=True)
        rng = rng_of(18)
        err = gradcheck.check_function(lambda: block(x).sum(), [x], rng)
        assert err < 1e-4


class TestPostprocess:
    def test_full_size_shapes(self):
        cfg = RunConfig(depth=1, d_model=384, heads=6)
        branch = TransformerBranch(cfg, rng_of(19))
        tokens = Tensor(np.random.default_rng(20).standard_normal((1, 484, 384)).astype(np.float32))
        feats = branch.postprocess(tokens)
        assert feats.s16.shape == (1, 384, 22, 22)
        assert feats.s8.shape == (1, 128, 44, 44)
        assert feats.s4.shape == (1, 64, 88, 88)

    def test_toy_shapes(self):
        cfg = small_cfg(d_model=48, heads=6, image_size=64)
        branch = TransformerBranch(cfg, rng_of(21))
        feats = branch(Tensor(np.zeros((1, 3, 64, 64))))
        assert feats.s16.shape == (1, 48, 4, 4)
        assert feats.s8.shape == (1, 128, 8, 8)
        assert feats.s4.shape == (1, 64, 16, 16)

    def test_grid_reshape_roundtrip(self):
        t0 = np.random.default_rng(22).standard_normal((2, 8, 4, 4))
        flat = t0.transpose(0, 2, 3, 1).reshape(2, 16, 8)
        back = flat.reshape(2, 4, 4, 8).transpose(0, 3, 1, 2)
        np.testing.assert_array_equal(back, t0)


class TestViewHead:
    def test_zero_logits_give_half(self):
        head = ViewHead(16, rng_of(23))
        head.proj.weight.data[...] = 0.0
        head.proj.bias.data[...] = 0.0
        out = head(Tensor(np.random.default_rng(24).standard_normal((1, 16, 4, 4))))
        assert out.shape == (1, 1, 16, 16)
        np.testing.assert_array_equal(out.data, np.full((1, 1, 16, 16), 0.5))

    def test_output_in_unit_interval(self):
        head = ViewHead(16, rng_of(25))
        out = head(Tensor(np.random.default_rng(26).standard_normal((2, 16, 4, 4)) * 5)).data
        assert (out > 0).all() and (out < 1).all()

    def test_monotone_in_logits(self):
        # raising one pre-upsample logit never lowers any output pixel
        head = ViewHead(8, rng_of(27))
        x = Tensor(np.random.default_rng(28).standard_normal((1, 8, 3, 3)))
        logits = head.proj(x)
        base = T.sigmoid(T.upsample2x_nearest(T.upsample2x_nearest(logits))).data
        bumped_logits = logits.data.copy()
        bumped_logits[0, 0, 1, 2] += 0.7
        bumped = T.sigmoid(
            T.upsample2x_nearest(T.upsample2x_nearest(Tensor(bumped_logits)))
        ).data
        assert (bumped >= base).all()
        assert bumped[0, 0, 4, 8] > base[0, 0, 4, 8]


class TestBranchGradient:
    def test_end_to_end_sampled_params(self):
        cfg = small_cfg(d_model=16, heads=2, depth=2, image_size=32, dtype="float64")
        branch = TransformerBranch(cfg, rng_of(29))
        head = ViewHead(64, rng_of(30))
        img = Tensor(np.random.default_rng(31).standard_normal((1, 3, 32, 32)) * 0.3)

        def loss():
            return head(branch(img).s4).sum()

        params = branch.parameters() + head.parameters()
        rng = rng_of(32)
        err = gradcheck.check_function(loss, params, rng, n_samples=60)
        assert err < 1e-4
