"""Attention gating, per-scale branch fusion, and the dense top-down
decoder that produces the fusion view."""

import numpy as np
import pytest

from coopseg import gradcheck
from coopseg import tensor as T
from coopseg.fusion import (
    FUSED_CHANNELS,
    Cbam,
    DenseFusionDecoder,
    GlffBlock,
)
from coopseg.tensor import ShapeError, Tensor
from coopseg.transformer import ViewHead


def rng_of(seed):
    return np.random.default_rng(seed)


def toy_maps(seed, b=1, dtype=np.float64):
    rng = rng_of(seed)
    f16 = Tensor(rng.standard_normal((b, 256, 4, 4)).astype(dtype))
    f8 = Tensor(rng.standard_normal((b, 128, 8, 8)).astype(dtype))
    f4 = Tensor(rng.standard_normal((b, 64, 16, 16)).astype(dtype))
    return f16, f8, f4


class TestCbam:
    def test_saturated_gates_pass_input_through(self):
        # positive input and weight choices that drive every gate to sigma~1
        cbam = Cbam(8, rng_of(0))
        cbam.channel.fc1.weight.data[...] = 1.0
        cbam.channel.fc2.weight.data[...] = 20.0
        cbam.spatial.conv.weight.data[...] = 0.0
        cbam.spatial.conv.bias.data[...] = 50.0
        x = rng_of(1).uniform(0.5, 1.5, size=(2, 8, 5, 5))
        out = cbam(Tensor(x)).data
        np.testing.assert_allclose(out, x, atol=1e-12, rtol=0)

    def test_matches_straight_line_oracle(self):
        cbam = Cbam(6, rng_of(2))
        x = rng_of(3).standard_normal((2, 6, 4, 4))
        out = cbam(Tensor(x)).data

        def sig(z):
            return 1.0 / (1.0 + np.exp(-z))

        w1 = cbam.channel.fc1.weight.data
        w2 = cbam.channel.fc2.weight.data
        avg = x.mean(axis=(2, 3))
        mx = x.max(axis=(2, 3))
        logits = np.maximum(avg @ w1, 0.0) @ w2 + np.maximum(mx @ w1, 0.0) @ w2
        xc = x * sig(logits)[:, :, None, None]

        wk = cbam.spatial.conv.weight.data
        bk = cbam.spatial.conv.bias.data
        desc = np.stack([xc.mean(axis=1), xc.max(axis=1)], axis=1)
        pad = np.pad(desc, ((0, 0), (0, 0), (3, 3), (3, 3)))
        smap = np.zeros((2, 1, 4, 4))
        for bi in range(2):
            for i in range(4):
                for j in range(4):
                    smap[bi, 0, i, j] = (pad[bi, :, i : i + 7, j : j + 7] * wk[0]).sum() + bk[0]
        expected = xc * sig(smap)
        np.testing.assert_allclose(out, expected, atol=1e-10, rtol=0)

    def test_identical_channels_stay_identical(self):
        # equal treatment of equal content: symmetrize the MLP for channels 0,1
        cbam = Cbam(5, rng_of(4))
        fc1 = cbam.channel.fc1.weight.data
        fc2 = cbam.channel.fc2.weight.data
        fc1[1, :] = fc1[0, :]
        fc2[:, 1] = fc2[:, 0]
        x = rng_of(5).standard_normal((1, 5, 6, 6))
        x[0, 1] = x[0, 0]
        out = cbam(Tensor(x)).data
        np.testing.assert_array_equal(out[0, 0], out[0, 1])

    def test_gates_only_shrink(self):
        cbam = Cbam(4, rng_of(6))
        x = rng_of(7).standard_normal((1, 4, 8, 8))
        out = cbam(Tensor(x)).data
        assert (np.abs(out) <= np.abs(x) + 1e-15).all()
        assert np.sign(out[x != 0]).tolist() == np.sign(x[x != 0]).tolist()


class TestGlff:
    def test_output_shape_full_scale(self):
        glff = GlffBlock(384, 256, 256, rng_of(8))
        t = Tensor(rng_of(9).standard_normal((1, 384, 22, 22)).astype(np.float32))
        c = Tensor(rng_of(10).standard_normal((1, 256, 22, 22)).astype(np.float32))
        glff.train()
        assert glff(t, c).shape == (1, 256, 22, 22)

    def test_zero_inputs_give_zero_at_init(self):
        for attention in (True, False):
            glff = GlffBlock(12, 10, 8, rng_of(11), attention=attention)
            glff.train()
            t = Tensor(np.zeros((2, 12, 6, 6)))
            c = Tensor(np.zeros((2, 10, 6, 6)))
            np.testing.assert_array_equal(glff(t, c).data, np.zeros((2, 8, 6, 6)))

    def test_argument_order_matters(self):
        glff = GlffBlock(16, 16, 8, rng_of(12))
        glff.train()
        t = Tensor(rng_of(13).standard_normal((1, 16, 6, 6)))
        c = Tensor(rng_of(14).standard_normal((1, 16, 6, 6)))
        diff = np.abs(glff(t, c).data - glff(c, t).data).max()
        assert diff > 1e-6

    def test_spatial_mismatch_rejected(self):
        # both paths, spatial and batch mismatch: concat_channels raises
        t = Tensor(np.zeros((1, 8, 6, 6)))
        for attention in (True, False):
            glff = GlffBlock(8, 8, 4, rng_of(15), attention=attention)
            for c_shape in ((1, 8, 4, 4), (2, 8, 6, 6)):
                with pytest.raises(ShapeError, match="concat_channels"):
                    glff(t, Tensor(np.zeros(c_shape)))

    def test_reduced_path_is_one_projection(self):
        glff = GlffBlock(5, 3, 4, rng_of(16), attention=False)
        t = rng_of(17).standard_normal((2, 5, 3, 3))
        c = rng_of(18).standard_normal((2, 3, 3, 3))
        out = glff(Tensor(t), Tensor(c)).data
        w = glff.mix.weight.data[:, :, 0, 0]
        cat = np.concatenate([t, c], axis=1)
        expected = np.einsum("bchw,oc->bohw", cat, w) + glff.mix.bias.data[None, :, None, None]
        np.testing.assert_allclose(out, expected, atol=1e-12)


class TestDenseFusionDecoder:
    def test_toy_shape_chain(self):
        dec = DenseFusionDecoder(rng_of(19))
        dec.train()
        f16, f8, f4 = toy_maps(20)
        out = dec(f16, f8, f4)
        assert out.shape == (1, 1, 64, 64)
        assert (out.data > 0).all() and (out.data < 1).all()

    def test_zero_features_give_half(self):
        dec = DenseFusionDecoder(rng_of(21))
        z16, z8, z4 = (Tensor(np.zeros_like(f.data)) for f in toy_maps(21))
        for mode in ("train", "eval"):
            getattr(dec, mode)()
            out = dec(z16, z8, z4).data
            np.testing.assert_array_equal(out, np.full((1, 1, 64, 64), 0.5))

    def test_stage_named_shape_errors(self):
        dec = DenseFusionDecoder(rng_of(22))
        dec.train()
        c16, c8, c4 = FUSED_CHANNELS
        f16 = Tensor(np.zeros((1, c16, 4, 4)))
        good8 = Tensor(np.zeros((1, c8, 8, 8)))
        bad8 = Tensor(np.zeros((1, c8, 4, 4)))
        bad4 = Tensor(np.zeros((1, c4, 8, 8)))
        good4 = Tensor(np.zeros((1, c4, 16, 16)))
        with pytest.raises(ShapeError, match="sum8"):
            dec(f16, bad8, good4)
        with pytest.raises(ShapeError, match="sum4"):
            dec(f16, good8, bad4)

    def test_differs_from_plain_head_on_finest_map(self):
        dec = DenseFusionDecoder(rng_of(23))
        dec.train()
        head = ViewHead(64, rng_of(23))
        f16, f8, f4 = toy_maps(24)
        diff = np.abs(dec(f16, f8, f4).data - head(f4).data).max()
        assert diff > 1e-6

    def test_channel_tuple_is_pinned(self):
        assert FUSED_CHANNELS == (256, 128, 64)


class TestFusionGradient:
    def test_glff_dfm_chain_finite_differences(self):
        rng = rng_of(25)
        c16, c8, c4 = FUSED_CHANNELS
        glff16 = GlffBlock(6, 5, c16, rng)
        glff8 = GlffBlock(4, 4, c8, rng)
        glff4 = GlffBlock(3, 3, c4, rng)
        dec = DenseFusionDecoder(rng)
        mods = [glff16, glff8, glff4, dec]
        for m in mods:
            m.train()

        data = rng_of(26)
        t16 = Tensor(data.standard_normal((1, 6, 2, 2)))
        c16 = Tensor(data.standard_normal((1, 5, 2, 2)))
        t8 = Tensor(data.standard_normal((1, 4, 4, 4)))
        c8 = Tensor(data.standard_normal((1, 4, 4, 4)))
        t4 = Tensor(data.standard_normal((1, 3, 8, 8)))
        c4 = Tensor(data.standard_normal((1, 3, 8, 8)))

        def loss():
            out = dec(glff16(t16, c16), glff8(t8, c8), glff4(t4, c4))
            return out.mean()

        params = [p for m in mods for p in m.parameters()]
        err = gradcheck.check_function(loss, params, rng_of(27), n_samples=60)
        assert err < 1e-4
