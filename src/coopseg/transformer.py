"""Global-feature branch: patch embedding, pre-norm encoder stack, and
post-processing of the token sequence back into multi-scale feature maps.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .config import COARSEST, RunConfig
from .nn import Conv2d, LayerNorm, Linear, Module, MultiScaleFeatures, probability_map
from .tensor import ShapeError, Tensor


class PatchEmbed(Module):
    """Split the RGB image into P x P patches (P = ``COARSEST``), project each to
    d_model, add a learned positional embedding."""

    def __init__(self, cfg: RunConfig, rng: np.random.Generator):
        g = cfg.image_size // COARSEST
        self.grid = (g, g)
        self.proj = Linear(COARSEST * COARSEST * 3, cfg.d_model, rng)
        self.pos = Tensor(rng.standard_normal((g * g, cfg.d_model)) * 0.02, requires_grad=True)

    def __call__(self, image: Tensor) -> Tensor:
        """B x N x d_model tokens, row-major over ``self.grid``."""
        b, c, h, w = image.shape
        p = COARSEST
        gh, gw = self.grid
        if (c, h, w) != (3, gh * p, gw * p):
            raise ShapeError(f"expected 3x{gh * p}x{gw * p} image, got {c}x{h}x{w}")
        x = T.reshape(image, (b, c, gh, p, gw, p))
        x = T.transpose(x, (0, 2, 4, 1, 3, 5))  # B, gh, gw, C, p, p
        x = T.reshape(x, (b, gh * gw, c * p * p))
        return self.proj(x) + self.pos


class MultiHeadSelfAttention(Module):
    """Per-head Q/K/V projections, scaled dot-product attention, concat, W_o.

    The per-head matrices are stored stacked as (heads, d_model, d_head);
    slicing along the first axis recovers each head's projection.
    """

    def __init__(self, cfg: RunConfig, rng: np.random.Generator):
        h, d = cfg.heads, cfg.d_model
        dh = d // h
        def proj():
            return Tensor(rng.standard_normal((h, d, dh)) * 0.02, requires_grad=True)
        self.wq, self.wk, self.wv = proj(), proj(), proj()
        self.wo = Tensor(rng.standard_normal((h * dh, d)) * 0.02, requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        b, n, d = x.shape
        xh = T.reshape(x, (b, 1, n, d))  # each projection is B x heads x N x d_head
        return T.attention(xh @ self.wq, xh @ self.wk, xh @ self.wv) @ self.wo


class MlpBlock(Module):
    """fc1, GELU, fc2 as one ``T.mlp`` tape node; the two ``Linear`` modules hold
    the parameters, so their names and the checkpoint layout are those of the chain."""

    def __init__(self, cfg: RunConfig, rng: np.random.Generator):
        hidden = 4 * cfg.d_model
        self.fc1 = Linear(cfg.d_model, hidden, rng)
        self.fc2 = Linear(hidden, cfg.d_model, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return T.mlp(x, self.fc1.weight, self.fc1.bias, self.fc2.weight, self.fc2.bias)


class EncoderBlock(Module):
    """Pre-norm residual block: x + MSA(LN(x)), then + MLP(LN(.))."""

    def __init__(self, cfg: RunConfig, rng: np.random.Generator):
        self.norm1 = LayerNorm(cfg.d_model)
        self.attn = MultiHeadSelfAttention(cfg, rng)
        self.norm2 = LayerNorm(cfg.d_model)
        self.mlp = MlpBlock(cfg, rng)

    def __call__(self, x: Tensor) -> Tensor:
        x = x + self.attn(self.norm1(x))
        return x + self.mlp(self.norm2(x))


class TransformerBranch(Module):
    """Encoder over patch tokens, then progressive conv+upsample back to
    maps at 1/16 (d_model ch), 1/8 (128 ch), and 1/4 (64 ch) scales.

    Each layer is cast to ``cfg.dtype`` as it is drawn, so only one layer's float64
    draw (an encoder block's, at most) is resident at a time."""

    T1_CHANNELS = 128
    T2_CHANNELS = 64

    def __init__(self, cfg: RunConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.embed = PatchEmbed(cfg, rng).cast(cfg.dtype)
        self.blocks = [EncoderBlock(cfg, rng).cast(cfg.dtype) for _ in range(cfg.depth)]
        self.conv_t1 = Conv2d(cfg.d_model, self.T1_CHANNELS, 3, rng).cast(cfg.dtype)
        self.conv_t2 = Conv2d(self.T1_CHANNELS, self.T2_CHANNELS, 3, rng).cast(cfg.dtype)

    def encode(self, image: Tensor) -> Tensor:
        x = self.embed(image)
        for block in self.blocks:
            x = block(x)
        return x

    def postprocess(self, tokens: Tensor) -> MultiScaleFeatures:
        gh, gw = self.embed.grid
        t0 = T.transpose(T.reshape(tokens, (tokens.shape[0], gh, gw, self.cfg.d_model)), (0, 3, 1, 2))
        t1 = T.upsample2x_nearest(self.conv_t1(t0))
        t2 = T.upsample2x_nearest(self.conv_t2(t1))
        return MultiScaleFeatures(s16=t0, s8=t1, s4=t2)

    def __call__(self, image: Tensor) -> MultiScaleFeatures:
        return self.postprocess(self.encode(image))


class ViewHead(Module):
    """Project a 1/4-scale map to one channel, upsample twice to full
    resolution, squash to (0,1)."""

    def __init__(self, channels: int, rng: np.random.Generator):
        self.proj = Conv2d(channels, 1, 1, rng)

    def __call__(self, s4: Tensor) -> Tensor:
        return probability_map(self.proj(s4))
