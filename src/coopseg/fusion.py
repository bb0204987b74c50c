"""Two-stage fusion: per-scale global-local fusion with channel+spatial
attention, then dense top-down combination of the three fused scales into
the fusion view's prediction.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .nn import Conv2d, ConvUnit, Linear, Module, probability_map
from .tensor import ShapeError, Tensor

FUSED_CHANNELS = (256, 128, 64)  # at scales 1/16, 1/8, 1/4


class ChannelGate(Module):
    """Channel attention: shared bias-free 2-layer MLP (reduction 16) over spatial
    avg- and max-pooled descriptors, summed, squashed."""

    def __init__(self, channels: int, rng: np.random.Generator):
        hidden = max(channels // 16, 1)
        self.fc1 = Linear(channels, hidden, rng, bias=False)
        self.fc2 = Linear(hidden, channels, rng, bias=False)

    def _mlp(self, pooled: Tensor) -> Tensor:
        return self.fc2(T.relu(self.fc1(pooled)))

    def __call__(self, x: Tensor) -> Tensor:
        b, c = x.shape[0], x.shape[1]
        avg = x.mean(axis=(2, 3))
        mx = T.amax(x, axis=(2, 3))
        gate = T.sigmoid(self._mlp(avg) + self._mlp(mx))
        return x * T.reshape(gate, (b, c, 1, 1))


class SpatialGate(Module):
    """Spatial attention: 7x7 conv over the channelwise avg/max pair."""

    def __init__(self, rng: np.random.Generator):
        self.conv = Conv2d(2, 1, 7, rng)

    def __call__(self, x: Tensor) -> Tensor:
        avg = x.mean(axis=1, keepdims=True)
        mx = T.amax(x, axis=1, keepdims=True)
        gate = T.sigmoid(self.conv(T.concat_channels([avg, mx])))
        return x * gate


class Cbam(Module):
    """Sequential channel-then-spatial attention refinement."""

    def __init__(self, channels: int, rng: np.random.Generator):
        self.channel = ChannelGate(channels, rng)
        self.spatial = SpatialGate(rng)

    def __call__(self, x: Tensor) -> Tensor:
        return self.spatial(self.channel(x))


class GlffBlock(Module):
    """Fuse one transformer map and one CNN map at a shared scale.

    Full path: 1x1-project each branch to the fused width, concatenate,
    3x3 conv + BN + ReLU back to the fused width, then CBAM. The reduced
    path (attention disabled) is a single 1x1 conv on the raw concat.
    """

    def __init__(self, t_channels: int, c_channels: int, out_channels: int,
                 rng: np.random.Generator, attention: bool = True):
        self.attention = attention
        if attention:
            self.proj_t = Conv2d(t_channels, out_channels, 1, rng)
            self.proj_c = Conv2d(c_channels, out_channels, 1, rng)
            self.fuse = ConvUnit(2 * out_channels, out_channels, rng)
            self.cbam = Cbam(out_channels, rng)
        else:
            self.mix = Conv2d(t_channels + c_channels, out_channels, 1, rng)

    def __call__(self, t: Tensor, c: Tensor) -> Tensor:
        # concat_channels rejects branch maps whose batch or spatial dims differ
        if not self.attention:
            return self.mix(T.concat_channels([t, c]))
        mixed = self.fuse(T.concat_channels([self.proj_t(t), self.proj_c(c)]))
        return self.cbam(mixed)


def _check_stage(stage: str, a: Tensor, b: Tensor):
    if a.shape != b.shape:
        raise ShapeError(f"dfm stage {stage}: shapes {a.shape} vs {b.shape}")


class DenseFusionDecoder(Module):
    """Top-down dense combination of the three fused maps.

    The coarse map is unit-convolved and upsampled, summed into the middle
    scale, re-fused over the concat, lifted again to the fine scale, summed
    and re-fused, then a two-unit head with a 1x1 projection and two 2x
    upsamplings produces the full-resolution probability map.
    """

    def __init__(self, rng: np.random.Generator):
        c16, c8, c4 = FUSED_CHANNELS
        self.unit16 = ConvUnit(c16, c8, rng)
        self.adapt8 = Conv2d(c8, c8, 1, rng)
        self.refuse8 = ConvUnit(2 * c8, c8, rng)
        self.adapt4 = Conv2d(c8, c4, 1, rng)
        self.refuse4 = ConvUnit(2 * c4, c4, rng)
        self.head1 = ConvUnit(c4, c4, rng)
        self.head2 = ConvUnit(c4, c4, rng)
        self.out = Conv2d(c4, 1, 1, rng)

    def __call__(self, f16: Tensor, f8: Tensor, f4: Tensor) -> Tensor:
        lifted8 = T.upsample2x_nearest(self.unit16(f16))
        adapted8 = self.adapt8(lifted8)
        _check_stage("sum8", adapted8, f8)
        sum8 = adapted8 + f8
        fused8 = self.refuse8(T.concat_channels([lifted8, sum8]))
        lifted4 = self.adapt4(T.upsample2x_nearest(fused8))
        _check_stage("sum4", lifted4, f4)
        sum4 = lifted4 + f4
        fused4 = self.refuse4(T.concat_channels([lifted4, sum4]))
        return probability_map(self.out(self.head2(self.head1(fused4))))
