"""Local-feature branch: a compact convolutional encoder with dense
intra-stage concatenation, tapping maps at 1/4, 1/8, and 1/16 scale.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .config import COARSEST, RunConfig
from .nn import Conv2d, ConvUnit, Module, MultiScaleFeatures, probability_map
from .tensor import ShapeError, Tensor


class DenseStage(Module):
    """k conv units where unit j consumes the concat of the stage input and
    all previous unit outputs; the last unit's map is the stage output."""

    def __init__(self, c_in: int, channels: int, units: int, rng: np.random.Generator):
        self.units = []
        width = c_in
        for _ in range(units):
            self.units.append(ConvUnit(width, channels, rng))
            width += channels

    def __call__(self, x: Tensor) -> Tensor:
        grown = [x]
        out = x
        for unit in self.units:
            out = unit(grown[0] if len(grown) == 1 else T.concat_channels(grown))
            grown.append(out)
        return out


class CnnBranch(Module):
    """Stem halves the input; each of three stages halves again and taps its
    output, yielding maps at 1/4 (c4), 1/8 (c8), and 1/16 (c16)."""

    def __init__(self, cfg: RunConfig, rng: np.random.Generator):
        self.stem = ConvUnit(3, cfg.stem_channels, rng)
        self.stage4 = DenseStage(cfg.stem_channels, cfg.c4, cfg.stage_units, rng)
        self.stage8 = DenseStage(cfg.c4, cfg.c8, cfg.stage_units, rng)
        self.stage16 = DenseStage(cfg.c8, cfg.c16, cfg.stage_units, rng)

    def __call__(self, image: Tensor) -> MultiScaleFeatures:
        _, _, h, w = image.shape
        if h % COARSEST or w % COARSEST:
            raise ShapeError(f"image dims {h}x{w} must be divisible by {COARSEST}")
        x = T.avgpool2x(self.stem(image))          # 1/2
        c_quarter = self.stage4(T.avgpool2x(x))    # 1/4
        c_eighth = self.stage8(T.avgpool2x(c_quarter))   # 1/8
        c_sixteenth = self.stage16(T.avgpool2x(c_eighth))  # 1/16
        return MultiScaleFeatures(s16=c_sixteenth, s8=c_eighth, s4=c_quarter)


class CnnViewHead(Module):
    """Top-down merge of the three taps into one full-resolution probability
    map: project each tap to a common width, add coarse into fine with 2x
    upsampling, then one-channel projection, 4x upsampling, sigmoid."""

    def __init__(self, cfg: RunConfig, rng: np.random.Generator):
        merge = 64  # the common width
        self.proj16 = Conv2d(cfg.c16, merge, 1, rng)
        self.proj8 = Conv2d(cfg.c8, merge, 1, rng)
        self.proj4 = Conv2d(cfg.c4, merge, 1, rng)
        self.out = Conv2d(merge, 1, 1, rng)

    def __call__(self, feats: MultiScaleFeatures) -> Tensor:
        m8 = T.upsample2x_nearest(self.proj16(feats.s16)) + self.proj8(feats.s8)
        m4 = T.upsample2x_nearest(m8) + self.proj4(feats.s4)
        return probability_map(self.out(m4))
