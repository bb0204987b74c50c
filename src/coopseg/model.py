"""Full two-branch segmentation model with three prediction views.

View 1 comes from the transformer branch, view 2 from the CNN branch, and
view 3 from the fusion path. The per-view combination weights live on the
model as a buffer so they persist through checkpoints.
"""

from __future__ import annotations

import math
from functools import partial
from typing import NamedTuple

import numpy as np

from . import tensor as T
from .cnn import CnnBranch, CnnViewHead
from .config import RunConfig
from .fusion import FUSED_CHANNELS, DenseFusionDecoder, GlffBlock
from .nn import Module, MultiScaleFeatures
from .tensor import Tensor
from .transformer import TransformerBranch, ViewHead


class ViewOutputs(NamedTuple):
    """The three per-view probability maps, each B x 1 x H x W in [0,1]."""

    transformer: Tensor
    cnn: Tensor
    fusion: Tensor


class _Zeros:
    """Stands in for the init generators when a model is filled from a saved state.
    The layers only ever call ``standard_normal``; zeros in the run's dtype are all
    ``load_state`` needs to overwrite, so no weight is drawn in float64."""

    def __init__(self, dtype: np.dtype):
        self.dtype = dtype

    def standard_normal(self, shape) -> np.ndarray:
        return np.zeros(shape, self.dtype)


class SegmentationModel(Module):
    def __init__(self, cfg: RunConfig, state: dict[str, np.ndarray] | None = None):
        """A model drawn from ``cfg.seed`` or, given ``state``, filled from it without a
        draw: ``load_state`` checks the state's names and shapes and copies it in."""
        self.cfg = cfg.validate()
        dtype = np.dtype(cfg.dtype)
        if state is None:
            # independent init streams: toggling fusion switches must not shift
            # the branches' initial weights
            rng_t, rng_c, rng_f = (
                np.random.default_rng(s) for s in np.random.SeedSequence(cfg.seed).spawn(3)
            )
        else:
            rng_t = rng_c = rng_f = _Zeros(dtype)
        # layers draw float64 parameters and the model casts them to the run's
        # precision. The transformer, four fifths of them, casts each of its layers
        # as it draws it, so at most one encoder block's float64 draw (14 MB at paper
        # geometry, not the branch's 178 MB) is resident at once.
        self.transformer = TransformerBranch(cfg, rng_t)
        self.head_t = ViewHead(TransformerBranch.T2_CHANNELS, rng_t)
        self.cnn = CnnBranch(cfg, rng_c)
        self.head_c = CnnViewHead(cfg, rng_c)

        cf16, cf8, cf4 = FUSED_CHANNELS
        t_ch = (cfg.d_model, TransformerBranch.T1_CHANNELS, TransformerBranch.T2_CHANNELS)
        c_ch = (cfg.c16, cfg.c8, cfg.c4)
        self.glff16 = GlffBlock(t_ch[0], c_ch[0], cf16, rng_f, attention=cfg.glff_on)
        self.glff8 = GlffBlock(t_ch[1], c_ch[1], cf8, rng_f, attention=cfg.glff_on)
        self.glff4 = GlffBlock(t_ch[2], c_ch[2], cf4, rng_f, attention=cfg.glff_on)
        if cfg.dfm_on:
            self.decoder = DenseFusionDecoder(rng_f)
        else:
            self.head_f = ViewHead(cf4, rng_f)
        self.view_weights = np.full(3, 1.0 / 3.0)
        self.cast(dtype)
        if state is not None:
            self.load_state(state)

    def fused_maps(self, t: MultiScaleFeatures, c: MultiScaleFeatures):
        return (
            self.glff16(t.s16, c.s16),
            self.glff8(t.s8, c.s8),
            self.glff4(t.s4, c.s4),
        )

    def __call__(self, image: Tensor) -> ViewOutputs:
        """The three views of a batch. In training mode, or inside a recording step, the
        batch goes through whole on this thread: BatchNorm's batch statistics and the tape
        need it. In eval mode no op mixes images, so each image is forwarded alone, and
        the images are cut into ``idle_cpus()`` even shares: this thread forwards the
        first and the engine's pool the rest (``tensor.run_all``). An image's views then
        depend on neither the batch size nor the CPU count: the batch is a GEMM dimension
        in ``ChannelGate``, so batching would change the last bits."""
        if self.training or T.recording():
            return self._views(image)
        singles = [Tensor(image.data[i : i + 1]) for i in range(image.shape[0])]
        n = min(T.idle_cpus(), len(singles))
        shares = [singles[len(singles) * i // n : len(singles) * (i + 1) // n] for i in range(n)]
        # an image is always worth a thread
        parts = T.run_all(math.inf, *(partial(self._views_of, share) for share in shares))
        views = [v for part in parts for v in part]
        return ViewOutputs(*(Tensor(np.concatenate([v.data for v in maps])) for maps in zip(*views)))

    def _views_of(self, images: list[Tensor]) -> list[ViewOutputs]:
        return [self._views(x) for x in images]

    def _views(self, image: Tensor) -> ViewOutputs:
        # the branches meet only in the fusion: the transformer, the longer at paper
        # geometry, on this thread, and the CNN beside it on the engine's pool; a branch
        # is always worth a thread
        t_feats, c_feats = T.run_all(math.inf, partial(self.transformer, image),
                                     partial(self.cnn, image))
        pre_t = self.head_t(t_feats.s4)
        pre_c = self.head_c(c_feats)
        f16, f8, f4 = self.fused_maps(t_feats, c_feats)
        if self.cfg.dfm_on:
            pre_f = self.decoder(f16, f8, f4)
        else:
            pre_f = self.head_f(f4)
        return ViewOutputs(pre_t, pre_c, pre_f)
