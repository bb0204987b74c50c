"""Cooperative multi-view training.

Each view (transformer, CNN, fusion) gets a soft-IoU + BCE loss. View
weights have the closed form w_k = exp(-loss_k / lambda) / sum_h exp(-loss_h
/ lambda), the minimizer of the entropy-regularized objective
sum_k w_k loss_k + lambda sum_k w_k ln w_k on the simplex. Training
alternates: solve the weights exactly with parameters fixed, then take one
Adam step on the weighted loss with the weights held constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import tensor as T
from .model import SegmentationModel, ViewOutputs
from .tensor import ShapeError, Tensor

CLIP_LO = 1e-7
CLIP_HI = 1.0 - 1e-7
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def _check_lambda(lam: float):
    if not 0 < lam < math.inf:  # the condition RunConfig.validate applies to its lambda
        raise ValueError(f"lambda must be positive and finite, got {lam}")


@dataclass
class ViewWeights:
    w: np.ndarray
    lam: float

    def __post_init__(self):
        _check_lambda(self.lam)
        self.w = np.asarray(self.w, dtype=np.float64)
        if not np.isfinite(self.w).all():  # NaN passes both checks below
            raise ValueError(f"view weights must be finite, got {self.w!r} at lambda = {self.lam!r} "
                             "(a lambda too small for the losses overflows -loss / lambda)")
        if abs(float(self.w.sum()) - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {self.w.sum()!r}")
        if (self.w < 0).any():
            raise ValueError(f"weights must be non-negative, got {self.w!r}")


def view_loss(pre: Tensor, gt: Tensor) -> Tensor:
    """Aggregated soft-IoU loss plus pixel-mean binary cross-entropy.

    The prediction is clipped to [1e-7, 1-1e-7] before the logarithms. The
    ground truth must be strictly binary.
    """
    if pre.shape != gt.shape:
        raise ShapeError(f"prediction {pre.shape} vs ground truth {gt.shape}")
    if not np.isin(gt.data, (0.0, 1.0)).all():
        raise ValueError("ground truth must be binary (0/1)")
    inter = (gt * pre).sum()
    union = (gt + pre - gt * pre).sum()
    pc = T.clip(pre, CLIP_LO, CLIP_HI)
    bce = -(gt * T.log(pc) + (1.0 - gt) * T.log(1.0 - pc)).mean()
    iou_term = 1.0 - inter / union
    return iou_term + bce


def solve_weights(losses: Sequence[float], lam: float) -> ViewWeights:
    """Closed-form minimizer of the entropy-regularized objective."""
    _check_lambda(lam)
    arr = np.asarray(losses, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise ValueError(f"losses must be finite, got {arr}")
    z = -arr / lam
    z -= z.max()  # shift invariance, exact: exp cancels the common factor
    e = np.exp(z)
    return ViewWeights(e / e.sum(), lam)


def total_objective(w: ViewWeights, losses: Sequence[float]) -> float:
    """sum_k w_k loss_k + lambda sum_k w_k ln w_k, with 0 ln 0 := 0."""
    arr = np.asarray(losses, dtype=np.float64)
    ent = sum(wk * math.log(wk) for wk in w.w if wk > 0.0)
    return float(w.w @ arr + w.lam * ent)


def fuse_decision(w: ViewWeights, outs: ViewOutputs) -> Tensor:
    """Convex combination of the three views, in the views' dtype.

    Accumulates in float64 so the result stays inside the pixelwise
    [min, max] envelope of the views after the final cast. Pure inference
    helper: the result carries no gradient graph.
    """
    shape = outs[0].shape
    for v in outs[1:]:
        if v.shape != shape:
            raise ShapeError(f"view shapes differ: {shape} vs {v.shape}")
    dtype = outs[0].dtype
    acc = np.zeros(shape, dtype=np.float64)
    for wk, v in zip(w.w, outs):
        acc += float(wk) * v.data.astype(np.float64)
    return Tensor(acc.astype(dtype))


class Adam:
    """Bias-corrected Adam over a fixed parameter list.

    ``step()`` updates every parameter that has a ``.grad``. ``backward(loss, names)``
    instead updates each parameter inside ``tensor.backward``, as soon as its
    gradient is complete, and keeps no gradient: the parameter update is fused
    into backward as LOMO fuses it (Lv et al., arXiv:2306.09782), so the
    gradients are never all resident together, and large updates overlap the rest
    of the replay on the engine's pool. Both run one update body, so they give the
    same bits; ``step_count`` advances once per step either way.

    An update refuses a gradient whose squared norm ``g·g`` is not finite (a NaN or infinite
    element, or a finite ``g·g`` too large for the dtype): it raises a RuntimeError naming
    the parameter before it writes m, v or the parameter; earlier updates of the step stay.
    """

    def __init__(self, params: Sequence[Tensor], lr: float):
        self.params = list(params)
        self.lr = lr
        self.step_count = 0
        # np.zeros takes zero pages from calloc, not committed until the first step writes
        # them; np.zeros_like would write every page now
        self.m = [np.zeros(p.data.shape, p.data.dtype) for p in self.params]
        self.v = [np.zeros(p.data.shape, p.data.dtype) for p in self.params]
        # Tensor hashes by identity
        self._moments = {p: (m, v) for p, m, v in zip(self.params, self.m, self.v)}

    def _advance(self):
        self.step_count += 1
        self._bias_corrections = (1.0 - ADAM_BETA1 ** self.step_count,
                                  1.0 - ADAM_BETA2 ** self.step_count)

    def _update(self, p: Tensor, g: np.ndarray, name: str):
        """Apply this step's update to parameter p, called ``name``, given its gradient g."""
        flat = g.reshape(-1)
        norm2 = np.dot(flat, flat)
        if not math.isfinite(norm2):
            raise RuntimeError(
                f"gradient of parameter {name!r} is not finite, or its squared norm overflows "
                f"{g.dtype}; the update is refused and {name!r} is unchanged"
            )
        m, v = self._moments[p]
        bc1, bc2 = self._bias_corrections
        # m += (1 - b1)(g - m); v += (1 - b2)(g * g - v); p -= lr (m / bc1) / (sqrt(v / bc2) + eps):
        # the operations of that expression form, in its order, through two temporaries
        t = g - m
        t *= 1.0 - ADAM_BETA1
        m += t
        np.multiply(g, g, out=t)
        t -= v
        t *= 1.0 - ADAM_BETA2
        v += t
        upd = m / bc1
        upd *= self.lr
        np.divide(v, bc2, out=t)
        np.sqrt(t, out=t)
        t += ADAM_EPS
        upd /= t
        p.data -= upd

    def step(self):
        self._advance()
        for i, p in enumerate(self.params):
            if p.grad is not None:
                self._update(p, p.grad, f"params[{i}]")

    def backward(self, loss: Tensor, names: Mapping[Tensor, str]):
        """Backpropagate the loss and take this step, each parameter's update applied
        inside backward once its gradient is complete (``tensor.backward``'s sink).
        ``names`` maps each parameter to the name an error gives it. Every requires_grad
        leaf of the loss's graph must be one of the parameters.

        An update worth a hand-over is forked to the engine's pool, at most one at a
        time, and overlaps the rest of the replay; a smaller one runs at once. An
        update's error reaches the caller unchanged, the first in hand-over order, and
        this returns or raises only once no update is running."""
        self._advance()
        last = None  # the forked update in flight

        def sink(p, g):
            nonlocal last
            # an element's update, 16 passes over the arrays, takes about as long as 200
            # one-thread GEMM multiply-adds (README, "Parallelism")
            work = 200 * g.size
            if work < T.FORK_MIN_WORK:  # too small to hand over: run now, beside the one in flight
                self._update(p, g, names[p])
                return
            if last is not None:
                task, last = last, None
                T.join(task)
            last = T.fork(work, self._update, p, g, names[p])

        try:
            T.backward(loss, sink=sink)
        finally:
            if last is not None:  # an error it raises came first in hand-over order
                T.join(last)

    def zero_grad(self):
        for p in self.params:
            p.grad = None


@dataclass
class EpochReport:
    losses: np.ndarray  # epoch-mean per-view losses
    weights: np.ndarray  # solved from the epoch-mean losses
    objective: float
    batch_weights: list[np.ndarray] = field(default_factory=list)


def train_epoch(
    model: SegmentationModel,
    optimizer: Adam,
    batches: Sequence[tuple[Tensor, Tensor]],
    lam: float,
) -> EpochReport:
    """One alternating-optimization pass over the batches.

    Per batch: forward the three views, solve the weights exactly from the
    detached losses, then step the parameters on the weighted sum with the
    weights as constants: Adam updates each parameter inside backward, so no
    ``.grad`` is written. The epoch report re-solves the weights from the
    epoch-mean losses and stores them on the model for inference.
    """
    if not batches:
        raise ValueError("train_epoch needs at least one batch")
    model.train()
    names = {p: name for name, p in model.named_parameters()}
    sums = np.zeros(3)
    per_batch_w = []
    for images, masks in batches:
        # the step releases its graph on every exit, the non-finite-loss abort included
        with T.step():
            losses = [view_loss(pre, masks) for pre in model(images)]
            for name, lk in zip(ViewOutputs._fields, losses):
                if not np.isfinite(lk.data).all():
                    raise RuntimeError(f"non-finite loss in view {name!r}; aborting")
            vals = [float(lk.item()) for lk in losses]
            w = solve_weights(vals, lam)
            per_batch_w.append(w.w)
            # python floats keep the weighted sum in the losses' dtype
            weighted = sum(lk * float(wk) for lk, wk in zip(losses, w.w))
            optimizer.backward(weighted, names)
        sums += vals
    means = sums / len(batches)
    w_epoch = solve_weights(means, lam)
    model.view_weights[...] = w_epoch.w
    return EpochReport(
        losses=means,
        weights=w_epoch.w,
        objective=total_objective(w_epoch, means),
        batch_weights=per_batch_w,
    )
