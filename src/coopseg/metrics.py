"""Segmentation metrics: per-image Dice, IoU, and MAE.

Dice and IoU work on masks binarized at 0.5 and are computed with integer
pixel counts, so results are exact rational values; empty-vs-empty pairs
score 1.0.
"""

from __future__ import annotations

import numpy as np

from .tensor import ShapeError

THRESHOLD = 0.5


def _check_shapes(a: np.ndarray, b: np.ndarray):
    if a.shape != b.shape:
        raise ShapeError(f"metric operands differ: {a.shape} vs {b.shape}")


def _counts(pred: np.ndarray, gt: np.ndarray) -> tuple[int, int, int]:
    """(|P∩G|, |P|, |G|) of the two masks binarized at THRESHOLD."""
    _check_shapes(pred, gt)
    p = np.asarray(pred) > THRESHOLD
    g = np.asarray(gt) > THRESHOLD
    return int(np.count_nonzero(p & g)), int(np.count_nonzero(p)), int(np.count_nonzero(g))


def dice(pred: np.ndarray, gt: np.ndarray) -> float:
    """2|P∩G| / (|P|+|G|), with 0/0 := 1."""
    inter, n_p, n_g = _counts(pred, gt)
    total = n_p + n_g
    if total == 0:
        return 1.0
    return 2.0 * inter / total


def iou(pred: np.ndarray, gt: np.ndarray) -> float:
    """|P∩G| / |P∪G|, with 0/0 := 1."""
    inter, n_p, n_g = _counts(pred, gt)
    union = n_p + n_g - inter
    if union == 0:
        return 1.0
    return inter / union


def mae(pred: np.ndarray, gt: np.ndarray) -> float:
    """Mean absolute pixel error of the probabilistic prediction."""
    _check_shapes(pred, gt)
    return float(np.mean(np.abs(np.asarray(pred, dtype=np.float64) - np.asarray(gt, dtype=np.float64))))


def evaluate_pairs(ids, preds, gts) -> list[tuple]:
    """Score each (prediction, mask) pair: one (id, dice, iou, mae) row per pair."""
    if not len(ids) == len(preds) == len(gts):
        raise ValueError(
            f"evaluate_pairs: {len(ids)} ids, {len(preds)} predictions, {len(gts)} masks"
        )
    return [(i, dice(p, g), iou(p, g), mae(p, g)) for i, p, g in zip(ids, preds, gts)]
