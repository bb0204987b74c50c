"""Overlap metrics and their exact arithmetic identities."""

from fractions import Fraction

import numpy as np
import pytest

import helpers
from coopseg.metrics import THRESHOLD, dice, evaluate_pairs, iou, mae


def rng_of(seed):
    return np.random.default_rng(seed)


class TestSingles:
    def test_identical_masks(self):
        m = (rng_of(0).uniform(size=(16, 16)) > 0.5).astype(float)
        assert dice(m, m) == 1.0
        assert iou(m, m) == 1.0
        assert mae(m, m) == 0.0

    def test_disjoint_nonempty(self):
        a = np.zeros((4, 4))
        b = np.zeros((4, 4))
        a[0, 0] = 1.0
        b[3, 3] = 1.0
        assert dice(a, b) == 0.0
        assert iou(a, b) == 0.0

    def test_both_empty_convention(self):
        z = np.zeros((5, 5))
        assert dice(z, z) == 1.0
        assert iou(z, z) == 1.0

    def test_counted_example(self):
        # |P| = 3, |G| = 3, overlap 2
        p = np.array([[1, 1, 1, 0]], dtype=float)
        g = np.array([[0, 1, 1, 1]], dtype=float)
        assert dice(p, g) == pytest.approx(4.0 / 6.0, abs=0)
        assert iou(p, g) == pytest.approx(2.0 / 4.0, abs=0)

    def test_threshold_rule(self):
        g = np.ones((1, 2))
        p = np.array([[0.5, 0.5001]])
        # exactly 0.5 is background, strictly above is foreground
        assert dice(p, g) == pytest.approx(2 / 3)
        assert THRESHOLD == 0.5

    def test_mae_is_probability_level(self):
        p = np.array([[0.25, 0.75]])
        g = np.array([[0.0, 1.0]])
        assert mae(p, g) == pytest.approx(0.25, abs=1e-15)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(Exception):
            dice(np.zeros((2, 2)), np.zeros((3, 3)))


class TestPairProperties:
    def test_hundred_random_pairs_match_count_oracle(self):
        rng = rng_of(1)
        for _ in range(100):
            p = (rng.uniform(size=(16, 16)) > rng.uniform(0.2, 0.8)).astype(float)
            g = (rng.uniform(size=(16, 16)) > rng.uniform(0.2, 0.8)).astype(float)
            assert dice(p, g) == helpers.dice_count(p, g)
            assert iou(p, g) == helpers.iou_count(p, g)

    def test_dice_iou_identity_exact(self):
        # dice == 2*iou/(1+iou) as rational numbers, no float tolerance
        rng = rng_of(2)
        for _ in range(100):
            p = (rng.uniform(size=(16, 16)) > 0.5).astype(float)
            g = (rng.uniform(size=(16, 16)) > 0.5).astype(float)
            inter = int((p * g).sum())
            ps, gs = int(p.sum()), int(g.sum())
            if ps + gs == 0:
                continue
            d = Fraction(2 * inter, ps + gs)
            u = Fraction(inter, ps + gs - inter)
            assert d == 2 * u / (1 + u)
            assert dice(p, g) == float(d)

    def test_symmetry(self):
        rng = rng_of(3)
        for _ in range(20):
            p = (rng.uniform(size=(8, 8)) > 0.5).astype(float)
            g = (rng.uniform(size=(8, 8)) > 0.5).astype(float)
            assert dice(p, g) == dice(g, p)
            assert iou(p, g) == iou(g, p)

    def test_dice_dominates_iou(self):
        rng = rng_of(4)
        for _ in range(50):
            p = (rng.uniform(size=(8, 8)) > 0.5).astype(float)
            g = (rng.uniform(size=(8, 8)) > 0.5).astype(float)
            assert dice(p, g) >= iou(p, g)

    def test_range(self):
        rng = rng_of(5)
        for _ in range(50):
            p = rng.uniform(size=(8, 8))
            g = (rng.uniform(size=(8, 8)) > 0.5).astype(float)
            assert 0.0 <= dice(p, g) <= 1.0
            assert 0.0 <= iou(p, g) <= 1.0
            assert 0.0 <= mae(p, g) <= 1.0


class TestReport:
    def test_one_row_per_pair(self):
        rng = rng_of(6)
        ids = [f"s{i}" for i in range(4)]
        preds = [rng.uniform(size=(6, 6)) for _ in ids]
        gts = [(rng.uniform(size=(6, 6)) > 0.5).astype(float) for _ in ids]
        rows = evaluate_pairs(ids, preds, gts)
        assert rows == [(i, dice(p, g), iou(p, g), mae(p, g)) for i, p, g in zip(ids, preds, gts)]
        for _, d, u, _ in rows:
            assert d >= u

    @pytest.mark.parametrize("n_ids,n_preds,n_gts", [(3, 1, 1), (2, 2, 1), (1, 2, 2)])
    def test_length_mismatch_rejected(self, n_ids, n_preds, n_gts):
        g = np.ones((4, 4))
        with pytest.raises(ValueError, match="ids"):
            evaluate_pairs([f"s{i}" for i in range(n_ids)], [g] * n_preds, [g] * n_gts)

    def test_perfect_rows(self):
        g = (rng_of(7).uniform(size=(8, 8)) > 0.5).astype(float)
        assert evaluate_pairs(["a"], [g.copy()], [g]) == [("a", 1.0, 1.0, 0.0)]
