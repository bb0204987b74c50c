"""Release gate: nine checks, one printed PASS/FAIL line each.

Run with output visible to read the report:

    pytest tests/test_acceptance.py -s

Every check pins its tolerance next to the assertion. The two long ones
(gradients, toy overfit) carry the `slow` marker but still run by default.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

import coopseg.gradcheck as gc
from coopseg.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from coopseg.cli import main
from coopseg.config import RunConfig, toy_config
from coopseg.data import synth_dataset
from coopseg.metrics import dice, iou, mae
from coopseg.model import SegmentationModel, ViewOutputs
from coopseg.tensor import Tensor, no_grad
from coopseg.train import (
    Adam,
    ViewWeights,
    fuse_decision,
    solve_weights,
    train_epoch,
    view_loss,
)

from helpers import brute_force_weights, dice_count, iou_count, random_simplex


def _report(num: int, label: str, ok: bool, detail: str = ""):
    tail = f"  ({detail})" if detail else ""
    print(f"[criterion {num}] {label}: {'PASS' if ok else 'FAIL'}{tail}", flush=True)
    assert ok, f"criterion {num} failed: {label}{tail}"


@pytest.mark.slow
def test_c1_gradients_vs_finite_differences():
    t0 = time.perf_counter()
    results = gc.run_op_suite(seed=0, inputs_per_op=5)
    model_err = gc.check_model_end_to_end(seed=0, n_samples=50)
    elapsed = time.perf_counter() - t0
    worst = max([r.max_rel_err for r in results] + [model_err])
    ok = all(r.ok for r in results) and model_err < 1e-4 and elapsed < 120.0
    _report(1, "gradient suite (ops + end-to-end model)", ok,
            f"worst rel err {worst:.2e}, {elapsed:.0f}s")


def test_c2_weight_solver_matches_brute_force():
    rng = np.random.default_rng(2024)
    worst_comp = worst_sum = worst_shift = 0.0
    for _ in range(20):
        losses = rng.uniform(0.05, 3.0, size=3)
        for lam in (0.1, 1.0, 10.0):
            w = solve_weights(losses, lam)
            ref = brute_force_weights(losses, lam)
            worst_comp = max(worst_comp, float(np.abs(w.w - ref).max()))
            worst_sum = max(worst_sum, abs(float(w.w.sum()) - 1.0))
            shifted = solve_weights(losses + 0.37, lam)
            worst_shift = max(worst_shift, float(np.abs(shifted.w - w.w).max()))
    ok = worst_comp < 1e-3 and worst_sum < 1e-9 and worst_shift < 1e-12
    _report(2, "weight solver vs brute-force simplex scan", ok,
            f"comp {worst_comp:.1e}, sum {worst_sum:.1e}, shift {worst_shift:.1e}")


def test_c3_loss_golden_values():
    pre = Tensor(np.full((1, 1, 2, 2), 0.5))
    gt = Tensor(np.array([[[[1.0, 1.0], [0.0, 0.0]]]]))
    total = float(view_loss(pre, gt).item())
    golden = 2.0 / 3.0 + math.log(2.0)  # iou term + bce on the 2-of-4 mask
    err_golden = abs(total - golden)

    rng = np.random.default_rng(33)
    worst = 0.0
    for _ in range(25):
        p = rng.uniform(0.01, 0.99, size=(1, 1, 8, 8))
        g = (rng.uniform(size=(1, 1, 8, 8)) < 0.5).astype(np.float64)
        got = float(view_loss(Tensor(p), Tensor(g)).item())
        inter = (g * p).sum()
        union = (g + p - g * p).sum()
        pc = np.clip(p, 1e-7, 1.0 - 1e-7)
        bce = -(g * np.log(pc) + (1.0 - g) * np.log(1.0 - pc)).mean()
        worst = max(worst, abs(got - ((1.0 - inter / union) + bce)))
    ok = err_golden < 1e-9 and worst < 1e-10
    _report(3, "loss goldens and per-pixel oracle", ok,
            f"golden {err_golden:.1e}, oracle {worst:.1e}")


def test_c4_full_size_shape_contract():
    cfg = RunConfig().validate()
    model = SegmentationModel(cfg).eval()
    x = Tensor(np.random.default_rng(4).uniform(0, 1, (1, 3, 352, 352)).astype(np.float32))
    with no_grad():
        t = model.transformer(x)
        c = model.cnn(x)
        views = (model.head_t(t.s4), model.head_c(c),
                 model.decoder(*model.fused_maps(t, c)))
    feats_ok = (t.s16.shape == (1, cfg.d_model, 22, 22)
                and t.s8.shape == (1, 128, 44, 44)
                and t.s4.shape == (1, 64, 88, 88))
    views_ok = all(
        v.shape == (1, 1, 352, 352) and v.data.min() >= 0.0 and v.data.max() <= 1.0
        for v in views
    )
    _report(4, "352px shape contract (pyramid + views)", feats_ok and views_ok,
            f"s16 {t.s16.shape}, s8 {t.s8.shape}, s4 {t.s4.shape}")


@pytest.mark.slow
def test_c5_toy_overfit():
    t0 = time.perf_counter()
    cfg = toy_config(batch_size=8, lr=2e-4, lam=1.0, seed=0)
    samples = synth_dataset(8, 64, seed=32)
    images = Tensor(np.stack([s.image for s in samples]).astype(np.float32))
    masks = Tensor(np.stack([s.mask for s in samples]).astype(np.float32))
    model = SegmentationModel(cfg)
    opt = Adam(model.parameters(), lr=cfg.lr)
    batches = [(images, masks)]

    on_simplex = True
    for _ in range(300):
        report = train_epoch(model, opt, batches, lam=cfg.lam)
        for w in report.batch_weights + [report.weights]:
            on_simplex &= abs(float(w.sum()) - 1.0) < 1e-9 and bool((w >= 0).all())

    model.eval()
    with no_grad():
        outs = model(images)
        fused = fuse_decision(ViewWeights(model.view_weights.copy(), cfg.lam), outs)
    mdice = float(np.mean([dice(fused.data[i, 0], masks.data[i, 0]) for i in range(8)]))
    elapsed = time.perf_counter() - t0
    ok = mdice >= 0.95 and on_simplex and elapsed < 600.0
    _report(5, "toy overfit (300 steps, 8 images)", ok,
            f"fused mDice {mdice:.4f}, simplex {'held' if on_simplex else 'broken'}, {elapsed:.0f}s")


def test_c6_ablation_grid():
    x = Tensor(np.random.default_rng(6).uniform(0, 1, (2, 3, 64, 64)).astype(np.float32))
    combos = [(True, True), (True, False), (False, True), (False, False)]
    outs = {}
    for glff, dfm in combos:
        cfg = toy_config(stage_units=1, glff_on=glff, dfm_on=dfm)
        with no_grad():
            outs[(glff, dfm)] = SegmentationModel(cfg).eval()(x)

    min_gap = math.inf
    for i in range(len(combos)):
        for j in range(i + 1, len(combos)):
            gap = float(np.abs(outs[combos[i]].fusion.data - outs[combos[j]].fusion.data).max())
            min_gap = min(min_gap, gap)
    shapes_ok = all(
        v.shape == (2, 1, 64, 64) and v.data.min() >= 0.0 and v.data.max() <= 1.0
        for o in outs.values() for v in o
    )
    branches_ok = all(
        np.array_equal(o.transformer.data, outs[(True, True)].transformer.data)
        and np.array_equal(o.cnn.data, outs[(True, True)].cnn.data)
        for o in outs.values()
    )
    ok = min_gap > 1e-6 and shapes_ok and branches_ok
    _report(6, "ablation grid {GLFF,DFM} x {on,off}", ok,
            f"min pairwise gap {min_gap:.2e}")


def test_c7_metrics_vs_count_oracle():
    rng = np.random.default_rng(7)
    all_exact = True
    pairs = [(np.zeros((16, 16)), np.zeros((16, 16)))]
    while len(pairs) < 100:
        a = (rng.uniform(size=(16, 16)) < rng.uniform()).astype(np.float64)
        b = (rng.uniform(size=(16, 16)) < rng.uniform()).astype(np.float64)
        pairs.append((a, b))
    for a, b in pairs:
        d, u, m = dice(a, b), iou(a, b), mae(a, b)
        all_exact &= d == dice_count(a, b) and u == iou_count(a, b)
        all_exact &= m == float(np.abs(a - b).mean())
        na, nb = int(a.sum()), int(b.sum())
        inter = int((a * b).sum())
        ufrac = Fraction(inter, na + nb - inter) if na + nb - inter else Fraction(1)
        all_exact &= d == float(2 * ufrac / (1 + ufrac))
    _report(7, "metrics exact vs pixel counts (100 pairs)", all_exact)


def test_c8_decision_properties():
    rng = np.random.default_rng(8)
    vertex_ok = envelope_ok = True
    for _ in range(20):
        views = ViewOutputs(*(
            Tensor(rng.uniform(0, 1, (2, 1, 6, 6)).astype(np.float32)) for _ in range(3)
        ))
        for k in range(3):
            wv = np.zeros(3)
            wv[k] = 1.0
            out = fuse_decision(ViewWeights(wv, 1.0), views)
            vertex_ok &= np.array_equal(out.data, views[k].data)
        out = fuse_decision(ViewWeights(random_simplex(rng), 1.0), views)
        stack = np.stack([v.data for v in views])
        envelope_ok &= bool((out.data >= stack.min(axis=0)).all())
        envelope_ok &= bool((out.data <= stack.max(axis=0)).all())
    _report(8, "fused decision: vertex bitwise + envelope", vertex_ok and envelope_ok)


def test_c9_determinism_and_persistence(tmp_path):
    lines = [
        "image_size = 32", "d_model = 48", "heads = 6", "depth = 2",
        "stem_channels = 4", "stage_units = 1", "c4 = 8", "c8 = 12", "c16 = 16",
        "batch_size = 2", "synth_samples = 2", "epochs = 2", "lr = 0.0002",
    ]
    cfg_path = tmp_path / "toy.cfg"
    cfg_path.write_text("\n".join(lines) + "\n")
    runs = []
    for name in ("a", "b"):
        out_dir = tmp_path / name
        rc = main(["train", "--config", str(cfg_path), "--seed", "5",
                   "--out-dir", str(out_dir)])
        runs.append((rc, (out_dir / "model_final.ckpt").read_bytes()))
    deterministic = runs[0][0] == 0 and runs[1][0] == 0 and runs[0][1] == runs[1][1]

    ckpt = tmp_path / "a" / "model_final.ckpt"
    state = load_checkpoint(ckpt)
    resaved = tmp_path / "roundtrip.ckpt"
    save_checkpoint(resaved, state)
    round_trip = resaved.read_bytes() == runs[0][1]

    blob = bytearray(runs[0][1])
    blob[len(blob) // 2] ^= 0xFF
    corrupted = tmp_path / "corrupt.ckpt"
    corrupted.write_bytes(bytes(blob))
    try:
        load_checkpoint(corrupted)
        corruption_detected = False
    except CheckpointError:
        corruption_detected = True
    ok = deterministic and round_trip and corruption_detected
    _report(9, "determinism, round-trip, corruption detection", ok,
            f"det {deterministic}, rt {round_trip}, crc {corruption_detected}")
