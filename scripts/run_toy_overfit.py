#!/usr/bin/env python3
"""Overfit the three-view model on the 8-image synthetic ellipse set.

Reports the per-view losses, the cooperative weights and the fused training
mDice every 25 steps. The defaults reproduce the release-gate run: fused
mDice >= 0.95 after 300 full-batch Adam steps in about a minute on one core.
"""

import argparse
import time

import numpy as np

from coopseg.config import toy_config
from coopseg.data import make_batches, synth_dataset
from coopseg.metrics import evaluate_pairs
from coopseg.model import SegmentationModel
from coopseg.train import Adam, ViewWeights, fuse_decision, train_epoch


def fused_mdice(model, images, masks, lam):
    """Eval-mode training mDice of the fused decision and of each view."""
    model.eval()
    outs = model(images)
    fused = fuse_decision(ViewWeights(model.view_weights, lam), outs)
    model.train()

    def mdice(pred):
        rows = evaluate_pairs(range(len(pred.data)), pred.data[:, 0], masks.data[:, 0])
        return float(np.mean([d for _, d, _, _ in rows]))

    return mdice(fused), [mdice(o) for o in outs]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--steps", type=int, default=300)
    ap.add_argument("--lr", type=float, default=2e-4)
    ap.add_argument("--lambda", dest="lam", type=float, default=1.0)
    ap.add_argument("--seed", type=int, default=0, help="model init seed")
    ap.add_argument("--data-seed", type=int, default=32)
    args = ap.parse_args()

    cfg = toy_config(batch_size=8, lr=args.lr, lam=args.lam, seed=args.seed)
    samples = synth_dataset(8, cfg.image_size, args.data_seed)
    [(_, images, masks)] = make_batches(samples, cfg.batch_size, np.float32)
    model = SegmentationModel(cfg)
    opt = Adam(model.parameters(), lr=cfg.lr)
    batches = [(images, masks)]

    t0 = time.time()
    for step in range(1, args.steps + 1):
        report = train_epoch(model, opt, batches, lam=cfg.lam)
        if step % 25 == 0 or step == 1 or step == args.steps:
            md, per_view = fused_mdice(model, images, masks, cfg.lam)
            print(
                f"step {step:4d}  losses {np.round(report.losses, 3)}  "
                f"w {np.round(report.weights, 3)}  views {np.round(per_view, 3)}  "
                f"fused mDice {md:.4f}  [{time.time() - t0:.0f}s]",
                flush=True,
            )

    md, per_view = fused_mdice(model, images, masks, cfg.lam)
    print(f"\nfinal fused training mDice {md:.4f} "
          f"(transformer {per_view[0]:.4f}, cnn {per_view[1]:.4f}, fusion {per_view[2]:.4f})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
