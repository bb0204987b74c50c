#!/usr/bin/env python3
"""Train the four {GLFF, DFM} switch combinations on the synthetic toy set.

Each combination trains for the same number of full-batch steps from the
same seeds; the table reports the final per-view and fused training mDice.
Only the fusion view depends on the switches, so the transformer and CNN
columns agree across rows up to training interaction.
"""

import argparse
import time

import numpy as np

from coopseg.config import toy_config
from coopseg.data import make_batches, synth_dataset
from coopseg.model import SegmentationModel
from coopseg.train import Adam, train_epoch
from run_toy_overfit import fused_mdice

COMBOS = [(True, True), (True, False), (False, True), (False, False)]


def run_combo(glff: bool, dfm: bool, images, masks, steps: int, lr: float, lam: float, seed: int):
    cfg = toy_config(batch_size=images.shape[0], lr=lr, lam=lam, seed=seed,
                     glff_on=glff, dfm_on=dfm)
    model = SegmentationModel(cfg)
    opt = Adam(model.parameters(), lr=cfg.lr)
    batches = [(images, masks)]
    for _ in range(steps):
        train_epoch(model, opt, batches, lam=cfg.lam)
    fused, per_view = fused_mdice(model, images, masks, cfg.lam)
    return per_view + [fused]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--steps", type=int, default=100)
    ap.add_argument("--lr", type=float, default=2e-4)
    ap.add_argument("--lambda", dest="lam", type=float, default=1.0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--data-seed", type=int, default=32)
    args = ap.parse_args()

    [(_, images, masks)] = make_batches(synth_dataset(8, 64, args.data_seed), 8, np.float32)

    print(f"{'glff':>5s} {'dfm':>5s} | {'transformer':>11s} {'cnn':>8s} {'fusion':>8s} {'fused':>8s}")
    print("-" * 54)
    for glff, dfm in COMBOS:
        t0 = time.time()
        tr, cn, fu, fused = run_combo(glff, dfm, images, masks,
                                      args.steps, args.lr, args.lam, args.seed)
        print(f"{str(glff):>5s} {str(dfm):>5s} | {tr:11.4f} {cn:8.4f} {fu:8.4f} {fused:8.4f}"
              f"   [{time.time() - t0:.0f}s]", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
