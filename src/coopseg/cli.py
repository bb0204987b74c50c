"""Command-line surface: train, eval, predict, gradcheck.

Exit codes: 0 success, 1 runtime failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import gradcheck as gc
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .config import ConfigError, RunConfig, build_config, config_lines, parse_config_file
from .data import DataError, SegmentationSample, load_dataset, make_batches, synth_dataset, write_gray
from .metrics import evaluate_pairs
from .model import SegmentationModel, ViewOutputs
from .tensor import Tensor
from .train import Adam, ViewWeights, fuse_decision, train_epoch

FINAL_CKPT = "model_final.ckpt"
CONFIG_ECHO = "config_used.cfg"


def _add_run_flags(p: argparse.ArgumentParser, config_help: str = "flat key = value config file"):
    """The flags train, eval and predict share. Training fixes the model's shape, so only
    train adds --image-size, --no-glff, --no-dfm, --epochs and --lambda; eval and predict
    read the shape from the run's config."""
    p.add_argument("--config", help=config_help)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-dir", dest="out_dir", default=None)
    p.add_argument("--data-dir", dest="data_dir", default=None)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coopseg",
        description="Two-branch segmentation with cooperative multi-view training",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("train", help="train a model and write per-epoch checkpoints plus a log CSV")
    _add_run_flags(p)
    p.add_argument("--image-size", dest="image_size", type=int, default=None)
    p.add_argument("--no-glff", dest="glff_on", action="store_const", const=False,
                   help="replace per-scale fusion with a plain 1x1 mix (ablation)")
    p.add_argument("--no-dfm", dest="dfm_on", action="store_const", const=False,
                   help="replace the dense decoder with a plain head (ablation)")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="entropy temperature of the view-weight solver")
    for name, desc in (
        ("eval", "score a checkpoint on a dataset, writing a metrics CSV"),
        ("predict", "write 8-bit grayscale mask images for each input"),
    ):
        p = sub.add_parser(name, help=desc)
        _add_run_flags(p, f"flat key = value config file (default: <out-dir>/{CONFIG_ECHO})")
        p.add_argument("--checkpoint", default=None,
                       help=f"model file (default: <out-dir>/{FINAL_CKPT})")
    sub.add_parser("gradcheck", help="run the finite-difference gradient suite")
    return parser


def _config_from_args(args, reuse_run_config: bool = False) -> RunConfig:
    config_path = args.config
    if config_path is None and reuse_run_config:
        # score/export with the settings the run was trained under
        echo = Path(args.out_dir or RunConfig.out_dir) / CONFIG_ECHO
        if echo.is_file():
            config_path = echo
    file_values = parse_config_file(config_path) if config_path else {}
    # eval and predict lack the train-only flags, which read as None here
    names = ("seed", "epochs", "lam", "image_size", "glff_on", "dfm_on", "out_dir", "data_dir")
    overrides = {name: getattr(args, name, None) for name in names}
    return build_config(file_values, **overrides)  # it skips None overrides


def _get_samples(cfg: RunConfig) -> list[SegmentationSample]:
    if cfg.data_dir:
        samples = load_dataset(cfg.data_dir, cfg.image_size)
        if not samples:
            raise DataError(f"no samples found under {cfg.data_dir!r}")
        return samples
    return synth_dataset(cfg.synth_samples, cfg.image_size, cfg.seed)


def _csv_line(row: list) -> str:
    return ",".join(format(v, ".10g") if isinstance(v, float) else str(v) for v in row) + "\n"


def cmd_train(args) -> int:
    cfg = _config_from_args(args)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / CONFIG_ECHO).write_text("\n".join(config_lines(cfg)) + "\n")
    # the float64 samples are dropped once batched: the run holds its data once
    batches = [(x, y) for _, x, y in make_batches(_get_samples(cfg), cfg.batch_size, cfg.dtype)]
    model = SegmentationModel(cfg)
    optimizer = Adam(model.parameters(), lr=cfg.lr)
    log_path = out_dir / "train_log.csv"
    with open(log_path, "w", newline="\n") as log:
        log.write(_csv_line(["epoch", "loss_1", "loss_2", "loss_3", "w_1", "w_2", "w_3",
                             "objective"]))
    for epoch in range(1, cfg.epochs + 1):
        report = train_epoch(model, optimizer, batches, cfg.lam)
        save_checkpoint(out_dir / f"epoch_{epoch:04d}.ckpt", dict(model.named_state()))
        # one row per finished epoch, closed at once, so a crash keeps the rows before it
        with open(log_path, "a", newline="\n") as log:
            log.write(_csv_line([epoch, *report.losses.tolist(), *report.weights.tolist(),
                                 report.objective]))
        print(
            f"epoch {epoch}: losses "
            + " ".join(f"{v:.4f}" for v in report.losses)
            + f" obj {report.objective:.4f}"
        )
    save_checkpoint(out_dir / FINAL_CKPT, dict(model.named_state()))
    return 0


def _decide(cfg: RunConfig, model: SegmentationModel, outs: ViewOutputs) -> Tensor:
    return fuse_decision(ViewWeights(model.view_weights, cfg.lam), outs)


def _decisions(cfg: RunConfig, checkpoint):
    """The inference loop of eval and predict: read the checkpoint first, so a
    missing or corrupt file fails before any other work, then batch the samples
    and fill the model from the state (no random draw), and yield each batch's
    sample ids, masks and decided maps. A non-finite map stops the loop."""
    path = Path(checkpoint) if checkpoint else Path(cfg.out_dir) / FINAL_CKPT
    state = load_checkpoint(path)
    batches = make_batches(_get_samples(cfg), cfg.batch_size, cfg.dtype)
    model = SegmentationModel(cfg, state).eval()
    del state  # the file's buffer would otherwise stay alive through every forward
    for ids, images, masks in batches:
        maps = _decide(cfg, model, model(images)).data
        if not np.isfinite(maps).all():
            bad = next(i for i, m in zip(ids, maps) if not np.isfinite(m).all())
            raise RuntimeError(f"non-finite decision for sample {bad!r} (checkpoint {path})")
        yield ids, masks.data, maps


def cmd_eval(args) -> int:
    cfg = _config_from_args(args, reuse_run_config=True)
    rows = []  # per image only: each batch's maps and masks are dropped once scored
    for batch_ids, masks, maps in _decisions(cfg, args.checkpoint):
        rows += evaluate_pairs(batch_ids, maps, masks)
    means = [float(np.mean(col)) for col in list(zip(*rows))[1:]]
    rows.append(["mean", *means])
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "eval.csv", "w", newline="\n") as fh:
        fh.writelines(_csv_line(row) for row in [["id", "dice", "iou", "mae"], *rows])
    print("mDice {:.4f}  mIoU {:.4f}  MAE {:.4f}".format(*means))
    return 0


def cmd_predict(args) -> int:
    cfg = _config_from_args(args, reuse_run_config=True)
    pred_dir = Path(cfg.out_dir) / "predictions"
    written = 0
    for batch_ids, _, maps in _decisions(cfg, args.checkpoint):
        pred_dir.mkdir(parents=True, exist_ok=True)
        for sample_id, prob in zip(batch_ids, maps):
            write_gray(pred_dir / f"{sample_id}.pgm", np.rint(255.0 * prob[0]).astype(np.uint8))
        written += len(batch_ids)
    print(f"wrote {written} mask images to {pred_dir}")
    return 0


def cmd_gradcheck(args) -> int:
    results = [
        *gc.run_op_suite(seed=0, inputs_per_op=5),
        gc.OpCheckResult("model_end_to_end", gc.check_model_end_to_end(seed=0, n_samples=50)),
    ]
    for r in results:
        print(f"{r.name:24s} max rel err {r.max_rel_err:.3e}  {'PASS' if r.ok else 'FAIL'}")
    return 0 if all(r.ok for r in results) else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "train": cmd_train,
        "eval": cmd_eval,
        "predict": cmd_predict,
        "gradcheck": cmd_gradcheck,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DataError, CheckpointError, RuntimeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a geometry that validates can still be too large to allocate
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
