"""One coopseg benchmark workload in a fresh process: set up, run, check.

``run.py`` starts this script once per workload. It pins the BLAS/OpenMP
thread variables to 1 before numpy is imported, imports coopseg from the
checkout's ``src/``, and writes one JSON result file. A failed check is
recorded in the result, not raised. Usage:

    python3 perfbench/workloads.py --workload toy_train --seed 1 --seconds 20 \\
        --trace 0 --out result.json [--spans spans.json]

Work per run is fixed by ``--seconds``: the number of timed iterations is
``seconds / NOMINAL_S`` rounded (at least ``MIN_UNITS``), where ``NOMINAL_S``
is the iteration time measured on a 2-core Xeon with one BLAS thread. Both
sides of a comparison therefore do the same work, and peak memory, which
grows with the number of spent graphs, is comparable between them.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import os  # noqa: E402

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"  # must happen before numpy is imported

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import coopseg  # noqa: E402
from coopseg import cli, train  # noqa: E402
from coopseg import tensor as T  # noqa: E402
from coopseg.checkpoint import load_checkpoint, save_checkpoint  # noqa: E402
from coopseg.config import RunConfig, config_lines, toy_config  # noqa: E402
from coopseg.data import synth_dataset  # noqa: E402
from coopseg.model import SegmentationModel  # noqa: E402

import tracer as tr  # noqa: E402

IMPORT_S = time.perf_counter() - _T0
clock = time.perf_counter

SETUP_REPEATS = 3  # setup_s takes the median of this many preparations
OBJECTIVE_AT = 3  # objective_final is read after this many timed iterations
PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")


def rss_mb() -> float:
    """Current resident set size, from /proc/self/statm."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * PAGE_BYTES / 1e6


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


@dataclass
class Phase:
    """Timed iterations of one phase and the throughput base."""

    windows: list[tuple[float, float]] = field(default_factory=list)
    planned: int = 0
    images: int = 0
    busy_s: float = 0.0  # time the images took; img_per_s = images / busy_s

    @property
    def durations(self) -> list[float]:
        return [b - a for a, b in self.windows]


class Workload:
    name = ""
    NOMINAL_S = 1.0  # one timed unit on the reference box
    # train workloads keep OBJECTIVE_AT iterations before objective_final is
    # read, also when a traced run halves the units
    MIN_UNITS = 1

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.checks: list[dict] = []
        self.reports: list[train.EpochReport] = []
        self.rss_after: list[float] = []  # after each timed iteration
        self.errors: list[str] = []

    def units(self, seconds: float) -> int:
        return max(self.MIN_UNITS, round(seconds / self.NOMINAL_S))

    def split(self, units: int) -> tuple[int, int]:
        """Units of the untraced and the traced phase of a traced run: half
        each, rounded down, so a traced run holds no more spent graphs."""
        half = max(units // 2, 1)
        return half, half

    def prepare(self):
        raise NotImplementedError

    def warmup(self):
        raise NotImplementedError

    def run(self, units: int) -> Phase:
        raise NotImplementedError

    def check(self, name: str, ok: bool, detail: str = ""):
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})

    def check_reports(self):
        """Every view loss finite; every solved weight vector on the simplex."""
        for i, r in enumerate(self.reports, start=1):
            self.check(f"iteration {i}: view losses finite", np.isfinite(r.losses).all(),
                       repr(r.losses.tolist()))
            ws = [r.weights, *r.batch_weights]
            self.check(f"iteration {i}: weights on simplex", all(_on_simplex(w) for w in ws),
                       repr([w.tolist() for w in ws]))

    def check_state(self, name: str, expected: dict, got: dict):
        same = expected.keys() == got.keys() and all(
            expected[k].dtype == got[k].dtype and np.array_equal(expected[k], got[k]) for k in expected
        )
        self.check(name, same)

    def mark(self, windows: list, start: float):
        windows.append((start, clock()))
        self.rss_after.append(rss_mb())


def _on_simplex(w: np.ndarray) -> bool:
    w = np.asarray(w, dtype=np.float64)
    return bool(np.isfinite(w).all() and (w >= 0).all() and abs(w.sum() - 1.0) <= 1e-9)


class ToyTrain(Workload):
    """``coopseg train`` in-process, toy geometry, 16 images, per-epoch checkpoints.

    Arrays are small and conv2d dominates; attention covers 16 tokens, so
    this is the bypass workload for transformer and attention changes.
    """

    name = "toy_train"
    NOMINAL_S = 0.8
    MIN_UNITS = 2 * OBJECTIVE_AT  # each train call builds a new model
    IMAGES = 16

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.config = work / "toy.cfg"
        cfg = toy_config(synth_samples=self.IMAGES, seed=seed)
        self.config.write_text("\n".join(config_lines(cfg)) + "\n")
        self.calls = 0

    def _train(self, epochs: int) -> tuple[int, Path]:
        self.calls += 1
        out = self.work / f"train{self.calls}"
        rc = cli.main(["train", "--config", str(self.config), "--epochs", str(epochs),
                       "--seed", str(self.seed), "--out-dir", str(out)])
        return rc, out

    def prepare(self):
        # data generation, model build, one epoch and its checkpoint writes
        rc, _ = self._train(1)
        if rc != 0:
            raise RuntimeError(f"warm-up train exited {rc}")

    def warmup(self):
        pass  # the prepared run already trained one epoch

    def run(self, epochs):
        phase = Phase(planned=epochs)
        starts: list[float] = []
        models = []
        train_epoch, save = cli.train_epoch, cli.save_checkpoint

        def epoch_hook(model, *args, **kwargs):
            starts.append(clock())
            models[:] = [model]
            report = train_epoch(model, *args, **kwargs)
            self.reports.append(report)
            return report

        def save_hook(path, state):
            save(path, state)
            if Path(path).name.startswith("epoch_"):
                self.mark(phase.windows, starts[-1])

        hooks = tr.Patcher()
        hooks.set(cli, "train_epoch", epoch_hook)
        hooks.set(cli, "save_checkpoint", save_hook)
        try:
            rc, out = self._train(epochs)
        finally:
            hooks.restore()
        self.check(f"train run {self.calls}: exit code 0", rc == 0, f"exit {rc}")
        phase.images = self.IMAGES * len(phase.windows)
        phase.busy_s = sum(phase.durations)
        if models and rc == 0:
            state = dict(models[0].named_state())
            self.check_state(f"train run {self.calls}: final checkpoint equals model state",
                             state, load_checkpoint(out / cli.FINAL_CKPT))
            self.check_state(f"train run {self.calls}: last epoch checkpoint equals model state",
                             state, load_checkpoint(out / f"epoch_{epochs:04d}.ckpt"))
        return phase


class PaperTrain(Workload):
    """``train.train_epoch`` at paper geometry, one single-image batch per call.

    Attention runs over 484 tokens in 12 blocks, so arrays are BLAS-sized;
    peak memory is set by saved activations and spent graphs.
    """

    name = "paper_train"
    NOMINAL_S = 4.0
    MIN_UNITS = OBJECTIVE_AT + 1  # one model across both phases
    IMAGES = 4  # distinct images, cycled

    def prepare(self):
        cfg = RunConfig(batch_size=1, seed=self.seed)
        samples = synth_dataset(self.IMAGES, cfg.image_size, self.seed)
        self.batches = [
            (T.Tensor(s.image[None].astype(np.float32)), T.Tensor(s.mask[None].astype(np.float32)))
            for s in samples
        ]
        self.model = SegmentationModel(cfg)
        self.optimizer = train.Adam(self.model.parameters(), lr=cfg.lr)
        self.lam = cfg.lam
        self.steps = 0

    def _step(self) -> train.EpochReport:
        batch = self.batches[self.steps % len(self.batches)]
        self.steps += 1
        return train.train_epoch(self.model, self.optimizer, [batch], self.lam)

    def warmup(self):
        self._step()

    def run(self, units):
        phase = Phase(planned=units)
        for _ in range(units):
            start = clock()
            try:
                report = self._step()
            except Exception:  # recorded as a failed iteration; the run goes on to report it
                self.errors.append(traceback.format_exc())
                break
            self.mark(phase.windows, start)
            self.reports.append(report)
        phase.images = len(phase.windows)
        phase.busy_s = sum(phase.durations)
        return phase


class PaperInfer(Workload):
    """``coopseg eval`` then ``coopseg predict`` in-process on a saved
    paper-geometry checkpoint, batch 4, 8 images: forward only under no_grad.
    """

    name = "paper_infer"
    NOMINAL_S = 24.0  # one eval + predict pass
    MIN_UNITS = 1
    IMAGES = 8
    BATCH = 4

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.cfg = RunConfig(batch_size=self.BATCH, synth_samples=self.IMAGES, seed=seed)
        self.run_dir = work / "run"
        self.passes = 0

    def prepare(self):
        self.ids = [s.id for s in synth_dataset(self.IMAGES, self.cfg.image_size, self.seed)]
        model = SegmentationModel(self.cfg)
        self.saved = dict(model.named_state())
        self.run_dir.mkdir(parents=True, exist_ok=True)
        ckpt = self.run_dir / cli.FINAL_CKPT
        save_checkpoint(ckpt, self.saved)
        (self.run_dir / cli.CONFIG_ECHO).write_text("\n".join(config_lines(self.cfg)) + "\n")
        self.model = SegmentationModel(self.cfg)
        self.model.load_state(load_checkpoint(ckpt))
        self.model.eval()

    def warmup(self):
        samples = synth_dataset(self.BATCH, self.cfg.image_size, self.seed)
        images = T.Tensor(np.stack([s.image for s in samples]).astype(np.float32))
        with T.no_grad():
            cli._decide(self.cfg, self.model, self.model(images))
        self.model = None

    def run(self, passes):
        phase = Phase(planned=passes * 2 * (self.IMAGES // self.BATCH))
        starts: list[float] = []
        check_s = [0.0]
        model_call, decide, load = SegmentationModel.__call__, cli._decide, cli.load_checkpoint

        def call_hook(model, images):
            starts.append(clock())
            return model_call(model, images)

        def decide_hook(*args):
            out = decide(*args)
            self.mark(phase.windows, starts[-1])
            return out

        def load_hook(path):
            state = load(path)
            t = clock()
            self.check_state(f"pass {self.passes}: loaded checkpoint equals saved model state",
                             self.saved, state)
            check_s[0] += clock() - t
            return state

        argv = ["--out-dir", str(self.run_dir)]
        pred_dir = self.run_dir / "predictions"
        for _ in range(passes):
            self.passes += 1
            shutil.rmtree(pred_dir, ignore_errors=True)
            (self.run_dir / "eval.csv").unlink(missing_ok=True)
            hooks = tr.Patcher()
            hooks.set(SegmentationModel, "__call__", call_hook)
            hooks.set(cli, "_decide", decide_hook)
            hooks.set(cli, "load_checkpoint", load_hook)
            try:
                t = clock()
                rc_eval = cli.main(["eval", *argv])
                phase.busy_s += clock() - t
                self.check_eval_csv()
                t = clock()
                rc_pred = cli.main(["predict", *argv])
                phase.busy_s += clock() - t
            finally:
                hooks.restore()
            self.check(f"pass {self.passes}: eval exit code 0", rc_eval == 0, f"exit {rc_eval}")
            self.check(f"pass {self.passes}: predict exit code 0", rc_pred == 0, f"exit {rc_pred}")
            self.check_predictions(pred_dir)
            phase.images += 2 * self.IMAGES
        phase.busy_s -= check_s[0]
        return phase

    def check_eval_csv(self):
        path = self.run_dir / "eval.csv"
        rows = [line.split(",") for line in path.read_text().splitlines()] if path.is_file() else []
        body = rows[1:-1]
        self.check(f"pass {self.passes}: eval.csv has one row per input and a mean row",
                   rows[:1] == [["id", "dice", "iou", "mae"]]
                   and [r[0] for r in body] == self.ids and rows[-1][0] == "mean",
                   f"{len(rows)} lines")
        ok = False
        if body and len(rows[-1]) == 4:
            values = np.array([[float(v) for v in r[1:]] for r in body])
            mean_row = np.array([float(v) for v in rows[-1][1:]])
            # cells carry 10 significant digits
            ok = bool(np.allclose(values.mean(axis=0), mean_row, rtol=0, atol=1e-9))
        self.check(f"pass {self.passes}: eval.csv mean row equals the mean of the image rows", ok)

    def check_predictions(self, pred_dir: Path):
        files = sorted(p.name for p in pred_dir.iterdir()) if pred_dir.is_dir() else []
        expected = sorted(f"{i}.pgm" for i in self.ids)
        size = self.cfg.image_size
        header = f"P5\n{size} {size}\n255\n".encode()
        ok = files == expected and all(
            (blob := (pred_dir / f).read_bytes()).startswith(header)
            and len(blob) == len(header) + size * size
            for f in files
        )
        self.check(f"pass {self.passes}: one 8-bit {size}x{size} PGM per input", ok,
                   f"{len(files)} files")


WORKLOADS = {w.name: w for w in (ToyTrain, PaperTrain, PaperInfer)}


def tail(samples: list[float]):
    """Highest percentile with at least 10 samples above it: (value, percentile).

    None below 20 samples, where that percentile would lie under the median.
    """
    n = len(samples)
    if n < 20:
        return None
    return sorted(samples)[n - 11], 100.0 * (n - 10) / n


def environment() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {}),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": _git_commit(),
        "coopseg": str(Path(coopseg.__file__).resolve().parent),
    }


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def measure(wl: Workload, seconds: float, traced: bool, spans_path: Path | None) -> dict:
    prep = []
    for _ in range(SETUP_REPEATS):
        t = clock()
        wl.prepare()
        prep.append(clock() - t)
    t = clock()
    wl.warmup()
    warm_s = clock() - t
    units = wl.units(seconds)
    result = {
        "setup": {"import_s": IMPORT_S, "prepare_s": prep, "warmup_s": warm_s,
                  "setup_s": IMPORT_S + statistics.median(prep) + warm_s},
    }
    if not traced:
        timed = wl.run(units)
        phases = [timed]
    else:
        plain_units, traced_units = wl.split(units)
        timed = wl.run(plain_units)
        tracer, patcher = tr.Tracer(), tr.Patcher()
        tr.install(tracer, patcher)
        try:
            traced_phase = wl.run(traced_units)
        finally:
            patcher.restore()
        phases = [timed, traced_phase]
        n = max(len(traced_phase.windows), 1)
        layers = tr.layer_metrics(tracer, n)
        layers["trace.iterations"] = float(len(traced_phase.windows))
        layers["trace.overhead"] = (
            statistics.median(traced_phase.durations) / statistics.median(timed.durations)
            if timed.windows and traced_phase.windows else 0.0
        )
        iter_s = sum(traced_phase.durations)
        layers["trace.coverage"] = tracer.covered_self_time(traced_phase.windows) / iter_s if iter_s else 0.0
        result["per_layer"] = layers
        result["span_table"] = tracer.by_name()
        if spans_path is not None:
            spans_path.write_text(json.dumps(tracer.spans()))

    wl.check_reports()
    durations = timed.durations
    attempted_iters = sum(p.planned for p in phases)
    done_iters = sum(len(p.windows) for p in phases)
    failed_checks = sum(not c["ok"] for c in wl.checks)
    attempted = attempted_iters + len(wl.checks)
    failed = attempted_iters - done_iters + failed_checks
    objective = wl.reports[OBJECTIVE_AT - 1].objective if len(wl.reports) >= OBJECTIVE_AT else None
    rss_growth = wl.rss_after[-1] - wl.rss_after[0] if wl.rss_after else 0.0
    if traced:
        result["per_layer"]["train.rss_growth_mb"] = rss_growth
        result["per_layer"]["train.objective_final"] = objective if objective is not None else 0.0
    tail_value = tail(durations)
    result.update(
        iterations=durations,
        traced_iterations=phases[1].durations if traced else [],
        end_to_end={
            "img_per_s": timed.images / timed.busy_s if timed.busy_s else 0.0,
            "iter_p50_s": statistics.median(durations) if durations else 0.0,
            "peak_rss_mb": peak_rss_mb(),
            "setup_s": result["setup"]["setup_s"],
        },
        iter_tail_s=None if tail_value is None else {"value": tail_value[0], "percentile": tail_value[1]},
        objective_final=None if objective is None else {
            "value": objective, "hex": float.hex(objective), "after_iterations": OBJECTIVE_AT},
        rss_growth_mb=rss_growth,
        rss_after_mb=wl.rss_after,
        checks=wl.checks,
        errors=wl.errors,
        attempted=attempted,
        failed=failed,
        environment=environment(),
    )
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True, help="result JSON path")
    p.add_argument("--spans", help="where a traced run writes its spans")
    p.add_argument("--work-dir", required=True, help="scratch directory, removed at exit")
    args = p.parse_args(argv)
    src = (ROOT / "src").resolve()
    if src not in Path(coopseg.__file__).resolve().parents:
        print(f"error: coopseg imported from {coopseg.__file__}, not from {src}", file=sys.stderr)
        return 2
    work = Path(args.work_dir)
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, work)
        result = measure(wl, args.seconds, bool(args.trace), Path(args.spans) if args.spans else None)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    Path(args.out).write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
