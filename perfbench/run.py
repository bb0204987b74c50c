"""coopseg benchmark: run workloads in fresh processes, report and check them.

    python3 perfbench/run.py [--workload toy_train|paper_train|paper_infer|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in its own process (``workloads.py``). The report names
every metric with its unit; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json, ``--trace 1`` its
per-layer metrics. The exit code is 1 if a workload fails or any output
check fails. Results, the environment, child logs and spans go to
``.perfbench/results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("toy_train", "paper_train", "paper_infer")
CHILD_TIMEOUT_S = 170
# String hashing decides set and dict layouts inside the interpreter and
# libraries, which shifts when the cyclic GC runs and so how many spent graphs
# are resident at the peak. A fixed hash seed makes peak memory repeat.
CHILD_ENV = {"PYTHONHASHSEED": "0"}
IMAGE_RATE_NAME = {"paper_infer": "infer_img_per_s"}  # the others train


def run_workload(name: str, seed: int, seconds: float, trace: int, out_dir: Path) -> dict | None:
    stem = f"{name}-seed{seed}-trace{trace}"
    result_path = out_dir / f"{stem}.json"
    work_dir = ROOT / ".perfbench" / "work" / stem
    result_path.unlink(missing_ok=True)
    cmd = [
        sys.executable, str(HERE / "workloads.py"), "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--out", str(result_path),
        "--work-dir", str(work_dir),
    ]
    if trace:
        cmd += ["--spans", str(out_dir / f"{stem}-spans.json")]
    log_path = out_dir / f"{stem}.log"
    try:
        with open(log_path, "w") as log:
            proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT,
                                  env={**os.environ, **CHILD_ENV}, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: {name} exceeded {CHILD_TIMEOUT_S} s (log: {log_path})", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if proc.returncode != 0 or not result_path.is_file():
        print(f"error: {name} exited {proc.returncode}; last lines of {log_path}:", file=sys.stderr)
        print("".join(log_path.read_text().splitlines(keepends=True)[-20:]), file=sys.stderr)
        return None
    return json.loads(result_path.read_text())


def report(r: dict, spec: dict) -> list[str]:
    """Human-readable lines: every end-to-end metric with its unit, then checks."""
    e2e = r["end_to_end"]
    n = len(r["iterations"])
    rate_name = IMAGE_RATE_NAME.get(r["workload"], "train_img_per_s")
    lines = [f"== {r['workload']}  seed {r['seed']}  {n} timed iterations"
             + (f" + {len(r['traced_iterations'])} traced" if r["trace"] else "")]

    def row(name, value, unit, note=""):
        lines.append(f"  {name:<18} {value:>14}  {unit:<6} {note}".rstrip())

    row(rate_name, f"{e2e['img_per_s']:.4f}", "img/s", "(BENCHMARK.json: img_per_s)")
    row("iter_p50_s", f"{e2e['iter_p50_s']:.4f}", "s", f"median of {n}")
    tail = r["iter_tail_s"]
    if tail is None:
        row("iter_tail_s", "n/a", "s", f"needs 20+ samples, have {n}")
    else:
        row("iter_tail_s", f"{tail['value']:.4f}", "s", f"p{tail['percentile']:.0f} of {n}, 10 samples above")
    row("peak_rss_mb", f"{e2e['peak_rss_mb']:.1f}", "MB")
    row("setup_s", f"{e2e['setup_s']:.4f}", "s",
        f"imports {r['setup']['import_s']:.2f} + median prepare of {len(r['setup']['prepare_s'])} "
        f"+ warm-up {r['setup']['warmup_s']:.2f}")
    obj = r["objective_final"]
    if obj is None:
        row("objective_final", "n/a", "", "no training")
    else:
        row("objective_final", f"{obj['value']:.6f}", "", f"after {obj['after_iterations']} iterations, {obj['hex']}")
    frac = r["failed"] / r["attempted"]
    row("ops_failed_frac", f"{frac:.4f}", "", f"{r['failed']} of {r['attempted']} iterations and checks")
    if r["trace"]:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        lines.append("  per layer, per traced iteration:")
        for name, value in r["per_layer"].items():
            lines.append(f"    {name:<34} {value:>14.6g}  {units.get(name, '')}")
    for c in r["checks"]:
        if not c["ok"]:
            lines.append(f"  CHECK FAILED: {c['name']} {c['detail']}")
    for err in r["errors"]:
        lines.append("  ITERATION FAILED: " + err.strip().splitlines()[-1])
    return lines


def metrics_of(r: dict, spec: dict, trace: int) -> dict:
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    values = r["per_layer"] if trace else r["end_to_end"]
    out = {}
    for m in declared:
        value = values[m["name"]]
        if not math.isfinite(value):
            raise ValueError(f"{r['workload']}: metric {m['name']} is {value}")
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="coopseg benchmark")
    p.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="work per run, in seconds on the reference box (default: BENCHMARK.json run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "coopseg" / "__init__.py").is_file():
        print(f"error: coopseg sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    out_dir = ROOT / ".perfbench" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        r = run_workload(name, args.seed, seconds, args.trace, out_dir)
        if r is None:
            return 1
        results.append(r)
        print("\n".join(report(r, spec)), flush=True)
    print(f"results and environment: {out_dir}")

    try:
        per_workload = [metrics_of(r, spec, args.trace) for r in results]
    except (KeyError, ValueError) as exc:
        print(f"error: result does not carry the declared metrics: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        metrics = per_workload[0]
    else:
        metrics = {f"{r['workload']}.{k}": v for r, ms in zip(results, per_workload) for k, v in ms.items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
