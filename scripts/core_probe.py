#!/usr/bin/env python3
"""Is a second core free? Time one fixed GEMM workload on two threads and on one.

    python3 scripts/core_probe.py [--repeats N]

The workload is two 1024 x 1024 float32 products. Each repeat runs them one after
the other on this thread, and side by side through the engine's pool
(``tensor.run_all``), in alternating order; the line printed gives the median of
each and the ratio of the two-thread time to the serial time: about 0.5 when a
second core is free, about 1.0 when it is not (or when the process may use one
CPU only). Set beside a benchmark run, it tells a slow run on a busy machine from
a slow change.
"""

import argparse
import math
import statistics
import time

import numpy as np

from coopseg import tensor as T

SIZE = 1024


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--repeats", type=int, default=15)
    args = p.parse_args(argv)
    if args.repeats < 1:
        p.error(f"--repeats must be at least 1, got {args.repeats}")
    rng = np.random.default_rng(0)
    a, b = (rng.standard_normal((SIZE, SIZE)).astype(np.float32) for _ in range(2))

    def product():
        return a @ b

    def serial():
        return [product(), product()]

    def side_by_side():
        return T.run_all(math.inf, product, product)  # a product is always worth a thread

    times = {serial: [], side_by_side: []}
    side_by_side()  # the pool's first fork makes its threads
    for i in range(args.repeats):
        for run in (serial, side_by_side) if i % 2 == 0 else (side_by_side, serial):
            start = time.perf_counter()
            run()
            times[run].append(time.perf_counter() - start)
    one, two = statistics.median(times[serial]), statistics.median(times[side_by_side])
    print(f"core_probe serial_s {one:.6f} two_thread_s {two:.6f} ratio {two / one:.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
