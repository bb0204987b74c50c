"""Shared reference implementations used by several test modules.

Everything here is deliberately naive: grids, python loops, and closed
forms that are easy to audit by eye.
"""

import gc
import inspect
import math
import os
import threading
import tracemalloc
from contextlib import contextmanager

import numpy as np

from coopseg import tensor as T


def entropy_objective(w, losses, lam):
    """sum w_k l_k + lam * sum w_k ln w_k with 0 ln 0 := 0."""
    acc = 0.0
    for wk, lk in zip(w, losses):
        acc += wk * lk
        if wk > 0.0:
            acc += lam * wk * math.log(wk)
    return acc


def brute_force_weights(losses, lam, step=1e-3, refine_rounds=2):
    """Grid-search minimizer of the entropy-regularized objective on the
    3-simplex, followed by local refinement around the best grid point.

    The scan enumerates (w1, w2) on a square grid, drops points off the
    simplex, and evaluates the objective on everything left; no calculus.
    """
    l1, l2, l3 = losses

    def xlogx(w):
        out = np.zeros_like(w)
        pos = w > 0.0
        out[pos] = w[pos] * np.log(w[pos])
        return out

    def scan(c1, c2, half_width, h):
        n = int(round(2 * half_width / h))
        axis1 = c1 - half_width + h * np.arange(n + 1)
        axis2 = c2 - half_width + h * np.arange(n + 1)
        w1, w2 = np.meshgrid(axis1, axis2, indexing="ij")
        w3 = 1.0 - w1 - w2
        ok = (w1 >= 0.0) & (w2 >= 0.0) & (w3 >= 0.0)
        w1, w2, w3 = w1[ok], w2[ok], w3[ok]
        vals = (
            w1 * l1 + w2 * l2 + w3 * l3
            + lam * (xlogx(w1) + xlogx(w2) + xlogx(w3))
        )
        k = int(np.argmin(vals))
        return (w1[k], w2[k], w3[k])

    w = scan(0.5, 0.5, 0.5, step)
    h = step
    for _ in range(refine_rounds):
        h /= 10.0
        w = scan(w[0], w[1], 10 * h, h)
    return np.array(w)


def random_simplex(rng, n=3):
    """Uniform sample from the simplex via sorted-uniform gaps."""
    cuts = np.sort(rng.uniform(0.0, 1.0, n - 1))
    parts = np.diff(np.concatenate([[0.0], cuts, [1.0]]))
    return parts


def dice_count(pred_bin, gt_bin):
    """Pixel-count dice with the empty-vs-empty convention of 1."""
    p = int(pred_bin.sum())
    g = int(gt_bin.sum())
    inter = int((pred_bin * gt_bin).sum())
    if p + g == 0:
        return 1.0
    return 2.0 * inter / (p + g)


def iou_count(pred_bin, gt_bin):
    p = int(pred_bin.sum())
    g = int(gt_bin.sum())
    inter = int((pred_bin * gt_bin).sum())
    union = p + g - inter
    if union == 0:
        return 1.0
    return inter / union


@contextmanager
def cyclic_gc_disabled():
    """Run the block with the cyclic garbage collector off, so only reference
    counting frees objects; restores the previous setting afterwards."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def alloc_peak(fn):
    """Run ``fn()`` and return its result and the peak of traced allocations
    above the level at the call, in bytes. numpy reports its array buffers
    to ``tracemalloc``, so this bounds the transient memory of an op."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return result, peak


def closure_values(node):
    """What a tape node's backward rule keeps alive: its closure, and the
    closures of the local functions it calls."""
    values, fns = [], [node.backward_fn]
    while fns:
        for cell in fns.pop().__closure__ or ():
            value = cell.cell_contents
            (fns if inspect.isfunction(value) else values).append(value)
    return values


def set_workers(monkeypatch, n, cpus=6):
    """The engine sees ``cpus`` CPUs and BLAS threads that leave ``n`` of them idle
    (``idle_cpus() == n``)."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    for var in T.BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", str(cpus // n))
    assert T.idle_cpus() == n


def pool_runs_every_queued_task(monkeypatch):
    """Make the pool run every task the engine queues: a caller that joins a queued task
    no pool thread has started waits for one to run it, instead of taking it back, so
    which thread runs what no longer depends on timing. Returns the idents of the threads
    that ran queued tasks, one per task."""
    queued, ran = set(), []
    put, take, run = T._Pool.put, T.Task._take, T.Task._run

    def put_and_mark(pool, task, threads):
        queued.add(task)
        put(pool, task, threads)

    def take_on_the_pool(task):
        return (T._state.on_pool or task not in queued) and take(task)

    def run_and_log(task):
        if task in queued:
            queued.discard(task)
            ran.append(threading.get_ident())
        run(task)

    monkeypatch.setattr(T._Pool, "put", put_and_mark)
    monkeypatch.setattr(T.Task, "_take", take_on_the_pool)
    monkeypatch.setattr(T.Task, "_run", run_and_log)
    return ran
