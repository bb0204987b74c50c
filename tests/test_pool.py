"""The engine's worker pool: forks, joins, and training that is bitwise the same at one
and at two workers."""

import os
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

import helpers
from coopseg import tensor as T
from coopseg.config import toy_config
from coopseg.data import make_batches, synth_dataset
from coopseg.model import SegmentationModel
from coopseg.tensor import ShapeError, Tensor
from coopseg.train import Adam, train_epoch


@pytest.fixture
def workers(monkeypatch):
    """``workers(n)``: the engine has n workers, a pool of its own, and every fork is
    worth a hand-over (``FORK_MIN_WORK`` 0)."""
    monkeypatch.setattr(T, "_pool", None)
    monkeypatch.setattr(T, "FORK_MIN_WORK", 0)
    return lambda n: helpers.set_workers(monkeypatch, n)


def tiny_cfg(dtype="float32"):
    return toy_config(image_size=32, d_model=48, stem_channels=4, stage_units=1,
                      c4=8, c8=12, c16=16, batch_size=2, synth_samples=2, dtype=dtype)


def tiny_batches(cfg, n=2):
    samples = synth_dataset(2 * n, cfg.image_size, seed=5)
    return [(x, y) for _, x, y in make_batches(samples, 2, cfg.dtype)]


class TestForkAndJoin:
    def test_a_pool_thread_ignores_numpy_errors_whatever_the_callers_state(self, workers,
                                                                          monkeypatch):
        workers(2)
        ran = helpers.pool_runs_every_queued_task(monkeypatch)
        with np.errstate(all="warn"):
            state = T.join(T.fork(1, np.geterr))
        assert len(ran) == 1 and ran[0] != threading.get_ident()
        assert [state[k] for k in ("over", "invalid", "divide")] == ["ignore"] * 3

    def test_a_queued_task_the_caller_joins_first_runs_on_the_caller(self, workers):
        workers(2)
        started, release = threading.Event(), threading.Event()
        blocker = T.fork(1, lambda: (started.set(), release.wait(10)))
        assert started.wait(10)  # the pool's one thread is busy
        queued = T.fork(1, threading.get_ident)
        assert T.join(queued) == threading.get_ident()  # taken back: no wait behind the blocker
        release.set()
        T.join(blocker)

    def test_a_taken_back_task_frees_its_arguments_behind_a_busy_pool(self, workers):
        workers(2)
        started, release = threading.Event(), threading.Event()
        blocker = T.fork(1, lambda: (started.set(), release.wait(10)))
        assert started.wait(10)  # the pool's one thread is busy
        with helpers.cyclic_gc_disabled():
            arg = np.ones(4)
            ref = weakref.ref(arg)
            task = T.fork(1, np.sum, arg)
            assert T.join(task) == 4.0  # taken back; the pool still queues its entry
            del arg, task
            assert ref() is None
        release.set()
        T.join(blocker)

    def test_threads_forking_at_once_make_one_pool(self, workers, monkeypatch):
        workers(3)
        made, executor = [], T.ThreadPoolExecutor

        def counted(*args, **kwargs):
            made.append(executor(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(T, "ThreadPoolExecutor", counted)
        barrier = threading.Barrier(8)

        def forker():
            barrier.wait(10)
            return [T.join(T.fork(1, int)) for _ in range(20)]

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=forker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert made == [T._pool]

    def test_a_fork_after_the_pool_shut_down_runs_at_join(self, workers):
        """At exit the pool shuts down before the host's non-daemon threads end."""
        workers(2)
        T.join(T.fork(1, int))
        T._pool.shutdown()
        assert T.join(T.fork(1, threading.get_ident)) == threading.get_ident()

    def test_a_task_a_pool_thread_started_is_waited_for(self, workers):
        workers(2)
        started, release = threading.Event(), threading.Event()
        task = T.fork(1, lambda: (started.set(), release.wait(10), threading.get_ident())[2])
        assert started.wait(10)
        release.set()
        assert T.join(task) != threading.get_ident()

    def test_a_fork_on_a_pool_thread_runs_inline(self, workers, monkeypatch):
        workers(2)
        ran = helpers.pool_runs_every_queued_task(monkeypatch)

        def outer():
            inner = T.fork(1, threading.get_ident)
            return threading.get_ident(), T.join(inner)

        outer_thread, inner_thread = T.join(T.fork(1, outer))
        assert outer_thread == inner_thread != threading.get_ident()
        assert ran == [outer_thread]  # the inner task was never queued

    @pytest.mark.parametrize("n", [1, 2])
    def test_work_below_the_constant_is_not_queued(self, workers, monkeypatch, n):
        workers(n)
        monkeypatch.setattr(T, "FORK_MIN_WORK", 2**22)
        ran = helpers.pool_runs_every_queued_task(monkeypatch)
        assert T.join(T.fork(2**22 - 1, threading.get_ident)) == threading.get_ident()
        assert ran == []
        pooled = T.join(T.fork(2**22, threading.get_ident)) != threading.get_ident()
        assert pooled == (n == 2) and len(ran) == n - 1

    def test_one_worker_starts_no_thread(self, workers, monkeypatch):
        workers(1)
        ran = helpers.pool_runs_every_queued_task(monkeypatch)
        assert T.run_all(0, threading.get_ident, threading.get_ident) == [threading.get_ident()] * 2
        assert ran == [] and T._pool is None

    def test_conv_bands_on_two_threads_copy_windows_into_two_buffers(self, workers, monkeypatch):
        workers(2)
        helpers.pool_runs_every_queued_task(monkeypatch)
        used, gather = [], T._gather

        def spy(view, buf):
            used.append((threading.get_ident(), id(buf)))
            return gather(view, buf)

        monkeypatch.setattr(T, "_gather", spy)
        rng = np.random.default_rng(0)
        T.conv2d(Tensor(rng.standard_normal((2, 3, 6, 5))), Tensor(rng.standard_normal((4, 3, 3, 3))))
        assert len(used) == 2 and len({t for t, _ in used}) == 2 and len({b for _, b in used}) == 2

    def test_run_all_raises_the_first_error_after_the_rest_settle(self, workers, monkeypatch):
        workers(3)
        helpers.pool_runs_every_queued_task(monkeypatch)
        second, third = ShapeError("second"), ShapeError("third")
        finished = []

        def fail(exc):
            def call():
                finished.append(exc)
                raise exc
            return call

        with pytest.raises(ShapeError) as info:
            T.run_all(0, lambda: 1, fail(second), fail(third))
        assert info.value is second and sorted(map(str, finished)) == ["second", "third"]


def test_a_process_that_used_the_pool_exits_cleanly():
    """The pool's threads are joined at exit, not left as daemons, and a thread of the
    host's that outlives the main thread still forks once the pool has shut down."""
    code = ("import math, os, threading, time; from coopseg import tensor as T; "
            "os.sched_getaffinity = lambda pid: {0, 1}; "
            "assert T.join(T.fork(math.inf, int)) == 0 and T._pool is not None; "
            "assert T.run_all(math.inf, int, float) == [0, 0.0]; "
            "late = lambda: (threading.main_thread().join(), time.sleep(0.2), "
            "T.run_all(math.inf, int, float)); "
            "threading.Thread(target=late).start()")
    src = str(Path(T.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert time.monotonic() - start < 30


class TestBitwiseAtOneAndTwoWorkers:
    @staticmethod
    def output_and_gradients(op, shapes, dtype, seed=0):
        rng = np.random.default_rng(seed)
        leaves = [Tensor(rng.standard_normal(s).astype(dtype), requires_grad=True) for s in shapes]
        grads = {}
        with T.step():
            out = op(*leaves)
            loss = (out * Tensor(rng.standard_normal(out.shape).astype(dtype))).sum()
            T.backward(loss, sink=grads.__setitem__)
        return [out.data.tobytes()] + [grads[leaf].tobytes() for leaf in leaves]

    OPS = {
        "conv2d": (T.conv2d, [(2, 3, 6, 5), (4, 3, 3, 3), (4,)]),
        "conv2d_1x1": (T.conv2d, [(3, 4, 5, 5), (2, 4, 1, 1), (2,)]),
        "matmul": (T.matmul, [(2, 5, 7), (7, 3), (3,)]),
        "mlp": (T.mlp, [(2, 5, 6), (6, 8), (8,), (8, 4), (4,)]),
        "attention": (T.attention, [(1, 2, 5, 4)] * 3),
        "gelu": (T.gelu, [(3, 7)]),
    }

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", list(OPS))
    def test_op_output_and_gradients(self, workers, monkeypatch, name, dtype):
        op, shapes = self.OPS[name]
        workers(1)
        alone = self.output_and_gradients(op, shapes, dtype)
        workers(2)
        ran = helpers.pool_runs_every_queued_task(monkeypatch)
        assert self.output_and_gradients(op, shapes, dtype) == alone
        assert ran and threading.get_ident() not in ran

    def train(self, cfg, steps=2):
        model = SegmentationModel(cfg)
        opt = Adam(model.parameters(), lr=cfg.lr)
        for _ in range(steps):
            train_epoch(model, opt, tiny_batches(cfg), lam=1.0)
        return opt.step_count, [a.tobytes() for a in [p.data for p in opt.params] + opt.m + opt.v]

    @pytest.mark.parametrize("pool_runs_all", [True, False], ids=["pool-runs-all", "as-timed"])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_train_epoch(self, workers, monkeypatch, dtype, pool_runs_all):
        """Parameters, Adam's moments and step count. With the pool made to run every
        queued task, the caller and the pool thread both work; left to timing, the
        caller also takes back tasks no pool thread has started."""
        cfg = tiny_cfg(dtype)
        workers(1)
        alone = self.train(cfg)
        workers(2)
        ran = helpers.pool_runs_every_queued_task(monkeypatch) if pool_runs_all else None
        assert self.train(cfg) == alone
        if pool_runs_all:
            assert len(set(ran)) == 1 and threading.get_ident() not in ran


class TestErrorsOnThePool:
    def test_a_worker_error_reaches_the_caller_unchanged(self, workers, monkeypatch):
        cfg = tiny_cfg()
        workers(2)
        helpers.pool_runs_every_queued_task(monkeypatch)
        raised, correlate = [], T._correlate

        def fails_once_on_the_pool(*args):
            if T._state.on_pool and not raised:
                raised.append(ShapeError("injected on a pool thread"))
                raise raised[0]
            return correlate(*args)

        monkeypatch.setattr(T, "_correlate", fails_once_on_the_pool)
        model = SegmentationModel(cfg)
        opt = Adam(model.parameters(), lr=cfg.lr)
        batches = tiny_batches(cfg, n=1)
        nodes, record = [], T._record

        def spy(op, inputs, backward_fn, out):
            record(op, inputs, backward_fn, out)
            nodes.append(out.node)

        monkeypatch.setattr(T, "_record", spy)
        with pytest.raises(ShapeError) as info:
            train_epoch(model, opt, batches, lam=1.0)
        assert info.value is raised[0]
        # the step released its graph
        assert T._state.tape is None and nodes and all(n.backward_fn is None for n in nodes)
        before = [p.data.copy() for p in opt.params]
        report = train_epoch(model, opt, batches, lam=1.0)  # the pool is not wedged
        assert np.isfinite(report.losses).all() and opt.step_count == 2
        assert any((p.data != b).any() for p, b in zip(opt.params, before))

    @pytest.mark.parametrize("n", [1, 2])
    def test_a_non_finite_update_on_the_pool_reaches_the_caller_unchanged(self, workers,
                                                                         monkeypatch, n):
        cfg = tiny_cfg()
        workers(n)
        ran = helpers.pool_runs_every_queued_task(monkeypatch)
        model = SegmentationModel(cfg)
        opt = Adam(model.parameters(), lr=cfg.lr)
        name, target = "head_t.proj.weight", model.head_t.proj.weight
        raised, update = [], Adam._update

        def record(self, p, g, pname):
            if p is target:
                g = np.full_like(g, np.nan)
            try:
                return update(self, p, g, pname)
            except RuntimeError as exc:
                raised.append((exc, threading.get_ident()))
                raise

        monkeypatch.setattr(Adam, "_update", record)
        saved = target.data.copy()
        with pytest.raises(RuntimeError, match=f"parameter '{name}' is not finite") as info:
            train_epoch(model, opt, tiny_batches(cfg, n=1), lam=1.0)
        [(exc, thread)] = raised
        assert info.value is exc and (thread != threading.get_ident()) == (n == 2)
        assert (thread in ran) == (n == 2)
        np.testing.assert_array_equal(target.data, saved)
        m, v = opt._moments[target]
        assert not m.any() and not v.any()
