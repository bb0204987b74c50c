"""The engine's worker pool: forks, joins, and training that is bitwise the same at one
and at two workers."""

import os
import subprocess
import sys
import threading
import time
import weakref
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import helpers
from coopseg import tensor as T
from coopseg.config import toy_config
from coopseg.data import make_batches, synth_dataset
from coopseg.cnn import CnnBranch
from coopseg.model import SegmentationModel
from coopseg.tensor import GradientError, ShapeError, Tensor
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

    def test_conv_bands_run_on_two_threads(self, workers, monkeypatch):
        workers(2)
        helpers.pool_runs_every_queued_task(monkeypatch)
        used, gather = [], T._gather

        def spy(view):
            used.append(threading.get_ident())
            return gather(view)

        monkeypatch.setattr(T, "_gather", spy)
        rng = np.random.default_rng(0)
        T.conv2d(Tensor(rng.standard_normal((2, 3, 6, 5))), Tensor(rng.standard_normal((4, 3, 3, 3))))
        assert len(used) == 2 and len(set(used)) == 2

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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_banded_conv2d(self, workers, monkeypatch, dtype):
        """With a lowered block budget each image's forward runs in 3 or more bands of rows,
        which the caller and the pool thread share, and the kernel gradient in 2 blocks of
        16 channels."""
        monkeypatch.setattr(T, "WINDOW_BLOCK_BYTES", 12000)
        shapes = [(2, 32, 9, 5), (4, 32, 3, 3), (4,)]
        assert len(T._blocks(9, 32 * 9 * 5, dtype, 9)) - 1 >= 3
        assert len(T._blocks(32, 9 * 9 * 5, dtype, 9, least=16)) - 1 == 2
        workers(1)
        alone = self.output_and_gradients(T.conv2d, shapes, dtype)
        workers(2)
        ran = helpers.pool_runs_every_queued_task(monkeypatch)
        assert self.output_and_gradients(T.conv2d, shapes, dtype) == alone
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


class TestPaperShapeSplits:
    """At paper shapes the GEMM ops split above ``FORK_MIN_WORK``: attention its heads,
    matmul and mlp the rows of each 2-d product. Output and gradients are bitwise those
    of the unsplit call, at one and at two workers."""

    OPS = {
        "matmul": (T.matmul, [(1, 484, 384), (384, 1536), (1536,)]),
        "projection": (T.matmul, [(1, 1, 484, 384), (6, 384, 64)]),
        "mlp": (T.mlp, [(1, 484, 384), (384, 1536), (1536,), (1536, 384), (384,)]),
        "attention": (T.attention, [(1, 6, 484, 64)] * 3),
    }

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", list(OPS))
    def test_split_equals_the_unsplit_call(self, monkeypatch, name, dtype):
        op, shapes = self.OPS[name]
        run = partial(TestBitwiseAtOneAndTwoWorkers.output_and_gradients, op, shapes, dtype)
        halves, cuts = T._halves, []

        def spy(work, fn, n):
            cuts.append(work >= T.FORK_MIN_WORK and n >= 4)
            return halves(work, fn, n)

        monkeypatch.setattr(T, "_pool", None)
        helpers.set_workers(monkeypatch, 1)
        monkeypatch.setattr(T, "_halves", lambda work, fn, n: fn(slice(0, n)))
        unsplit = run()
        monkeypatch.setattr(T, "_halves", spy)
        assert run() == unsplit
        helpers.set_workers(monkeypatch, 2)
        ran = helpers.pool_runs_every_queued_task(monkeypatch)
        assert run() == unsplit
        assert any(cuts) and ran and threading.get_ident() not in ran


class TestBranchesSideBySide:
    """Inside a step, each call of ``run_all`` records on a child tape of its own; the
    join splices them onto the step's tape in call order, and backward replays such a
    group's segments side by side when they share no outside node and no
    requires_grad leaf."""

    @staticmethod
    def leaf(seed, shape=(4, 4)):
        return Tensor(np.random.default_rng(seed).standard_normal(shape), requires_grad=True)

    @staticmethod
    def replay_threads(monkeypatch):
        """The thread of each ``_replay`` call, in call order."""
        threads, replay = [], T._replay

        def spy(nodes, *args):
            threads.append(threading.get_ident())
            return replay(nodes, *args)

        monkeypatch.setattr(T, "_replay", spy)
        return threads

    @staticmethod
    def cnn_threads(monkeypatch):
        """The thread of each CNN branch forward, in call order."""
        threads, call = [], CnnBranch.__call__

        def spy(self, image):
            threads.append(threading.get_ident())
            return call(self, image)

        monkeypatch.setattr(CnnBranch, "__call__", spy)
        return threads

    def test_the_branches_run_and_replay_on_two_threads_with_the_same_bits(self, workers,
                                                                          monkeypatch):
        cfg = tiny_cfg()
        workers(1)
        alone = TestBitwiseAtOneAndTwoWorkers().train(cfg, steps=1)
        workers(2)
        helpers.pool_runs_every_queued_task(monkeypatch)
        cnn_threads, replays = self.cnn_threads(monkeypatch), self.replay_threads(monkeypatch)
        assert TestBitwiseAtOneAndTwoWorkers().train(cfg, steps=1) == alone
        here = threading.get_ident()
        assert len(cnn_threads) == 2 and here not in cnn_threads  # one forward per batch
        assert sum(thread != here for thread in replays) == 2  # the CNN segment of each

    def test_an_eval_forward_runs_the_branches_side_by_side_with_the_same_bits(self, workers,
                                                                              monkeypatch):
        cfg = tiny_cfg()
        model = SegmentationModel(cfg).eval()
        image = tiny_batches(cfg)[0][0]
        single = Tensor(image.data[:1])
        workers(1)
        alone = [v.data.tobytes() for v in model(single)]
        workers(2)
        ran = helpers.pool_runs_every_queued_task(monkeypatch)
        cnn_threads = self.cnn_threads(monkeypatch)
        assert [v.data.tobytes() for v in model(single)] == alone
        assert cnn_threads == ran[:1] != [threading.get_ident()]

    def test_a_call_reads_its_ancestors_nodes_and_the_join_splices_in_call_order(self, workers):
        workers(2)
        x = self.leaf(0)
        with T.step() as tape:
            y = x * 2.0
            a, b = T.run_all(0, lambda: (y * 3.0).sum(), lambda: T.relu(y * 5.0))
            assert [n.op for n in tape.nodes] == ["mul", "mul", "sum", "mul", "relu"]
            assert all(n.tape is tape for n in tape.nodes) and tape.groups == [[1, 3, 5]]
            assert a.node is tape.nodes[2] and b.node is tape.nodes[4]

    @pytest.mark.parametrize("n", [1, 2])
    def test_a_siblings_tensor_raises(self, workers, monkeypatch, n):
        workers(n)
        if n == 2:
            helpers.pool_runs_every_queued_task(monkeypatch)
        x, made, ready = self.leaf(0), [], threading.Event()

        def first():
            made.append(x * 2.0)
            ready.set()

        def second():
            assert ready.wait(10)
            return made[0] * 3.0

        with T.step() as tape:
            with pytest.raises(GradientError, match="sibling call of run_all"):
                T.run_all(0, first, second)
            assert len(tape) == 0 and made[0].node.backward_fn is None

    @pytest.mark.parametrize("failing", [0, 1])
    def test_an_error_in_one_call_lets_the_other_finish_and_records_nothing(
            self, workers, monkeypatch, failing):
        workers(2)
        helpers.pool_runs_every_queued_task(monkeypatch)
        x, finished, error = self.leaf(0), [], ShapeError("injected")

        def ok():
            time.sleep(0.05)
            finished.append((x * 2.0).sum())

        def bad():
            x * 3.0
            raise error

        calls = [ok, bad] if failing else [bad, ok]
        with T.step() as tape:
            with pytest.raises(ShapeError) as info:
                T.run_all(0, *calls)
            assert info.value is error and len(finished) == 1
            assert len(tape) == 0 and tape.groups == []
            assert finished[0].node.backward_fn is None

    def grads(self, share, grouped):
        """Gradients of ``sum((x @ w1)^2) + sum((y @ w2)^2)``; with ``share`` the two
        products take one weight leaf, and with ``grouped`` they run as two run_all calls."""
        x, y, w1 = self.leaf(1, (8, 4)), self.leaf(2, (8, 4)), self.leaf(3)
        w2 = w1 if share else self.leaf(4)
        branches = [lambda: T.matmul(x, w1), lambda: T.matmul(y, w2)]
        got = {}
        with T.step():
            a, b = T.run_all(0, *branches) if grouped else [f() for f in branches]
            T.backward((a * a).sum() + (b * b).sum(), sink=got.__setitem__)
        return [got[t].tobytes() for t in (x, y, w1, w2)]

    @pytest.mark.parametrize("share", [False, True], ids=["disjoint", "shared-leaf"])
    def test_a_group_replays_side_by_side_only_when_its_calls_share_no_leaf(
            self, workers, monkeypatch, share):
        workers(2)
        serial = self.grads(share, grouped=False)
        helpers.pool_runs_every_queued_task(monkeypatch)
        threads = self.replay_threads(monkeypatch)
        assert self.grads(share, grouped=True) == serial
        assert (threading.get_ident() in threads) and (len(set(threads)) == 1) == share

    def test_a_group_whose_calls_read_one_outside_node_replays_in_order(self, workers,
                                                                        monkeypatch):
        workers(2)
        helpers.pool_runs_every_queued_task(monkeypatch)
        x, w1, w2, got = self.leaf(1), self.leaf(2), self.leaf(3), {}
        threads = self.replay_threads(monkeypatch)
        with T.step():
            h = T.relu(x)
            a, b = T.run_all(0, lambda: T.matmul(h, w1), lambda: T.matmul(h, w2))
            T.backward((a * b).sum(), sink=got.__setitem__)
        assert threads == [threading.get_ident()] * 3 and set(got) == {x, w1, w2}

    def test_many_segments_replay_at_once_with_the_serial_updates(self, workers, monkeypatch):
        """Eight calls, each a chain through 24 weights of its own, replayed by seven pool
        threads and the caller at a 1 us switch interval; Adam hands every update over from
        the thread that replays its segment. Every weight gets the serial update, once."""

        def step(grouped):
            rng = np.random.default_rng(9)
            chains = [[Tensor(rng.standard_normal((8, 8)) * 0.3, requires_grad=True)
                       for _ in range(24)] for _ in range(8)]
            x = Tensor(rng.standard_normal((2, 8)))

            def branch(chain):
                h = x
                for w in chain:
                    h = T.matmul(h, w)
                return (h * h).sum()

            weights = [w for chain in chains for w in chain]
            opt = Adam(weights, lr=0.1)
            calls = [partial(branch, chain) for chain in chains]
            with T.step():
                parts = T.run_all(0, *calls) if grouped else [f() for f in calls]
                opt.backward(sum(parts[1:], parts[0]), {w: str(i) for i, w in enumerate(weights)})
            return [w.data.tobytes() for w in weights]

        counts, update = [], Adam._update

        def counted(self, p, g, name):
            counts.append(name)
            return update(self, p, g, name)

        monkeypatch.setattr(Adam, "_update", counted)
        workers(1)
        serial = step(grouped=False)
        workers(8)
        helpers.pool_runs_every_queued_task(monkeypatch)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                counts.clear()
                assert step(grouped=True) == serial
                assert sorted(counts) == sorted(str(i) for i in range(8 * 24))
        finally:
            sys.setswitchinterval(switch)

    def test_an_error_in_a_segment_replayed_on_the_pool_reaches_adams_caller_unchanged(
            self, workers, monkeypatch):
        """The second segment of a group replays on a pool thread and its backward rule
        raises, while the first replays on the caller and hands its weight to Adam. The
        error reaches ``Adam.backward``'s caller unchanged, once the first segment's
        update has run; the failing segment's weight keeps its data and moments."""
        workers(2)
        ran = helpers.pool_runs_every_queued_task(monkeypatch)
        x, y = (Tensor(self.leaf(seed, (8, 4)).data) for seed in (1, 2))
        w1, w2 = self.leaf(3), self.leaf(4)
        error, grads = ShapeError("injected in a segment on the pool"), T._matmul_grads
        failed_on = []

        def fails_on_the_pool(g, a, b):
            if b is w2.data:
                failed_on.append(threading.get_ident())
                raise error
            return grads(g, a, b)

        monkeypatch.setattr(T, "_matmul_grads", fails_on_the_pool)
        opt = Adam([w1, w2], lr=0.1)
        saved = [w1.data.copy(), w2.data.copy()]
        with T.step() as tape:
            a, b = T.run_all(0, lambda: T.matmul(x, w1), lambda: T.matmul(y, w2))
            assert tape.groups == [[0, 1, 2]]
            with pytest.raises(ShapeError) as info:
                opt.backward((a * a).sum() + (b * b).sum(), {w1: "w1", w2: "w2"})
        assert info.value is error and failed_on[0] in ran
        assert (w1.data != saved[0]).any() and opt._moments[w1][0].any()
        np.testing.assert_array_equal(w2.data, saved[1])
        assert not opt._moments[w2][0].any() and len(tape) == 0

    def test_backward_inside_a_call_raises(self, workers):
        workers(1)
        x = self.leaf(0)
        with T.step():
            with pytest.raises(GradientError, match="inside a call of run_all"):
                T.run_all(0, lambda: T.backward((x * 2.0).sum()), int)


class TestErrorsOnThePool:
    @pytest.mark.parametrize("phase", ["forward", "backward"])
    def test_a_worker_error_reaches_the_caller_unchanged(self, workers, monkeypatch, phase):
        """The first ``_correlate`` on a pool thread in the phase raises: in forward, in
        the CNN branch beside the transformer; in backward, during the replay, once Adam
        has advanced and while updates may be in flight."""
        cfg = tiny_cfg()
        workers(2)
        helpers.pool_runs_every_queued_task(monkeypatch)
        raised, correlate, backward, replaying = [], T._correlate, T.backward, []

        def fails_once_on_the_pool(*args):
            if T._state.on_pool and not raised and (phase == "forward" or replaying):
                raised.append(ShapeError("injected on a pool thread"))
                raise raised[0]
            return correlate(*args)

        def replay(*args, **kwargs):
            replaying.append(True)
            return backward(*args, **kwargs)

        monkeypatch.setattr(T, "_correlate", fails_once_on_the_pool)
        monkeypatch.setattr(T, "backward", replay)
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
        assert opt.step_count == {"forward": 0, "backward": 1}[phase]
        # the step released its graph
        assert T._state.tape is None and nodes and all(n.backward_fn is None for n in nodes)
        before = [p.data.copy() for p in opt.params]
        report = train_epoch(model, opt, batches, lam=1.0)  # the pool is not wedged
        assert np.isfinite(report.losses).all()
        assert opt.step_count == {"forward": 1, "backward": 2}[phase]
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
