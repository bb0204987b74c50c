"""Minimal dense tensor library with reverse-mode automatic differentiation.

Tensors wrap numpy arrays. Inside a ``step()`` block every differentiable
operation of the thread that opened it records a node on the step's gradient
tape; ``backward`` replays the tape in exact reverse execution order and
accumulates gradients into ``requires_grad`` leaves. Outside a step, and in
every other thread, nothing is recorded.
Ops take Tensors: every tensor argument of an op is a ``Tensor``. The one
exception is the other operand of ``+ - * /`` (``add``, ``sub``, ``mul``,
``div``), which may also be a Python number or an ndarray; it gets no gradient.
The op set is intentionally small: just what a two-branch segmentation
network with a fusion decoder needs. Everything runs on CPU; float64 is the
test/verification precision and float32 the training precision.

Importing this module sets numpy's OpenBLAS to one thread, process-wide. The engine's
pool is a ``ThreadPoolExecutor`` of ``idle_cpus() - 1`` threads, the process's CPUs less
the caller's, sized once by the first fork it queues; its threads are joined at exit.
``fork`` hands it a call worth at least ``FORK_MIN_WORK`` and ``join`` collects the result.
Backward forks the second GEMM of each ``_matmul_grads`` pair (matmul, mlp, attention)
and conv2d's input gradient while the caller computes the other; ``_correlate`` forks
the later half of its (image, band) GEMMs and ``_normal_cdf`` the later half of its
elements, in forward and backward; ``train.Adam`` forks its updates and the eval-mode
model its images. Each forked piece is the one-thread call it would be alone, so results
do not depend on the pool size. A caller joining a task no pool thread started runs it
itself, and a fork on a pool thread runs inline, so no thread waits behind queued work.
numpy's floating-point errors are ignored on the importing thread and on each pool thread
from its start; a thread the host starts itself keeps numpy's default. coopseg's checks are
the reports: ``train.ViewWeights``, the per-view loss, Adam's ``g·g``, the CLI's decision.
"""

from __future__ import annotations

import ctypes
import math
import operator
import os
import threading
import weakref
from concurrent.futures import Future, ThreadPoolExecutor, wait
from contextlib import contextmanager
from functools import partial
from typing import Optional, Sequence

import numpy as np
from scipy import special


class ShapeError(ValueError):
    """Raised when operand shapes violate an op's contract."""


class GradientError(RuntimeError):
    """Raised when a backward pass is requested on an invalid target."""


# --------------------------------------------------------------------------
# Tape machinery
# --------------------------------------------------------------------------


class TapeNode:
    """One executed op: its parents, a backward rule, and a weak reference to
    its output.

    ``inputs`` is aligned with the op's tensor arguments: an argument that an
    op recorded is held as its ``TapeNode``, one with no node (a leaf, whether
    or not it requires grad) as the Tensor itself, and a raw argument as None.
    No node holds an output or an input Tensor, so an intermediate array lives
    only while a backward rule's closure holds it; each rule holds the arrays
    it reads and no others. ``out`` is the output while it lives, else None.

    ``backward_fn`` maps the upstream gradient (an ndarray shaped like the
    output) to a tuple of gradients aligned with ``inputs``; entries may be
    None for non-differentiable arguments.
    """

    __slots__ = ("op", "inputs", "backward_fn", "_out", "tape")

    def __init__(self, op: str, inputs, backward_fn, out, tape):
        self.op = op
        self.inputs = inputs
        self.backward_fn = backward_fn
        self._out = weakref.ref(out)
        self.tape = tape

    @property
    def out(self):
        return None if self._out is None else self._out()

    def release(self):
        """Drop the parents and the backward rule (and with it the saved
        arrays); ``op`` and ``tape`` stay for inspection, ``out`` reads None,
        and ``backward_fn`` None is how a spent graph is recognised."""
        self._out = None
        self.inputs = ()
        self.backward_fn = None


class GradTape:
    """Ordered record of executed ops, replayed in reverse by ``backward``."""

    __slots__ = ("nodes",)

    def __init__(self):
        self.nodes: list[TapeNode] = []

    def __len__(self):
        return len(self.nodes)

    def release(self):
        """Free the recorded graph by reference counting alone.

        One reference cycle is left in a live graph: ``TapeNode.tape`` <->
        ``GradTape.nodes``. Through it any live output tensor (``Tensor.node``)
        keeps every node, and so every saved array, alive. Emptying every node
        and the node list breaks it, so saved arrays go as soon as nothing else
        holds them.
        """
        for node in self.nodes:
            node.release()
        self.nodes.clear()


class _EngineState(threading.local):
    """Recording is per thread: a step records only the ops of the thread that
    opened it, and every other thread starts with no tape."""

    tape: Optional[GradTape] = None  # the recording tape; None outside a step
    on_pool: bool = False  # a pool thread: its forks run inline


_state = _EngineState()


# --------------------------------------------------------------------------
# Worker pool
# --------------------------------------------------------------------------


# the least work, in one-thread GEMM multiply-adds or their time's worth (about 0.1 ms),
# that a fork hands to the pool: below it a pool thread's wake-up (about 50 us) costs more
# than running both halves at once saves (README, "Parallelism")
FORK_MIN_WORK = 2**22


def pin_blas(lib) -> None:
    """Set the OpenBLAS of numpy's library ``lib`` to one thread, or raise ImportError."""
    set_threads = getattr(lib, "scipy_openblas_set_num_threads64_", None)
    if set_threads is None:
        raise ImportError("coopseg needs numpy's bundled OpenBLAS, but numpy's library has "
                          "no scipy_openblas_set_num_threads64_ to set its threads")
    set_threads.argtypes, set_threads.restype = (ctypes.c_int,), None
    set_threads(1)


pin_blas(ctypes.CDLL(np._core._multiarray_umath.__file__))
np.seterr(all="ignore")  # the floating-point error policy (module docstring)


def idle_cpus() -> int:
    """How many one-thread calls can run at once: this process's CPUs (``taskset`` sets them)."""
    return len(os.sched_getaffinity(0))


def _one_malloc_arena():
    """Have every thread allocate from glibc's main arena (``M_ARENA_MAX`` = 1). A pool
    thread would otherwise get an arena of its own, whose freed arrays stay resident:
    17 MB more peak RSS over a paper-geometry training run. Where the C library has no
    ``mallopt``, nothing changes."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-8, 1)  # M_ARENA_MAX


def _enter_pool():
    """Each pool thread's initializer."""
    _state.on_pool = True
    np.seterr(all="ignore")  # numpy's error state is per thread


def _call_once(call: list):
    """Empty the one-slot ``call`` and call what it held: neither the executor's queue
    entry for it nor a take-back keeps the function or its arguments alive after that."""
    return call.pop()()


_pool: Optional[ThreadPoolExecutor] = None  # made by the first queued fork (_queue)
_pool_lock = threading.Lock()


def _queue(call: list) -> Future:
    global _pool
    with _pool_lock:
        if _pool is None:
            _one_malloc_arena()
            _pool = ThreadPoolExecutor(idle_cpus() - 1, "coopseg-pool", initializer=_enter_pool)
    try:
        return _pool.submit(_call_once, call)
    except RuntimeError:  # shut down at interpreter exit, before the host's threads end
        return Future()  # join runs it


def fork(work: float, fn, *args) -> tuple[Future, list]:
    """``fn(*args)`` as a task that a pool thread may start at once. It is queued only
    when ``work`` reaches ``FORK_MIN_WORK``, this thread is not itself a pool thread and
    ``idle_cpus()`` leaves a CPU besides this thread's; otherwise ``join`` runs it."""
    call = [partial(fn, *args)]
    queued = work >= FORK_MIN_WORK and not _state.on_pool and idle_cpus() > 1
    return (_queue(call) if queued else Future()), call


def join(task: tuple[Future, list]):
    """The task's result, or its exception raised here, the same object. A task that no
    pool thread has started is taken back and run here, so a caller never waits behind
    queued work."""
    future, call = task
    return _call_once(call) if future.cancel() else future.result()


def run_all(work: float, *calls) -> list:
    """``[call() for call in calls]``: every call but the first is forked (``fork``), this
    thread runs the first, then joins the rest in order. Each call runs the same
    operations, on one thread, as it would alone, so the results do not depend on the
    pool. If a call raises, the forks no thread has started are dropped and the running
    ones waited for, and then the first error in call order is raised."""
    tasks = [fork(work, call) for call in calls[1:]]
    try:
        results = [calls[0]()]
        for task in tasks:
            results.append(join(task))
    except BaseException:
        wait([future for future, _ in tasks if not future.cancel()])
        raise
    return results


def recording() -> bool:
    """Whether this thread is inside a ``step()`` that records (not suspended by ``no_grad``)."""
    return _state.tape is not None


@contextmanager
def step():
    """Record gradful ops inside the block on a fresh tape, which is yielded.

    Inside the block an intermediate array lives only while the caller, or a
    recorded backward rule that reads it, holds it. On exit, normal or by
    exception, the tape's graph is released (the saved arrays go by refcount)
    and the previously active tape, if any, records again. A ``backward``
    inside the block spends what was recorded so far; ops after it record on
    the same, now empty tape. An op on a tensor that another step recorded,
    or that a ``backward`` spent, raises GradientError.
    """
    prev = _state.tape
    tape = _state.tape = GradTape()
    try:
        yield tape
    finally:
        tape.release()
        _state.tape = prev


@contextmanager
def no_grad():
    """Suspend the active tape inside the block (inference / oracle paths)."""
    prev = _state.tape
    _state.tape = None
    try:
        yield
    finally:
        _state.tape = prev


def _record(op, inputs, backward_fn, out):
    node = TapeNode(op, inputs, backward_fn, out, _state.tape)
    _state.tape.nodes.append(node)
    out.node = node


class Tensor:
    """Dense N-d array of reals, optionally tracked for gradients."""

    __slots__ = ("data", "requires_grad", "grad", "node", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float64)
        if not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)  # keeps 0-d shape, unlike unconditional copy
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self.node: Optional[TapeNode] = None

    # -- introspection ----------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise GradientError(f"item() on non-scalar tensor of shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype}, requires_grad={self.requires_grad})"

    # -- operator sugar ----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def backward(self):
        backward(self)


def _from_op(op: str, data: np.ndarray, inputs: Sequence[Optional[Tensor]], backward_fn) -> Tensor:
    out = Tensor(data)
    if _state.tape is not None and any(t is not None and t.requires_grad for t in inputs):
        parents = []
        for t in inputs:
            node = t.node if t is not None else None
            # a node replayed by backward, or recorded by another step, is one this
            # step's backward never visits: the gradient would stop there unseen
            if node is not None and (node.backward_fn is None or node.tape is not _state.tape):
                raise GradientError(
                    f"{op}: an input comes from another step or from a graph spent by backward; "
                    "recompute it inside this step"
                )
            parents.append(t if node is None else node)
        out.requires_grad = True
        _record(op, tuple(parents), backward_fn, out)
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# --------------------------------------------------------------------------
# Elementwise arithmetic (numpy broadcasting; same-shape-only wrapper below)
# --------------------------------------------------------------------------


def _raw(x):
    # python scalars stay raw so numpy's weak promotion keeps the array dtype
    return x if isinstance(x, (int, float)) else np.asarray(x)


def _binary(op: str, a, b, fn, grad_a, grad_b, reads_operands: bool = True) -> Tensor:
    """A broadcasting binary op: ``fn(da, db)`` on the operands' arrays, and in backward
    ``grad_a(g, da, db)`` / ``grad_b(g, da, db)`` summed back to each operand's shape.
    Only a Tensor operand gets a gradient; a raw value (None on the tape) gets none.
    The rule keeps the operands only if it ``reads_operands``; otherwise the grad
    functions get None for both and the rule keeps just their shapes."""
    ta, tb = isinstance(a, Tensor), isinstance(b, Tensor)
    da = a.data if ta else _raw(a)
    db = b.data if tb else _raw(b)
    shape_a, shape_b = np.shape(da), np.shape(db)
    saved = (da, db) if reads_operands else (None, None)

    def bw(g):
        return (
            _unbroadcast(grad_a(g, *saved), shape_a) if ta else None,
            _unbroadcast(grad_b(g, *saved), shape_b) if tb else None,
        )

    return _from_op(op, fn(da, db), (a if ta else None, b if tb else None), bw)


def add(a, b) -> Tensor:
    return _binary("add", a, b, operator.add, lambda g, da, db: g, lambda g, da, db: g,
                   reads_operands=False)


def sub(a, b) -> Tensor:
    return _binary("sub", a, b, operator.sub, lambda g, da, db: g, lambda g, da, db: -g,
                   reads_operands=False)


def mul(a, b) -> Tensor:
    return _binary("mul", a, b, operator.mul, lambda g, da, db: g * db, lambda g, da, db: g * da)


def div(a, b) -> Tensor:
    return _binary(
        "div", a, b, operator.truediv, lambda g, da, db: g / db, lambda g, da, db: -g * da / (db * db)
    )


def neg(a: Tensor) -> Tensor:
    return _from_op("neg", -a.data, (a,), lambda g: (-g,))


def elementwise(a: Tensor, b: Tensor, op: str) -> Tensor:
    """Pointwise add/mul with strictly identical shapes (no broadcasting)."""
    if a.shape != b.shape:
        raise ShapeError(f"elementwise '{op}': shapes {a.shape} and {b.shape} differ")
    if op == "add":
        return add(a, b)
    if op == "mul":
        return mul(a, b)
    raise ValueError(f"elementwise: unknown op {op!r} (expected 'add' or 'mul')")


# --------------------------------------------------------------------------
# Linear algebra
# --------------------------------------------------------------------------


def _matmul_grads(g: np.ndarray, a: np.ndarray, b: np.ndarray):
    """The gradients of ``a @ b`` given the upstream gradient g: ``g @ b^T`` and
    ``a^T @ g``, each summed back over broadcast leading axes to its operand's shape,
    the second on the pool (``run_all``). The one GEMM-gradient rule of matmul, mlp and
    attention."""
    return run_all(
        g.size * a.shape[-1],  # each GEMM's multiply-adds
        lambda: _unbroadcast(np.matmul(g, np.swapaxes(b, -1, -2)), a.shape),
        lambda: _unbroadcast(np.matmul(np.swapaxes(a, -1, -2), g), b.shape),
    )


def matmul(a: Tensor, b: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Matrix product over the last two axes, broadcasting leading axes, plus an optional
    bias of shape (b.shape[-1],) added to every output row."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: operands must be at least 2-d, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions disagree for shapes {a.shape} and {b.shape}")
    if bias is not None and bias.shape != (b.shape[-1],):
        raise ShapeError(f"matmul: bias must have shape ({b.shape[-1]},), got {bias.shape}")
    da, db = a.data, b.data
    bias_shape = bias.shape if bias is not None else None
    out = np.matmul(da, db)
    if bias is not None:
        out += bias.data

    def bw(g):
        gbias = _unbroadcast(g, bias_shape) if bias_shape is not None else None
        return (*_matmul_grads(g, da, db), gbias)

    return _from_op("matmul", out, (a, b, bias), bw)


# --------------------------------------------------------------------------
# Convolution (same-size cross-correlation) via im2col
# --------------------------------------------------------------------------


# the windows one GEMM takes: a conv on the paper's 88x88 maps copies this much at a time,
# not an image's windows (up to 45 MB)
WINDOW_BLOCK_BYTES = 4 * 2**20


def _im2col(x: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """The stride-1 kh x kw windows of an NCHW array zero-padded by kh // 2 rows and
    kw // 2 columns on each side, as a channel-major B x C x KH x KW x H x W view of one
    padded copy: ``[n, c, i, j]`` is channel c of image n shifted by (i, j). A 1x1
    kernel's windows are the input itself, made contiguous."""
    if kh == 1 and kw == 1:
        return np.ascontiguousarray(x)[:, :, None, None]
    x = np.pad(x, ((0, 0), (0, 0), (kh // 2,) * 2, (kw // 2,) * 2))
    return np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3)).transpose(0, 1, 4, 5, 2, 3)


def _blocks(count: int, item_elems: int, dtype, taps: int, least: int = 1):
    """Bounds that cut ``count`` items of ``item_elems`` window elements each into as few
    even blocks as keep a block within ``WINDOW_BLOCK_BYTES``, but none under ``least``
    items (one block when all fit), and one buffer for the largest block: every block's
    windows are copied into it, so a conv makes one window allocation per thread that runs
    its blocks, not one per block.
    A kernel of one tap copies nothing (its windows are the input itself), so its items
    stay one block, with no buffer."""
    if taps == 1:
        return [0, count], None
    per = max(1, WINDOW_BLOCK_BYTES // (item_elems * np.dtype(dtype).itemsize))
    n = max(1, min(-(-count // per), count // least))
    return [count * i // n for i in range(n + 1)], np.empty(-(-count // n) * item_elems, dtype)


def _gather(view: np.ndarray, buf) -> np.ndarray:
    """A C x KH x KW x rows x W slice of ``_im2col``'s view as the (C*KH*KW) x (rows*W)
    matrix, copied into the head of buf; with no buf (a 1x1 kernel's windows, the
    contiguous input) it is reshaped without a copy."""
    c, kh, kw, rows, w = view.shape
    if buf is None:
        return view.reshape(c, rows * w)
    cols = buf[: view.size].reshape(c * kh * kw, rows * w)
    np.copyto(cols.reshape(view.shape), view)
    return cols


def _correlate(k2: np.ndarray, x: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """``k2 @ cols_n`` for the ``_im2col`` windows of each image n of x, in ``_blocks`` of
    output rows, each band's GEMM written straight into its columns of image n of one
    B x rows x (H*W) output. A band splits only the GEMM's output columns, so each element
    sums the same products as one GEMM over the image's windows; whether BLAS also keeps
    their order, and so the bits, depends on the shape (README, "Convolution"). The later
    half of the (image, band) GEMMs runs on the pool while this thread runs the first
    (``run_all``); each is the same call either way."""
    b, _, h, w = x.shape
    out = np.empty((b, k2.shape[0], h * w), np.result_type(k2, x))
    win = _im2col(x, kh, kw)
    rows, buf = _blocks(h, k2.shape[1] * w, x.dtype, kh * kw)
    bands = [(n, r0, r1) for n in range(b) for r0, r1 in zip(rows, rows[1:])]
    owner = threading.get_ident()

    def correlate(part):
        # a part another thread runs at the same time copies its windows into a buffer of its own
        own = buf if buf is None or threading.get_ident() == owner else np.empty_like(buf)
        for n, r0, r1 in part:
            np.matmul(k2, _gather(win[n][..., r0:r1, :], own), out=out[n][:, r0 * w : r1 * w])

    cut = (len(bands) + 1) // 2
    work = k2.size * w * sum(r1 - r0 for _, r0, r1 in bands[cut:])  # the later half's multiply-adds
    run_all(work, partial(correlate, bands[:cut]), partial(correlate, bands[cut:]))
    return out


def conv2d(x: Tensor, kernel: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Stride-1 2-d cross-correlation of B x Cin x H x W input with Cout x Cin x kh x kw kernel,
    zero-padded by kh // 2 and kw // 2 so the output is H x W, plus an optional (Cout,) bias: one
    GEMM per image with the channel-major ``_im2col`` windows, landing in contiguous NCHW.
    Backward keeps only the operands and rebuilds the input's windows for the kernel gradient,
    in ``_blocks`` of at least 16 input channels (narrower GEMMs take another BLAS path and
    change bits): each block's ``sum(g_n @ cols_n^T)`` over the images, in image order, fills
    its columns of the gradient. Its input gradient correlates the upstream gradient, padded
    the same way, with the flipped, channel-swapped kernel, on the pool while this thread
    makes the kernel gradient (``run_all``); it is None when the input did not require grad."""
    if x.ndim != 4 or kernel.ndim != 4:
        raise ShapeError(f"conv2d: expected 4-d input and kernel, got {x.shape} and {kernel.shape}")
    b, cin, h, w = x.shape
    cout, kc, kh, kw = kernel.shape
    if kc != cin:
        raise ShapeError(f"conv2d: input has {cin} channels but kernel expects {kc}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeError(f"conv2d: kernel dims must be odd, got {kh}x{kw}")
    if bias is not None and bias.shape != (cout,):
        raise ShapeError(f"conv2d: bias must have shape ({cout},), got {bias.shape}")
    xd, kd, has_bias = x.data, kernel.data, bias is not None
    x_requires_grad = x.requires_grad
    out = _correlate(kd.reshape(cout, -1), xd, kh, kw)
    if has_bias:
        out += bias.data[:, None]

    def bw(g):
        def kernel_grad():
            g3, win = g.reshape(b, cout, h * w), _im2col(xd, kh, kw)
            gw = np.empty((cout, cin * kh * kw), np.result_type(g, xd))
            chans, buf = _blocks(cin, kh * kw * h * w, xd.dtype, kh * kw, least=16)
            for c0, c1 in zip(chans, chans[1:]):
                # each image's product is made before the next image's windows overwrite buf
                gw[:, c0 * kh * kw : c1 * kh * kw] = sum(
                    gi @ _gather(wn[c0:c1], buf).T for gi, wn in zip(g3, win))
            return gw.reshape(kd.shape)

        def input_grad():
            w_flip = kd[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(cin, cout * kh * kw)
            return _correlate(w_flip, g, kh, kw).reshape(b, cin, h, w)

        gb = g.sum(axis=(0, 2, 3)) if has_bias else None
        if not x_requires_grad:
            return None, kernel_grad(), gb
        gw, gx = run_all(g.size * cin * kh * kw, kernel_grad, input_grad)  # multiply-adds each
        return gx, gw, gb

    return _from_op("conv2d", out.reshape(b, cout, h, w), (x, kernel, bias), bw)


# --------------------------------------------------------------------------
# Shape ops
# --------------------------------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    old = a.shape
    out = a.data.reshape(shape)
    return _from_op("reshape", out, (a,), lambda g: (g.reshape(old),))


def transpose(a: Tensor, axes) -> Tensor:
    inv = tuple(np.argsort(axes))
    return _from_op("transpose", np.ascontiguousarray(a.data.transpose(axes)), (a,), lambda g: (g.transpose(inv),))


def concat(xs: Sequence[Tensor], axis: int) -> Tensor:
    out = np.concatenate([x.data for x in xs], axis=axis)
    sizes = [x.shape[axis] for x in xs]
    splits = np.cumsum(sizes)[:-1].tolist()

    def bw(g):
        return tuple(np.ascontiguousarray(p) for p in np.split(g, splits, axis=axis))

    return _from_op("concat", out, tuple(xs), bw)


def concat_channels(xs: Sequence[Tensor]) -> Tensor:
    """Channel-axis concatenation of B x Ci x H x W maps, in argument order."""
    for x in xs:
        if x.ndim != 4:
            raise ShapeError(f"concat_channels: expected 4-d maps, got shape {x.shape}")
    ref = xs[0].shape
    for x in xs[1:]:
        if x.shape[0] != ref[0] or x.shape[2:] != ref[2:]:
            raise ShapeError(f"concat_channels: batch/spatial dims differ: {ref} vs {x.shape}")
    return concat(xs, axis=1)


def _sum2x2(a: np.ndarray) -> np.ndarray:
    """Sum each non-overlapping 2x2 block of the last two axes (both even)."""
    return (a[..., 0::2, 0::2] + a[..., 0::2, 1::2]) + (a[..., 1::2, 0::2] + a[..., 1::2, 1::2])


def upsample2x_nearest(x: Tensor) -> Tensor:
    """Replicate each pixel of a B x C x H x W map into a 2x2 block."""
    if x.ndim != 4:
        raise ShapeError(f"upsample2x_nearest: expected 4-d map, got shape {x.shape}")
    out = np.repeat(np.repeat(x.data, 2, axis=2), 2, axis=3)

    def bw(g):
        return (_sum2x2(g),)

    return _from_op("upsample2x_nearest", out, (x,), bw)


def avgpool2x(x: Tensor) -> Tensor:
    """Average non-overlapping 2x2 blocks; exact inverse of upsample2x_nearest."""
    if x.ndim != 4:
        raise ShapeError(f"avgpool2x: expected 4-d map, got shape {x.shape}")
    h, w = x.shape[2:]
    if h % 2 or w % 2:
        raise ShapeError(f"avgpool2x: spatial dims must be even, got {h}x{w}")
    out = _sum2x2(x.data) * 0.25

    def bw(g):
        # scaling the quarter-size gradient first rounds exactly as dividing the full one
        return (np.repeat(np.repeat(g * 0.25, 2, axis=2), 2, axis=3),)

    return _from_op("avgpool2x", out, (x,), bw)


# --------------------------------------------------------------------------
# Reductions
# --------------------------------------------------------------------------


def _norm_axes(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        return (axis % ndim,)
    return tuple(a % ndim for a in axis)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes, shape = _norm_axes(axis, a.ndim), a.shape
    out = a.data.sum(axis=axes, keepdims=keepdims)

    def bw(g):
        if not keepdims:
            g = np.expand_dims(g, axes)
        return (np.broadcast_to(g, shape).copy(),)

    return _from_op("sum", out, (a,), bw)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes, shape = _norm_axes(axis, a.ndim), a.shape
    count = math.prod(shape[ax] for ax in axes)
    out = a.data.mean(axis=axes, keepdims=keepdims)

    def bw(g):
        if not keepdims:
            g = np.expand_dims(g, axes)
        return (np.broadcast_to(g, shape) / count,)

    return _from_op("mean", out, (a,), bw)


def amax(a: Tensor, axis, keepdims: bool = False) -> Tensor:
    """Maximum over axes; ties share the gradient equally. Backward also takes
    any upstream gradient that broadcasts to the output, such as a 0-d one."""
    x, axes = a.data, _norm_axes(axis, a.ndim)
    mx = x.max(axis=axes, keepdims=True)
    out = mx if keepdims else mx.squeeze(axis=axes)
    out_shape = out.shape

    def bw(g):
        g = np.broadcast_to(g, out_shape)
        if not keepdims:
            g = np.expand_dims(g, axes)
        mask = (x == mx).astype(x.dtype)
        mask /= mask.sum(axis=axes, keepdims=True)
        return (mask * g,)

    return _from_op("amax", out, (a,), bw)


# --------------------------------------------------------------------------
# Nonlinearities and normalization
# --------------------------------------------------------------------------


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0)
    mask = a.data > 0  # subgradient at 0 is defined as 0
    return _from_op("relu", out, (a,), lambda g: (g * mask,))


def sigmoid(a: Tensor) -> Tensor:
    # 1/(1 + e^-x) where x >= 0, else e^x/(1 + e^x); min(x, -x) is -|x| and keeps a NaN's sign
    x = a.data
    e = np.exp(np.minimum(x, -x))
    out = np.where(x >= 0, 1.0, e)
    e += 1.0
    out /= e
    return _from_op("sigmoid", out, (a,), lambda g: (g * out * (1.0 - out),))


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _normal_cdf(x: np.ndarray) -> np.ndarray:
    """The exact standard-normal CDF (erf form): the one expression gelu and mlp
    use in forward and again in backward, where they rebuild it. The later half of
    the elements runs on the pool while this thread computes the first (``run_all``);
    the expression is elementwise, so the bits are those of one call."""
    flat = x.reshape(-1)
    out = np.empty_like(flat)

    def cdf(part):
        # 0.5 * (1.0 + erf(x * c)), op by op in the output slice: no temporaries
        o = out[part]
        np.multiply(flat[part], _INV_SQRT2, out=o)
        special.erf(o, out=o)
        o += 1.0
        o *= 0.5

    half = flat.size // 2
    # scipy's erf takes about 13 ns per element: 650 one-thread multiply-adds' worth
    run_all(650 * (flat.size - half), partial(cdf, slice(None, half)),
            partial(cdf, slice(half, None)))
    return out.reshape(x.shape)


def _gelu_grad(g: np.ndarray, x: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """Gradient through x * Phi(x) given the upstream gradient g and Phi(x)."""
    pdf = np.exp(-0.5 * x * x) * _INV_SQRT2PI
    return g * (cdf + x * pdf)


def gelu(a: Tensor) -> Tensor:
    """x * Phi(x) with the exact standard-normal CDF (erf form). Backward rebuilds
    the CDF from x with the forward's own expression instead of saving it."""
    x = a.data
    out = x * _normal_cdf(x)
    return _from_op("gelu", out, (a,), lambda g: (_gelu_grad(g, x, _normal_cdf(x)),))


def mlp(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """``gelu(x @ w1 + b1) @ w2 + b2`` for an input of shape (..., d_in), as one tape node.

    The tape keeps x and the hidden pre-activation ``h = x @ w1 + b1``; backward rebuilds
    the CDF and the GELU output ``h * cdf`` from h with the forward's own expression. Each
    GEMM pair is matmul's own ``_matmul_grads`` on the operands of the composed chain
    ``matmul(gelu(matmul(x, w1, b1)), w2, b2)``, so results are bitwise equal to that chain.
    """
    if (
        x.ndim < 2 or w1.ndim != 2 or w2.ndim != 2
        or x.shape[-1] != w1.shape[0] or w1.shape[1] != w2.shape[0]
        or b1.shape != (w1.shape[1],) or b2.shape != (w2.shape[1],)
    ):
        raise ShapeError(
            f"mlp: shapes x {x.shape}, w1 {w1.shape}, b1 {b1.shape}, w2 {w2.shape}, b2 {b2.shape} "
            "do not chain as (..., d_in) @ (d_in, hidden) @ (hidden, d_out)"
        )
    xd, w1d, w2d, b1_shape, b2_shape = x.data, w1.data, w2.data, b1.shape, b2.shape
    h = np.matmul(xd, w1d)
    h += b1.data
    out = np.matmul(h * _normal_cdf(h), w2d)
    out += b2.data

    def bw(g):
        cdf = _normal_cdf(h)
        # the rebuilt GELU output lives only for the GEMM pair of the fc2 gradients
        gh, gw2 = _matmul_grads(g, h * cdf, w2d)
        gh = _gelu_grad(gh, h, cdf)
        return (*_matmul_grads(gh, xd, w1d), _unbroadcast(gh, b1_shape),
                gw2, _unbroadcast(g, b2_shape))

    return _from_op("mlp", out, (x, w1, b1, w2, b2), bw)


def _softmax_rows(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Row-stable softmax of x along the last axis, written into out (which may be x)."""
    np.subtract(x, x.max(axis=-1, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def _softmax_grad(g: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Gradient through softmax rows ``out`` given the upstream gradient g."""
    dot = (g * out).sum(axis=-1, keepdims=True)
    return (g - dot) * out


def softmax_lastdim(a: Tensor) -> Tensor:
    """Row-stable softmax along the last dimension."""
    out = _softmax_rows(a.data, np.empty_like(a.data))
    return _from_op("softmax_lastdim", out, (a,), lambda g: (_softmax_grad(g, out),))


def _attention_rows(q: np.ndarray, k: np.ndarray, s: float):
    """The scaled queries ``q * s``, the contiguous transposed keys and their softmax rows."""
    qs, kt = q * s, np.ascontiguousarray(np.swapaxes(k, -1, -2))
    att = np.matmul(qs, kt)
    return qs, kt, _softmax_rows(att, att)


def attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """Scaled dot-product attention of B x heads x N x d queries, keys and values,
    heads concatenated into B x N x (heads*d), as one tape node.

    The queries are scaled by 1/sqrt(d), a power of two when d is a power of four (16,
    64), so that rounds as scaling the scores would. The softmax runs in place on the
    scores. The rule keeps the arrays of q, k and v only: backward rebuilds the softmax
    rows from the scaled queries and transposed keys that its own gq and gk GEMMs take,
    through the forward's expression. Both GEMM pairs are matmul's own ``_matmul_grads`` on the
    operands, in the layouts, of the composed chain
    ``softmax_lastdim((q * s) @ transpose(k)) @ v`` (BLAS may round a transposed operand
    differently), so results are bitwise equal to that chain.
    """
    if q.ndim != 4 or k.shape != q.shape or v.shape != q.shape:
        raise ShapeError(f"attention: q, k, v must share one 4-d shape, got {q.shape}, {k.shape}, {v.shape}")
    b, h, n, d = q.shape
    s = 1.0 / math.sqrt(d)
    qd, kd, vd = q.data, k.data, v.data
    out = np.matmul(_attention_rows(qd, kd, s)[2], vd).transpose(0, 2, 1, 3).reshape(b, n, h * d)

    def bw(g):
        qs, kt, att = _attention_rows(qd, kd, s)
        g = g.reshape(b, n, h, d).transpose(0, 2, 1, 3)
        gatt, gv = _matmul_grads(g, att, vd)
        gqs, gkt = _matmul_grads(_softmax_grad(gatt, att), qs, kt)
        return gqs * s, np.swapaxes(gkt, -1, -2), gv

    return _from_op("attention", out, (q, k, v), bw)


NORM_EPS = 1e-5  # added to the variance by both norms
BN_MOMENTUM = 0.1  # batchnorm running-buffer update rate


def _affine_norm(op: str, x: Tensor, gamma: Tensor, beta: Tensor, mu, inv, stat_axes, axis: int,
                 batch_stats: bool) -> Tensor:
    """``(x - mu) * inv * gamma + beta`` as one tape node, with mu and inv broadcasting
    against x and gamma and beta laid along ``axis``. The output is the only full-size
    array made; backward rebuilds the normalized input ``xhat`` from x with the forward's
    own expression and works in two input-sized arrays. ``batch_stats`` says mu and inv
    are x's own statistics over ``stat_axes``, so the input gradient carries their terms;
    otherwise it is ``g * gamma * inv``."""
    shape = [1] * x.ndim
    shape[axis] = -1
    gamma_b, beta_b = gamma.data.reshape(shape), beta.data.reshape(shape)
    param_axes = tuple(i for i in range(x.ndim) if i != axis % x.ndim)
    xd = x.data
    out = xd - mu
    out *= inv
    out *= gamma_b
    out += beta_b

    def bw(g):
        # inv * (gxhat - mean(gxhat) - xhat * mean(gxhat * xhat)), its operations in its
        # order, in two buffers: xhat's holds gxhat * xhat for its mean, then xhat again
        xhat = xd - mu
        xhat *= inv
        gxhat = g * xhat
        gg = gxhat.sum(axis=param_axes)
        gb = g.sum(axis=param_axes)
        np.multiply(g, gamma_b, out=gxhat)
        if not batch_stats:
            gxhat *= inv
            return gxhat, gg, gb
        m1 = gxhat.mean(axis=stat_axes, keepdims=True)
        np.multiply(gxhat, xhat, out=xhat)
        m2 = xhat.mean(axis=stat_axes, keepdims=True)
        np.subtract(xd, mu, out=xhat)
        xhat *= inv
        gxhat -= m1
        xhat *= m2
        gxhat -= xhat
        gxhat *= inv
        return gxhat, gg, gb

    return _from_op(op, out, (x, gamma, beta), bw)


def layernorm_lastdim(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Per-token normalization over the last dim, then affine gamma/beta. The output is
    the only full-size array made; backward rebuilds the normalized input from x."""
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(f"layernorm: gamma/beta must have shape ({d},), got {gamma.shape} and {beta.shape}")
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + NORM_EPS)
    return _affine_norm("layernorm_lastdim", x, gamma, beta, mu, inv, -1, -1, True)


def batchnorm_channel(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
) -> Tensor:
    """Per-channel batch normalization for B x C x H x W maps.

    In training mode statistics come from the batch and the running buffers
    are updated in place (``BN_MOMENTUM``, unbiased variance, matching the
    common framework convention); in eval mode the running buffers are used.
    The output is the only full-size array made; backward rebuilds the
    normalized input from x with the forward's own expression.
    """
    if x.ndim != 4:
        raise ShapeError(f"batchnorm_channel: expected 4-d map, got shape {x.shape}")
    c = x.shape[1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"batchnorm: gamma/beta must have shape ({c},), got {gamma.shape} and {beta.shape}")
    axes = (0, 2, 3)
    if training:
        mu = x.data.mean(axis=axes)
        var = x.data.var(axis=axes)
        n = x.data.size // c
        unbiased = var * (n / (n - 1)) if n > 1 else var
        running_mean += BN_MOMENTUM * (mu - running_mean)
        running_var += BN_MOMENTUM * (unbiased - running_var)
    else:
        mu = running_mean.astype(x.dtype)
        var = running_var.astype(x.dtype)
    shape = (1, c, 1, 1)
    inv = (1.0 / np.sqrt(var + NORM_EPS)).reshape(shape)
    return _affine_norm("batchnorm_channel", x, gamma, beta, mu.reshape(shape), inv, axes, 1, training)


# --------------------------------------------------------------------------
# Misc pointwise
# --------------------------------------------------------------------------


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    out = np.clip(a.data, lo, hi)
    mask = (a.data >= lo) & (a.data <= hi)
    return _from_op("clip", out, (a,), lambda g: (g * mask,))


def log(a: Tensor) -> Tensor:
    x = a.data
    return _from_op("log", np.log(x), (a,), lambda g: (g / x,))


# --------------------------------------------------------------------------
# Backward pass
# --------------------------------------------------------------------------


def _accumulate(leaf: Tensor, g: np.ndarray) -> None:
    leaf.grad = g if leaf.grad is None else leaf.grad + g


def backward(loss: Tensor, sink=_accumulate) -> None:
    """Hand d(loss)/d(leaf) of every requires_grad leaf to ``sink(leaf, grad)``,
    which by default adds it into the leaf's ``.grad``.

    The loss must be a scalar produced by taped ops inside a ``step()``, or a
    ``requires_grad`` leaf. Nodes are visited in exact reverse execution
    order; a node is skipped when no gradient has reached its output.
    Pending gradients are keyed by the node that produced the array, or by
    the leaf tensor, so the replay needs no output or input tensor alive.

    Each leaf's complete gradient, summed over its uses, goes to the sink
    once, as soon as the last node that takes the leaf as an input has been
    replayed or skipped, and is not kept. A leaf that no gradient reaches
    never gets there. The sink may update the leaf's array in place
    (``train.Adam`` does): a backward rule reads that array, or a view of
    it, only if its node takes the leaf, or something computed from it, as
    an input, and every such node was recorded after the leaf's first
    consumer, so it has been replayed by then. A rule that raises mid-replay
    leaves the leaves already handed over updated.

    The graph is spent afterwards: each node is released as soon as it has
    been visited, the rest of the tape when the replay ends, and a second
    ``backward`` through any of it raises GradientError. The step goes on
    recording on the emptied tape.
    """
    if loss.data.size != 1:
        raise GradientError(f"backward: loss must be scalar, got shape {loss.shape}")
    if loss.node is None:
        if not loss.requires_grad:
            raise GradientError("backward: loss has no graph; ops record only inside `with step():`")
        sink(loss, np.ones_like(loss.data))
        return
    if loss.node.backward_fn is None:
        raise GradientError(
            f"backward: graph already released (its {loss.node.op!r} node was "
            "replayed or its step ended); recompute the loss"
        )
    tape = loss.node.tape
    # uses left of each requires_grad leaf: its gradient is complete at 0
    uses: dict[Tensor, int] = {}
    for node in tape.nodes:
        for src in node.inputs:
            if isinstance(src, Tensor) and src.requires_grad:
                uses[src] = uses.get(src, 0) + 1
    # neither TapeNode nor Tensor defines __eq__, so both hash by identity
    pending: dict[TapeNode | Tensor, np.ndarray] = {loss.node: np.ones_like(loss.data)}
    for node in reversed(tape.nodes):
        inputs = node.inputs
        g = pending.pop(node, None)
        if g is not None:
            grads = node.backward_fn(g)
            for src, ig in zip(inputs, grads):
                if src is None or ig is None or (isinstance(src, Tensor) and not src.requires_grad):
                    continue
                pending[src] = pending[src] + ig if src in pending else ig
            node.release()
            g = grads = None  # hold no gradient of this node while the sink updates
        for src in inputs:
            if src in uses:
                uses[src] -= 1
                if not uses[src] and src in pending:
                    sink(src, pending.pop(src))
    tape.release()
