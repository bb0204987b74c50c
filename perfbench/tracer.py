"""Outside-in span tracing of the coopseg layers, from the benchmark's files.

``install`` rebinds the public functions and module ``__call__`` methods of
each coopseg module to timing wrappers. Functions are rebound wherever they
are looked up: on the defining module and on every coopseg module that
imported the name (``cli`` does ``from .checkpoint import save_checkpoint``).
Op call sites go through the module attribute (``T.conv2d``) and the
``Tensor`` operators look ``matmul``/``add``/... up in ``coopseg.tensor`` at
call time, so every op is seen. Backward time comes from wrapping the
``backward_fn`` of each tape node an op records. Nothing under ``src/`` is
edited; ``Patcher.restore`` undoes every rebinding.

Spans are parallel lists (name, start, end, parent index) held in memory and
written out by the caller when the run ends. Self time is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import bisect
import os
import sys
import time
from collections import defaultdict

import numpy as np

import coopseg.cli  # noqa: F401  (imports every coopseg layer)
from coopseg import tensor as T

_clock = time.perf_counter

# ops reported one by one; every other traced op is summed into tensor.other
REPORTED_OPS = (
    "conv2d", "matmul", "softmax_lastdim", "gelu", "layernorm_lastdim",
    "batchnorm_channel", "upsample2x_nearest", "avgpool2x", "concat", "add", "mul",
)

# coopseg.tensor functions that compute something; helpers such as
# as_tensor and no_grad stay untraced
TENSOR_FUNCS = REPORTED_OPS + (
    "sub", "div", "neg", "reshape", "transpose", "concat_channels", "tsum", "tmean",
    "amax", "relu", "sigmoid", "clip", "log", "elementwise",
)
_OP_LABEL = {"tsum": "sum", "tmean": "mean"}  # function name -> tape op name

# (module, function) -> span name; tensor.backward is wrapped in install()
FUNCTION_SPANS = {
    ("train", "train_epoch"): "train.epoch",
    ("train", "view_loss"): "train.loss",
    ("train", "solve_weights"): "train.solve",
    ("train", "total_objective"): "train.solve",
    ("train", "fuse_decision"): "train.fuse",
    ("checkpoint", "save_checkpoint"): "checkpoint.save",
    ("checkpoint", "load_checkpoint"): "checkpoint.load",
    ("data", "synth_dataset"): "data.synth",
    ("data", "write_gray"): "data.write",
    ("metrics", "evaluate_pairs"): "metrics.eval",
    ("cli", "main"): "cli.main",
    ("cli", "cmd_train"): "cli.cmd",
    ("cli", "cmd_eval"): "cli.cmd",
    ("cli", "cmd_predict"): "cli.cmd",
}

# (module, class, method) -> span name. Classes left out (PatchEmbed,
# EncoderBlock, ViewHead, Cbam, ...) fall into their caller's self time.
METHOD_SPANS = {
    ("nn", "Linear", "__call__"): "nn.fwd",
    ("nn", "Conv2d", "__call__"): "nn.fwd",
    ("nn", "BatchNorm2d", "__call__"): "nn.fwd",
    ("nn", "LayerNorm", "__call__"): "nn.fwd",
    ("nn", "ConvUnit", "__call__"): "nn.fwd",
    ("nn", "Module", "load_state"): "nn.load_state",
    ("transformer", "TransformerBranch", "__call__"): "transformer.fwd",
    ("transformer", "MultiHeadSelfAttention", "__call__"): "transformer.attn.fwd",
    ("transformer", "MlpBlock", "__call__"): "transformer.mlp.fwd",
    ("cnn", "CnnBranch", "__call__"): "cnn.fwd",
    ("cnn", "CnnViewHead", "__call__"): "cnn.fwd",
    ("fusion", "GlffBlock", "__call__"): "fusion.glff.fwd",
    ("fusion", "DenseFusionDecoder", "__call__"): "fusion.decoder.fwd",
    ("model", "SegmentationModel", "__call__"): "model.fwd",
    ("model", "SegmentationModel", "__init__"): "model.build",
    ("train", "Adam", "step"): "train.adam",
    ("train", "Adam", "zero_grad"): "train.adam",
}

# layers whose self time is expected to account for nearly all of a train iteration
COVERED_PREFIXES = ("tensor.", "train.", "checkpoint.")


class Patcher:
    """Sets attributes and remembers the old values so they can be restored."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, name: str, value):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def rebind(self, original, replacement):
        """Replace ``original`` on every loaded coopseg module that holds it."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("coopseg"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, attr, replacement)

    def restore(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


class Tracer:
    """Span recorder plus exact counters (flops, bytes, tape sizes)."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack = [-1]
        self.counters: dict[str, float] = defaultdict(float)
        self.max_saved_bytes = 0

    def wrap(self, name: str, fn, after=None):
        """Return ``fn`` timed as span ``name``; ``after(args, result)`` runs
        once the span has closed."""
        names, starts, ends, parents, stack = self.names, self.starts, self.ends, self.parents, self._stack

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(_clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = _clock()
                stack.pop()
            if after is not None:
                after(args, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- tensor-specific hooks --------------------------------------------

    def _after_op(self, label: str):
        def after(args, out):
            if not isinstance(out, T.Tensor):
                return
            cost = _op_cost(label, args, out)
            if cost is not None:
                flop, fwd_bytes, bwd_bytes = cost
                self.counters[f"tensor.{label}.flop"] += flop
                self.counters[f"tensor.{label}.bytes"] += fwd_bytes
            node = out.node
            if node is None or node.out is not out or hasattr(node.backward_fn, "__wrapped__"):
                return  # nothing recorded, or an inner op already wrapped the node
            count_bwd = None
            if cost is not None:
                def count_bwd(_args, _grads):
                    self.counters[f"tensor.{label}.flop"] += 2 * flop
                    self.counters[f"tensor.{label}.bytes"] += bwd_bytes
            node.backward_fn = self.wrap(f"tensor.{node.op}.bwd", node.backward_fn, count_bwd)

        return after

    def tape_stats(self, loss):
        """Count the nodes of the tape ``loss`` hangs from and the bytes of
        the non-leaf arrays it keeps alive (distinct buffers)."""
        node = getattr(loss, "node", None)
        if node is None:
            return
        nodes = node.tape.nodes
        held: dict[int, int] = {}
        leaves: set[int] = set()

        def visit(value, depth=0):
            if isinstance(value, T.Tensor):
                if value.node is None:
                    leaves.add(id(_root(value.data)))
                value = value.data
            if isinstance(value, np.ndarray):
                root = _root(value)
                held[id(root)] = root.nbytes
            elif isinstance(value, (tuple, list)) and depth == 0:
                for item in value:
                    visit(item, 1)

        for n in nodes:
            visit(n.out)
            visit(n.inputs)
            fn = getattr(n.backward_fn, "__wrapped__", n.backward_fn)
            for cell in fn.__closure__ or ():
                try:
                    visit(cell.cell_contents)
                except ValueError:  # empty cell
                    pass
        saved = sum(b for key, b in held.items() if key not in leaves)
        self.counters["tensor.tape_nodes"] += len(nodes)
        self.max_saved_bytes = max(self.max_saved_bytes, saved)

    def count_file(self, args, _out):
        """Size of the checkpoint file a save or load call touched."""
        self.counters["checkpoint.bytes"] += os.path.getsize(args[0])
        self.counters["checkpoint.files"] += 1

    # -- aggregation --------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [e - s for s, e in zip(self.starts, self.ends)]
        for i, p in enumerate(self.parents):
            if p >= 0:
                own[p] -= self.ends[i] - self.starts[i]
        return own

    def by_name(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, self seconds and inclusive seconds.

        Inclusive time counts only outermost spans of a name, so a name
        nested in itself is not counted twice.
        """
        own = self.self_times()
        table: dict[str, dict[str, float]] = {}
        for i, name in enumerate(self.names):
            row = table.setdefault(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
            row["calls"] += 1
            row["self_s"] += own[i]
            if not self._inside_same_name(i):
                row["incl_s"] += self.ends[i] - self.starts[i]
        return table

    def _inside_same_name(self, i: int) -> bool:
        name, p = self.names[i], self.parents[i]
        while p >= 0:
            if self.names[p] == name:
                return True
            p = self.parents[p]
        return False

    def covered_self_time(self, windows: list[tuple[float, float]]) -> float:
        """Self time of tensor.*, train.* and checkpoint.* spans that start
        inside one of the (sorted, disjoint) iteration windows."""
        own = self.self_times()
        window_starts = [a for a, _ in windows]
        total = 0.0
        for i, name in enumerate(self.names):
            if name.startswith(COVERED_PREFIXES):
                k = bisect.bisect_right(window_starts, self.starts[i]) - 1
                if k >= 0 and self.starts[i] < windows[k][1]:
                    total += own[i]
        return total

    def spans(self) -> list[list]:
        return [
            [n, s, e, p] for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
        ]


def _root(arr: np.ndarray) -> np.ndarray:
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def _op_cost(label: str, args, out):
    """Computed work of conv2d and matmul: (flop, forward bytes, backward bytes).

    Flops count multiply and add separately. Bytes are the minimal operand
    traffic: inputs read and result written; backward reads the upstream
    gradient and both inputs and writes both input gradients. im2col buffers,
    broadcast intermediates and cache misses are not counted.
    """
    if label == "conv2d":
        x, k = args[0], args[1]
        cout, cin, kh, kw = k.shape
        b, _, oh, ow = out.shape
        flop = 2 * b * oh * ow * cout * cin * kh * kw
    elif label == "matmul":
        x, k = args[0], args[1]
        flop = 2 * out.data.size * x.shape[-1]
    else:
        return None
    ins = x.data.nbytes + k.data.nbytes
    return flop, ins + out.data.nbytes, out.data.nbytes + 2 * ins


def install(tracer: Tracer, patcher: Patcher):
    """Wrap every traced coopseg function and method; undo with ``patcher.restore``."""
    mods = {name: sys.modules[f"coopseg.{name}"] for name in (
        "tensor", "nn", "transformer", "cnn", "fusion", "model", "train",
        "checkpoint", "data", "metrics", "cli",
    )}
    for fname in TENSOR_FUNCS:
        label = _OP_LABEL.get(fname, fname)
        original = getattr(mods["tensor"], fname)
        patcher.rebind(original, tracer.wrap(f"tensor.{label}.fwd", original, tracer._after_op(label)))

    for (mod, fname), span in FUNCTION_SPANS.items():
        original = getattr(mods[mod], fname)
        after = tracer.count_file if mod == "checkpoint" else None
        patcher.rebind(original, tracer.wrap(span, original, after))

    backward = mods["tensor"].backward
    stats = tracer.wrap("trace.tape_stats", tracer.tape_stats)
    timed_backward = tracer.wrap("tensor.backward", backward)

    def traced_backward(loss, *args, **kwargs):
        stats(loss)  # in a span of its own, before the backward span opens
        return timed_backward(loss, *args, **kwargs)

    patcher.rebind(backward, traced_backward)

    for (mod, cls_name, method), span in METHOD_SPANS.items():
        cls = getattr(mods[mod], cls_name)
        patcher.set(cls, method, tracer.wrap(span, cls.__dict__[method]))


def layer_metrics(tracer: Tracer, iterations: int) -> dict[str, float]:
    """Per-iteration layer figures from the spans and counters of a traced phase.

    ``<layer>.fwd_s``-style names are self time; ``*_incl_s`` names are
    inclusive time of the outermost span of that name.
    """
    table = tracer.by_name()
    per = 1.0 / iterations

    def col(name, key="self_s"):
        return table.get(name, {}).get(key, 0.0) * per

    def layer_self(prefix):
        return per * sum(r["self_s"] for n, r in table.items() if n.startswith(prefix + "."))

    m: dict[str, float] = {}
    for op in REPORTED_OPS:
        m[f"tensor.{op}.fwd_s"] = col(f"tensor.{op}.fwd")
        m[f"tensor.{op}.bwd_s"] = col(f"tensor.{op}.bwd")
        m[f"tensor.{op}.calls"] = col(f"tensor.{op}.fwd", "calls")
    reported = {f"tensor.{op}.{kind}" for op in REPORTED_OPS for kind in ("fwd", "bwd")}
    for kind in ("fwd", "bwd"):
        m[f"tensor.other.{kind}_s"] = per * sum(
            r["self_s"] for n, r in table.items()
            if n.startswith("tensor.") and n.endswith("." + kind) and n not in reported
        )
    for op in ("conv2d", "matmul"):
        m[f"tensor.{op}.gflop"] = tracer.counters[f"tensor.{op}.flop"] * per / 1e9
        m[f"tensor.{op}.mb_moved"] = tracer.counters[f"tensor.{op}.bytes"] * per / 1e6
    m["tensor.tape_nodes"] = tracer.counters["tensor.tape_nodes"] * per
    m["tensor.saved_mb"] = tracer.max_saved_bytes / 1e6
    m["tensor.backward_s"] = col("tensor.backward")
    m["nn.self_s"] = layer_self("nn")
    for layer in ("transformer", "cnn", "model"):
        m[f"{layer}.fwd_s"] = layer_self(layer)
        m[f"{layer}.fwd_incl_s"] = col(f"{layer}.fwd", "incl_s")
    for part in ("transformer.attn", "transformer.mlp", "fusion.glff", "fusion.decoder"):
        m[f"{part}.fwd_s"] = col(f"{part}.fwd")
        m[f"{part}.fwd_incl_s"] = col(f"{part}.fwd", "incl_s")
    m["model.build_s"] = col("model.build")
    for short, span in (("loss", "loss"), ("solve", "solve"), ("adam", "adam"),
                        ("epoch", "epoch"), ("fuse", "fuse")):
        m[f"train.{short}_s"] = col(f"train.{span}")
    m["checkpoint.save_s"] = col("checkpoint.save")
    m["checkpoint.load_s"] = col("checkpoint.load")
    files = tracer.counters["checkpoint.files"]
    m["checkpoint.mb"] = tracer.counters["checkpoint.bytes"] / files / 1e6 if files else 0.0
    m["data.synth_s"] = col("data.synth")
    m["data.write_s"] = col("data.write")
    m["metrics.eval_s"] = col("metrics.eval")
    m["cli.self_s"] = layer_self("cli")
    return m
