"""Finite-difference verification of analytic gradients.

Central differences at 64-bit with h=1e-5; an analytic/numeric pair passes
when |a-n| / max(|a|, |n|, 1e-6) < 1e-4. A probe that straddles a relu, amax
or clip kink measures no derivative, so it is recognised from the gradient
tape its evaluations record and redrawn. Nothing is restored between
evaluations: a training-mode batchnorm writes its running buffers but never
reads them. Used by the test suite and the ``gradcheck`` CLI subcommand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import tensor as T
from .config import toy_config
from .data import make_batches, synth_dataset
from .model import SegmentationModel
from .tensor import Tensor, backward
from .train import view_loss

H_DEFAULT = 1e-5
TOL_DEFAULT = 1e-4


def relative_error(a: float, n: float) -> float:
    return abs(a - n) / max(abs(a), abs(n), 1e-6)


def _locate(bounds: np.ndarray, flat) -> tuple[int, int]:
    """The (param_index, flat_index) of entry ``flat`` of the params laid end to end,
    whose cumulative sizes are ``bounds``."""
    pi = int(np.searchsorted(bounds, flat, side="right"))
    return pi, int(flat - (bounds[pi - 1] if pi else 0))


def _sample_entries(params: Sequence[Tensor], n_samples: Optional[int], rng: np.random.Generator,
                    bounds: np.ndarray):
    """Pick (param_index, flat_index) pairs, spread across all params."""
    entries = []
    if n_samples is None:
        for pi, p in enumerate(params):
            entries.extend((pi, fi) for fi in range(p.size))
        return entries
    n = min(n_samples, int(bounds[-1]))
    # at least one entry per param, remainder proportional
    for pi, p in enumerate(params):
        entries.append((pi, int(rng.integers(p.size))))
    flat = rng.choice(int(bounds[-1]), size=max(n - len(params), 0), replace=False)
    entries.extend(_locate(bounds, f) for f in flat)
    return entries


def _branch_pattern(tape: T.GradTape) -> list:
    """Fingerprint of the linear piece every taped relu / amax / clip took,
    in tape order. Read it before ``backward`` spends the tape.

    Each piece is what the node's own rule passes back for an all-ones upstream
    gradient (0-d, as the output tensor may be gone): the relu mask a > 0, the
    clip mask lo <= a <= hi (NaN outside it), and the amax winners' tie shares,
    which only the rule knows the reduced axes of."""
    return [hash(node.backward_fn(np.ones(()))[0].tobytes())
            for node in tape.nodes if node.op in ("relu", "clip", "amax")]


def check_function(
    f: Callable[[], Tensor],
    params: Sequence[Tensor],
    rng: np.random.Generator,
    n_samples: Optional[int] = None,
) -> float:
    """Max relative error between backward() and central differences.

    ``f`` recomputes a scalar loss from ``params`` (closed over, each
    ``requires_grad``); the analytic pass and every probe evaluation run in a
    ``step()`` of their own. ``f`` may write state it never reads, such as the
    running buffers of a training-mode batchnorm; every evaluation then sees
    the same function.

    A probe whose evaluations do not all sit on the analytic pass's linear
    piece of every piecewise op (relu / amax / clip) is discarded and a
    replacement entry drawn: across a kink the central difference averages
    two one-sided slopes and estimates no derivative at all, so agreement
    there is not evidence either way. The pieces are read off each
    evaluation's tape, which records only ops that depend on a
    ``requires_grad`` tensor; any other op sees the same inputs in every
    evaluation and so takes the same branch. The number of checked entries
    stays the same; exhausting the replacement budget raises GradientError.
    """
    grads = {}
    with T.step() as tape:
        loss = f()
        if loss.size != 1:
            raise T.GradientError(f"gradcheck target must be scalar, got {loss.shape}")
        base_pattern = _branch_pattern(tape)
        backward(loss, sink=grads.__setitem__)
    analytic = [grads[p] if p in grads else np.zeros_like(p.data) for p in params]

    def probe(pi: int, fi: int) -> tuple[float, bool]:
        p = params[pi]
        idx = np.unravel_index(fi, p.shape)
        orig = p.data[idx]
        vals, smooth = [], True
        for delta in (H_DEFAULT, -H_DEFAULT):
            p.data[idx] = orig + delta
            with T.step() as tape:
                vals.append(f().item())
                smooth = smooth and _branch_pattern(tape) == base_pattern
        p.data[idx] = orig
        return (vals[0] - vals[1]) / (2.0 * H_DEFAULT), smooth

    bounds = np.cumsum([p.size for p in params])
    entries = _sample_entries(params, n_samples, rng, bounds)
    spare = 4 * len(entries)
    worst = 0.0
    while entries:
        pi, fi = entries.pop(0)
        numeric, smooth = probe(pi, fi)
        if not smooth:
            if spare == 0:
                raise T.GradientError(
                    "gradcheck: too many probes straddle relu/amax/clip kinks"
                )
            spare -= 1
            entries.append(_locate(bounds, int(rng.integers(bounds[-1]))))
            continue
        idx = np.unravel_index(fi, params[pi].shape)
        worst = max(worst, relative_error(float(analytic[pi][idx]), numeric))
    return worst


def away_from(x: np.ndarray, points: Sequence[float], margin: float = 0.05) -> np.ndarray:
    """Shift entries of x that sit within margin of any kink point."""
    out = x.copy()
    for pt in points:
        near = np.abs(out - pt) < margin
        out[near] = pt + margin * np.where(out[near] >= pt, 2.0, -2.0)
    return out


@dataclass
class OpCheckResult:
    name: str
    max_rel_err: float

    @property
    def ok(self) -> bool:
        return self.max_rel_err < TOL_DEFAULT


def _rand(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def _op_cases():
    """One named case per differentiable op; each returns (params, op), where
    ``op()`` recomputes the op's output from ``params``."""

    def c_add(rng):
        a, b = _rand(rng, 3, 4), _rand(rng, 4)
        return [a, b], lambda: a + b

    def c_sub(rng):
        a, b = _rand(rng, 2, 3), _rand(rng, 2, 3)
        return [a, b], lambda: a - b

    def c_mul(rng):
        a, b = _rand(rng, 3, 4), _rand(rng, 3, 1)
        return [a, b], lambda: a * b

    def c_div(rng):
        a = _rand(rng, 3, 4)
        b = Tensor(away_from(rng.standard_normal((3, 4)), [0.0], 0.4), requires_grad=True)
        return [a, b], lambda: a / b

    def c_neg(rng):
        a = _rand(rng, 5)
        return [a], lambda: -a

    def c_matmul(rng):
        a, b = _rand(rng, 4, 3), _rand(rng, 3, 5)
        return [a, b], lambda: a @ b

    def c_matmul_batched(rng):
        a, b = _rand(rng, 2, 3, 4), _rand(rng, 4, 5)
        return [a, b], lambda: a @ b

    def c_conv2d(rng):
        x, k = _rand(rng, 2, 3, 5, 5), _rand(rng, 4, 3, 3, 3)
        return [x, k], lambda: T.conv2d(x, k)

    def c_conv2d_1x1(rng):
        x, k = _rand(rng, 2, 4, 3, 3), _rand(rng, 2, 4, 1, 1)
        return [x, k], lambda: T.conv2d(x, k)

    def c_conv2d_bias(rng):
        x, k, b = _rand(rng, 2, 3, 6, 5), _rand(rng, 2, 3, 3, 3), _rand(rng, 2)
        return [x, k, b], lambda: T.conv2d(x, k, b)

    def c_conv2d_7x7(rng):  # the SpatialGate geometry: 2 -> 1 channels
        x, k = _rand(rng, 2, 2, 8, 8), _rand(rng, 1, 2, 7, 7)
        return [x, k], lambda: T.conv2d(x, k)

    def c_softmax(rng):
        x = _rand(rng, 3, 6)
        return [x], lambda: T.softmax_lastdim(x)

    def c_upsample(rng):
        x = _rand(rng, 2, 3, 3, 4)
        return [x], lambda: T.upsample2x_nearest(x)

    def c_avgpool(rng):
        x = _rand(rng, 2, 3, 4, 6)
        return [x], lambda: T.avgpool2x(x)

    def c_concat(rng):
        a, b = _rand(rng, 2, 3, 4, 4), _rand(rng, 2, 2, 4, 4)
        return [a, b], lambda: T.concat_channels([a, b])

    def c_elementwise_add(rng):
        a, b = _rand(rng, 2, 3), _rand(rng, 2, 3)
        return [a, b], lambda: T.elementwise(a, b, "add")

    def c_elementwise_mul(rng):
        a, b = _rand(rng, 2, 3), _rand(rng, 2, 3)
        return [a, b], lambda: T.elementwise(a, b, "mul")

    def c_relu(rng):
        x = Tensor(away_from(rng.standard_normal((4, 5)), [0.0]), requires_grad=True)
        return [x], lambda: T.relu(x)

    def c_gelu(rng):
        x = _rand(rng, 4, 5)
        return [x], lambda: T.gelu(x)

    def c_sigmoid(rng):
        x = _rand(rng, 4, 5)
        return [x], lambda: T.sigmoid(x)

    def c_layernorm(rng):
        x, g, b = _rand(rng, 3, 7), _rand(rng, 7), _rand(rng, 7)
        return [x, g, b], lambda: T.layernorm_lastdim(x, g, b)

    def c_batchnorm_train(rng):
        x, g, b = _rand(rng, 3, 4, 5, 5), _rand(rng, 4), _rand(rng, 4)
        rm, rv = np.zeros(4), np.ones(4)  # written, never read, in training mode
        return [x, g, b], lambda: T.batchnorm_channel(x, g, b, rm, rv, training=True)

    def c_batchnorm_eval(rng):
        x, g, b = _rand(rng, 2, 4, 3, 3), _rand(rng, 4), _rand(rng, 4)
        rm, rv = rng.standard_normal(4), 0.5 + rng.random(4)
        return [x, g, b], lambda: T.batchnorm_channel(x, g, b, rm, rv, training=False)

    def c_sum_axis(rng):
        x = _rand(rng, 3, 4, 5)
        return [x], lambda: x.sum(axis=1)

    def c_mean_axis(rng):
        x = _rand(rng, 3, 4, 5)
        return [x], lambda: x.mean(axis=(0, 2))

    def c_amax(rng):
        # spread values so the max stays unique under the FD perturbation
        base = rng.permutation(20).reshape(4, 5) * 0.5
        x = Tensor(base + 0.01 * rng.standard_normal((4, 5)), requires_grad=True)
        return [x], lambda: T.amax(x, axis=1)

    def c_reshape(rng):
        x = _rand(rng, 3, 8)
        return [x], lambda: T.reshape(x, (2, 3, 4))

    def c_transpose(rng):
        x = _rand(rng, 2, 3, 4)
        return [x], lambda: T.transpose(x, (2, 0, 1))

    def c_clip(rng):
        x = Tensor(away_from(2.0 * rng.standard_normal((4, 5)), [-1.0, 1.0]), requires_grad=True)
        return [x], lambda: T.clip(x, -1.0, 1.0)

    def c_log(rng):
        x = Tensor(0.5 + rng.random((4, 5)), requires_grad=True)
        return [x], lambda: T.log(x)

    def c_matmul_bias(rng):
        a, w, b = _rand(rng, 2, 3, 4), _rand(rng, 4, 5), _rand(rng, 5)
        return [a, w, b], lambda: T.matmul(a, w, b)

    def c_attention(rng):
        q, k, v = _rand(rng, 2, 2, 5, 4), _rand(rng, 2, 2, 5, 4), _rand(rng, 2, 2, 5, 4)
        return [q, k, v], lambda: T.attention(q, k, v)

    def c_mlp(rng):
        x, w1, b1 = _rand(rng, 2, 3, 4), _rand(rng, 4, 6), _rand(rng, 6)
        w2, b2 = _rand(rng, 6, 4), _rand(rng, 4)
        return [x, w1, b1, w2, b2], lambda: T.mlp(x, w1, b1, w2, b2)

    fns = [
        c_add, c_sub, c_mul, c_div, c_neg, c_matmul, c_matmul_batched,
        c_conv2d, c_conv2d_1x1, c_softmax, c_upsample, c_avgpool, c_concat,
        c_elementwise_add, c_elementwise_mul, c_relu, c_gelu, c_sigmoid,
        c_layernorm, c_batchnorm_train, c_batchnorm_eval, c_sum_axis,
        c_mean_axis, c_amax, c_reshape, c_transpose, c_clip, c_log,
        c_conv2d_bias, c_conv2d_7x7, c_matmul_bias, c_attention, c_mlp,
    ]
    return [(f.__name__[2:], f) for f in fns]


def run_op_suite(seed: int = 0, inputs_per_op: int = 5) -> list[OpCheckResult]:
    """Check every differentiable op on seeded random inputs."""
    results = []
    for ci, (name, build) in enumerate(_op_cases()):
        worst = 0.0
        for trial in range(inputs_per_op):
            rng = np.random.default_rng([seed, ci, trial])
            params, op = build(rng)
            # fixed random weights reduce the output to one deterministic scalar
            w = rng.standard_normal(op().shape)
            err = check_function(lambda: (op() * w).sum(), params, rng)
            worst = max(worst, err)
        results.append(OpCheckResult(name, worst))
    return results


def check_model_end_to_end(seed: int = 0, n_samples: int = 50) -> float:
    """Gradient-check the full three-view model at 64px, depth 2, 64-bit.

    The loss is the mean of the three view losses on one synthetic batch,
    so every parameter of both branches and the fusion path is live.
    The model runs in training mode, whose batchnorm writes its running
    buffers but never reads them, so every evaluation sees the same function.
    Probes that straddle a relu/amax/clip kink are redrawn: with a quarter
    million relu activations some pre-activation always sits within h of
    zero, making a handful of finite-difference quotients meaningless
    regardless of gradient correctness.
    """
    cfg = toy_config(
        seed=seed, dtype="float64", d_model=48, stem_channels=8,
        stage_units=1, c4=16, c8=24, c16=32, batch_size=2,
    )
    model = SegmentationModel(cfg)
    model.train()
    [(_, images, masks)] = make_batches(synth_dataset(2, cfg.image_size, seed), 2, cfg.dtype)

    def loss():
        outs = model(images)
        total = sum(view_loss(pre, masks) for pre in outs)
        return total * (1.0 / 3.0)

    rng = np.random.default_rng(seed)
    return check_function(loss, model.parameters(), rng, n_samples=n_samples)
