"""Layer primitives on top of the tensor engine.

A module's state is its attributes: a ``requires_grad`` Tensor is a parameter,
a ``Module`` is a child and an ndarray is a buffer; each ``Module`` in a list
attribute is a child named by its position. ``named_state`` walks them
in assignment order with dotted names, which fixes the serialization order of
checkpoints.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple

import numpy as np

from . import tensor as T
from .checkpoint import CheckpointError
from .tensor import ShapeError, Tensor


class Module:
    training = True  # train() and eval() set it on each instance

    def modules(self) -> Iterator[tuple[str, "Module"]]:
        """This module and its descendants, pre-order, each with its dotted name prefix."""
        yield "", self
        for name, value in vars(self).items():
            if isinstance(value, list):
                named = [(f"{name}.{i}", v) for i, v in enumerate(value)]
            else:
                named = [(name, value)]
            for child_name, child in named:
                if isinstance(child, Module):
                    for prefix, module in child.modules():
                        yield f"{child_name}.{prefix}", module

    def named_parameters(self) -> Iterator[tuple[str, Tensor]]:
        for prefix, module in self.modules():
            for name, p in vars(module).items():
                if isinstance(p, Tensor) and p.requires_grad:
                    yield prefix + name, p

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]

    def named_buffers(self) -> Iterator[tuple[str, np.ndarray]]:
        for prefix, module in self.modules():
            for name, b in vars(module).items():
                if isinstance(b, np.ndarray):
                    yield prefix + name, b

    def named_state(self) -> Iterator[tuple[str, np.ndarray]]:
        """Parameters then buffers, each in assignment order: the full model state."""
        for name, p in self.named_parameters():
            yield name, p.data
        yield from self.named_buffers()

    def load_state(self, state: dict[str, np.ndarray]):
        own = dict(self.named_state())
        missing = sorted(set(own) - set(state))
        extra = sorted(set(state) - set(own))
        if missing or extra:
            raise CheckpointError(f"state mismatch: missing {missing}, unexpected {extra}")
        # a parameter's .data and a buffer are the arrays themselves: assign in place
        for name, dst in own.items():
            src = state[name]
            if src.shape != dst.shape:
                raise ShapeError(f"state {name!r}: shape {src.shape} vs expected {dst.shape}")
            dst[...] = src

    def train(self):
        for _, module in self.modules():
            module.training = True
        return self

    def eval(self):
        for _, module in self.modules():
            module.training = False
        return self

    def cast(self, dtype):
        """Give every parameter's data ``dtype``; buffers keep theirs."""
        for p in self.parameters():
            p.data = p.data.astype(dtype, copy=False)
        return self


class Linear(Module):
    """y = x @ W + b with W of shape (in, out)."""

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator, bias: bool = True):
        self.weight = Tensor(rng.standard_normal((d_in, d_out)) * 0.02, requires_grad=True)
        self.bias = Tensor(np.zeros(d_out), requires_grad=True) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        return T.matmul(x, self.weight, self.bias)


class Conv2d(Module):
    """Odd-kernel, size-preserving 2-d convolution, He-normal init, optional bias."""

    def __init__(self, c_in: int, c_out: int, kernel_size: int, rng: np.random.Generator,
                 bias: bool = True):
        k = kernel_size
        # a Python float: zeros standing in for a draw keep their dtype when scaled
        std = math.sqrt(2.0 / (c_in * k * k))
        self.weight = Tensor(rng.standard_normal((c_out, c_in, k, k)) * std, requires_grad=True)
        self.bias = Tensor(np.zeros(c_out), requires_grad=True) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        return T.conv2d(x, self.weight, self.bias)


class BatchNorm2d(Module):
    def __init__(self, channels: int):
        self.gamma = Tensor(np.ones(channels), requires_grad=True)
        self.beta = Tensor(np.zeros(channels), requires_grad=True)
        self.running_mean = np.zeros(channels, dtype=np.float64)
        self.running_var = np.ones(channels, dtype=np.float64)

    def __call__(self, x: Tensor) -> Tensor:
        return T.batchnorm_channel(x, self.gamma, self.beta, self.running_mean,
                                   self.running_var, training=self.training)


class LayerNorm(Module):
    def __init__(self, dim: int):
        self.gamma = Tensor(np.ones(dim), requires_grad=True)
        self.beta = Tensor(np.zeros(dim), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return T.layernorm_lastdim(x, self.gamma, self.beta)


class ConvUnit(Module):
    """3x3 conv + BatchNorm + ReLU, the decoder's unit block."""

    def __init__(self, c_in: int, c_out: int, rng: np.random.Generator):
        self.conv = Conv2d(c_in, c_out, 3, rng, bias=False)
        self.bn = BatchNorm2d(c_out)

    def __call__(self, x: Tensor) -> Tensor:
        return T.relu(self.bn(self.conv(x)))


def probability_map(logits: Tensor) -> Tensor:
    """Every view's output rule: 1/4-scale logits, 4x nearest upsampling, sigmoid."""
    return T.sigmoid(T.upsample2x_nearest(T.upsample2x_nearest(logits)))


class MultiScaleFeatures(NamedTuple):
    """Branch outputs at 1/16, 1/8, 1/4 of the input resolution."""

    s16: Tensor
    s8: Tensor
    s4: Tensor
