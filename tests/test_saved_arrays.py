"""What a recorded step keeps alive: each backward rule holds the arrays it
reads and no others, and no tape node holds a Tensor other than a leaf."""

import weakref

import numpy as np
import pytest

import helpers
from coopseg import tensor as T
from coopseg.config import RunConfig, toy_config
from coopseg.data import make_batches, synth_dataset
from coopseg.model import SegmentationModel
from coopseg.nn import ConvUnit
from coopseg.tensor import Tensor
from coopseg.train import view_loss
from coopseg.transformer import EncoderBlock

# one toy-geometry step (batch 8) keeps 20.8 MB of non-leaf arrays; when every
# node held its output and input tensors it kept 38.9 MB
TOY_SAVED_MB_BOUND = 22.0


def _root(a: np.ndarray) -> np.ndarray:
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def held_arrays(tape: T.GradTape) -> tuple[dict, list]:
    """The distinct non-leaf buffers that node outputs, inputs and backward
    closures hold, keyed by id, and every Tensor found in a closure."""
    held, leaves, tensors = {}, set(), []
    for n in tape.nodes:
        closure = helpers.closure_values(n)
        tensors += [v for v in closure if isinstance(v, Tensor)]
        for value in [n.out, *n.inputs, *closure]:
            if isinstance(value, Tensor):
                if value.node is None:
                    leaves.add(id(_root(value.data)))
                value = value.data
            if isinstance(value, np.ndarray):
                held[id(_root(value))] = _root(value)
    return {k: a for k, a in held.items() if k not in leaves}, tensors


def test_toy_step_keeps_only_what_backward_reads():
    cfg = toy_config(seed=0)
    model = SegmentationModel(cfg)
    [(_, images, masks)] = make_batches(synth_dataset(cfg.batch_size, cfg.image_size, 0),
                                        cfg.batch_size, np.float32)
    with T.step() as tape:
        loss = sum(view_loss(pre, masks) for pre in model(images))
        held, tensors = held_arrays(tape)
        T.backward(loss)
    assert not tensors
    saved_mb = sum(a.nbytes for a in held.values()) / 1e6
    assert saved_mb <= TOY_SAVED_MB_BOUND
    assert all(p.grad is not None for p in model.parameters())


def test_conv_unit_batchnorm_output_dies_before_backward(monkeypatch):
    # relu keeps a bool mask of its input, so nothing reads the BatchNorm output
    refs = []

    def batchnorm_channel(*args, inner=T.batchnorm_channel, **kwargs):
        out = inner(*args, **kwargs)
        refs.append(weakref.ref(out.data))
        return out

    monkeypatch.setattr(T, "batchnorm_channel", batchnorm_channel)
    unit = ConvUnit(3, 4, np.random.default_rng(0))
    x = Tensor(np.random.default_rng(1).standard_normal((2, 3, 6, 6)))
    with helpers.cyclic_gc_disabled(), T.step():
        loss = unit(x).sum()
        assert len(refs) == 1 and refs[0]() is None
        T.backward(loss)
    assert unit.conv.weight.grad is not None and unit.bn.gamma.grad is not None


def test_an_encoder_block_keeps_its_inputs_q_k_v_h_and_row_statistics_only():
    # neither LayerNorm's output nor the attention heads' output: backward rebuilds both
    rng = np.random.default_rng(7)
    block = EncoderBlock(RunConfig(depth=1, d_model=8, heads=2), rng)
    for norm in (block.norm1, block.norm2):
        norm.gamma.data[...] = 1.0 + 0.5 * rng.standard_normal(8)
        norm.beta.data[...] = 0.5 * rng.standard_normal(8)
    leaf = Tensor(rng.standard_normal((2, 5, 8)), requires_grad=True)
    leaves = {id(p.data) for p in block.parameters()}
    with T.step() as tape:
        x = leaf + 0.0  # an input of its own, as a block's is
        block(x)
        assert [n.op for n in tape.nodes] == ["add", "attention", "add", "mlp", "add"]
        held = {id(_root(v)): _root(v) for n in tape.nodes for v in helpers.closure_values(n)
                if isinstance(v, np.ndarray)}
    saved = [a for key, a in held.items() if key not in leaves]
    assert sorted(a.shape for a in saved) == sorted(
        [(2, 5, 8)] * 2 + [(2, 2, 5, 4)] * 3 + [(2, 5, 32)] + [(2, 5, 1)] * 4)
    # the attention half's input x, and the MLP half's, x plus the attention half
    [mid] = [a for a in saved if a.shape == (2, 5, 8) and a is not x.data]
    assert any(a is x.data for a in saved)
    attn = block.attn
    xh = T.layernorm_lastdim(x, block.norm1.gamma, block.norm1.beta).data[:, None]
    assert all(any(np.array_equal(a, xh @ w.data) for a in saved) for w in (attn.wq, attn.wk, attn.wv))
    xn = T.layernorm_lastdim(Tensor(mid), block.norm2.gamma, block.norm2.beta).data
    h = xn @ block.mlp.fc1.weight.data + block.mlp.fc1.bias.data
    assert any(np.array_equal(a, h) for a in saved)


def _leaf(rng, shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


SHAPE_ONLY_OPS = {
    "add": lambda r: T.add(_leaf(r, (2, 3)), _leaf(r, (3,))),
    "sub": lambda r: T.sub(_leaf(r, (2, 3)), _leaf(r, (2, 1))),
    "neg": lambda r: T.neg(_leaf(r, (2, 3))),
    "concat": lambda r: T.concat([_leaf(r, (2, 3)), _leaf(r, (2, 1))], axis=1),
    "reshape": lambda r: T.reshape(_leaf(r, (2, 3)), (3, 2)),
    "transpose": lambda r: T.transpose(_leaf(r, (2, 3, 4)), (2, 0, 1)),
    "upsample2x_nearest": lambda r: T.upsample2x_nearest(_leaf(r, (1, 2, 3, 3))),
    "avgpool2x": lambda r: T.avgpool2x(_leaf(r, (1, 2, 4, 4))),
    "sum": lambda r: T.tsum(_leaf(r, (2, 3)), axis=1),
    "mean": lambda r: T.tmean(_leaf(r, (2, 3)), axis=0, keepdims=True),
}


@pytest.mark.parametrize("op", sorted(SHAPE_ONLY_OPS))
def test_shape_only_rules_capture_no_array(op):
    with T.step():
        node = SHAPE_ONLY_OPS[op](np.random.default_rng(0)).node
        values = helpers.closure_values(node)
    assert node.op == op
    assert not [v for v in values if isinstance(v, (np.ndarray, Tensor))]
