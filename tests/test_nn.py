"""The module system: a module's attributes are its state, so what a forward reads is
what a checkpoint saves."""

import numpy as np

from coopseg.nn import BatchNorm2d, Linear, Module
from coopseg.tensor import Tensor


class Plain(Module):
    """Never calls ``super().__init__()``: the attributes alone make the state."""

    def __init__(self):
        self.scale = Tensor(np.ones(2), requires_grad=True)
        self.fc = Linear(2, 3, np.random.default_rng(0))
        self.stats = np.zeros(2)
        self.fixed = Tensor(np.ones(2))  # no gradient: neither parameter nor buffer
        self.label = "plain"


def test_reassigned_buffer_is_the_saved_state():
    bn = BatchNorm2d(4).eval()
    bn.running_mean = np.full(4, 7.0)
    state = dict(bn.named_state())
    assert state["running_mean"] is bn.running_mean
    x = np.full((1, 4, 2, 2), 7.0)
    np.testing.assert_array_equal(bn(Tensor(x)).data, 0.0)  # the forward reads it too
    other = BatchNorm2d(4)
    other.load_state(state)
    np.testing.assert_array_equal(other.running_mean, 7.0)


def test_subclass_without_super_init_reports_its_state():
    m = Plain()
    assert [name for name, _ in m.modules()] == ["", "fc."]
    assert [name for name, _ in m.named_parameters()] == ["scale", "fc.weight", "fc.bias"]
    assert [name for name, _ in m.named_buffers()] == ["stats"]
    assert [name for name, _ in m.named_state()] == ["scale", "fc.weight", "fc.bias", "stats"]
    assert m.training and m.fc.training
    m.eval()
    assert not m.training and not m.fc.training
    assert Plain().training  # eval() set the instance, not the class


class Stack(Module):
    """Holds its layers in a plain list."""

    def __init__(self, rng):
        self.layers = [Linear(2, 2, rng, bias=False) for _ in range(2)]
        self.layers.append(Linear(2, 2, rng, bias=False))
        self.sizes = [2, 2]  # a list of non-modules holds no children


def test_list_attribute_names_its_modules_by_position():
    m = Stack(np.random.default_rng(0))
    assert [name for name, _ in m.modules()] == ["", "layers.0.", "layers.1.", "layers.2."]
    assert [name for name, _ in m.named_parameters()] == [
        "layers.0.weight", "layers.1.weight", "layers.2.weight"]
    m.eval()
    assert not any(layer.training for layer in m.layers)
