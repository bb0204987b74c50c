"""The benchmark's span tracer (perfbench/tracer.py) wraps coopseg names by
lookup; a renamed or deleted op, function or ``__call__`` would break
``perfbench/run.py --trace 1``. These tests install the tracer, check that
every name it lists was found and wrapped, that its tape hooks still read
the tape of a training step, and that restoring it leaves the package exactly
as it was. The workloads (perfbench/workloads.py) read and patch coopseg
attributes by name too; their lookups are checked from the source."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from coopseg import tensor as T
from coopseg import train
from coopseg.config import toy_config
from coopseg.data import synth_dataset
from coopseg.model import SegmentationModel

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
WORKLOADS_PATH = TRACER_PATH.with_name("workloads.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def coopseg_module(name):
    return sys.modules[f"coopseg.{name}"]


def snapshot(tr):
    """Identity of every module attribute and traced method the tracer may rebind."""
    mods = {n: dict(vars(m)) for n, m in sys.modules.items() if n.startswith("coopseg") and m}
    methods = {
        key: getattr(coopseg_module(key[0]), key[1]).__dict__[key[2]] for key in tr.METHOD_SPANS
    }
    return mods, methods


def test_install_wraps_every_traced_name():
    tr = load_tracer()
    before_mods, before_methods = snapshot(tr)
    patcher = tr.Patcher()
    try:
        tr.install(tr.Tracer(), patcher)  # raises if a listed name is missing
        for fname in tr.TENSOR_FUNCS:
            assert getattr(T, fname).__wrapped__ is before_mods["coopseg.tensor"][fname], fname
        for mod, fname in tr.FUNCTION_SPANS:
            wrapped = getattr(coopseg_module(mod), fname)
            assert wrapped.__wrapped__ is before_mods[f"coopseg.{mod}"][fname], (mod, fname)
        assert T.backward is not before_mods["coopseg.tensor"]["backward"]
        for key, original in before_methods.items():
            cls = getattr(coopseg_module(key[0]), key[1])
            assert cls.__dict__[key[2]].__wrapped__ is original, key
    finally:
        patcher.restore()


def test_restore_leaves_the_package_unchanged():
    tr = load_tracer()
    before_mods, before_methods = snapshot(tr)
    conv2d = T.conv2d
    patcher = tr.Patcher()
    try:
        tr.install(tr.Tracer(), patcher)
        assert T.conv2d is not conv2d
    finally:
        patcher.restore()
    assert T.conv2d is conv2d
    after_mods, after_methods = snapshot(tr)
    assert after_methods.keys() == before_methods.keys()
    for key, original in before_methods.items():
        assert after_methods[key] is original, key
    for name, attrs in before_mods.items():
        after = after_mods[name]
        changed = [a for a, v in attrs.items() if after.get(a) is not v]
        assert not changed, (name, changed)


def test_traced_train_step_counts_its_tape():
    # the tape_stats and backward-span hooks read TapeNode.out/backward_fn and GradTape.nodes
    tr = load_tracer()
    cfg = toy_config(image_size=32, d_model=48, stem_channels=4, stage_units=1,
                     c4=8, c8=12, c16=16, seed=5)
    model = SegmentationModel(cfg)
    opt = train.Adam(model.parameters(), lr=cfg.lr)
    sample = synth_dataset(1, cfg.image_size, seed=5)[0]
    batch = (T.Tensor(sample.image[None].astype(np.float32)),
             T.Tensor(sample.mask[None].astype(np.float32)))
    tracer, patcher = tr.Tracer(), tr.Patcher()
    try:
        tr.install(tracer, patcher)
        train.train_epoch(model, opt, [batch], lam=cfg.lam)
    finally:
        patcher.restore()
    assert tracer.counters["tensor.tape_nodes"] > 0
    assert tracer.max_saved_bytes > 0
    assert "tensor.conv2d.bwd" in tracer.names
    assert "train.epoch" in tracer.names


def test_every_coopseg_name_the_workloads_look_up_exists():
    """Every ``from coopseg... import`` of the workloads resolves, and so does every
    attribute they read from a name it binds (``cli.main``, ``T.no_grad``,
    ``SegmentationModel.__call__``) or patch by string (``hooks.set(cli, "_decide", ...)``)."""

    def resolve(module, name):  # as ``from module import name`` does
        try:
            return getattr(importlib.import_module(module), name)
        except AttributeError:
            return importlib.import_module(f"{module}.{name}")

    tree = ast.parse(WORKLOADS_PATH.read_text())
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "coopseg":
            for alias in node.names:
                bound[alias.asname or alias.name] = resolve(node.module, alias.name)
    looked_up = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            looked_up.add((node.value.id, node.attr))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "set" and len(node.args) > 1
              and isinstance(node.args[0], ast.Name) and isinstance(node.args[1], ast.Constant)):
            looked_up.add((node.args[0].id, node.args[1].value))
    looked_up = {(name, attr) for name, attr in looked_up if name in bound}
    assert {("cli", "_decide"), ("train", "Adam"), ("T", "no_grad"),
            ("SegmentationModel", "__call__")} <= looked_up

    def has(obj, attr):  # a class's own MRO, not its metaclass: every class has type.__call__
        return any(attr in vars(c) for c in obj.__mro__) if isinstance(obj, type) else hasattr(obj, attr)

    missing = sorted(f"{name}.{attr}" for name, attr in looked_up if not has(bound[name], attr))
    assert not missing
