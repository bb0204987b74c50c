"""The benchmark's span tracer (perfbench/tracer.py) wraps coopseg names by
lookup; a renamed or deleted op, function or ``__call__`` would break
``perfbench/run.py --trace 1``. These tests install the tracer, check that
every name it lists was found and wrapped, and that restoring it leaves the
package exactly as it was."""

import importlib.util
import sys
from pathlib import Path

from coopseg import tensor as T

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
