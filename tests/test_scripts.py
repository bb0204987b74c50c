"""Smoke runs of the experiment scripts under scripts/, one training step per model."""

import importlib
import re
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(monkeypatch, capsys, name):
    monkeypatch.syspath_prepend(str(SCRIPTS))  # run_ablation_grid imports run_toy_overfit
    monkeypatch.setattr(sys, "argv", [f"{name}.py", "--steps", "1"])
    assert importlib.import_module(name).main() == 0
    return capsys.readouterr().out.splitlines()


def test_toy_overfit_reports_its_one_step(monkeypatch, capsys):
    out = run_script(monkeypatch, capsys, "run_toy_overfit")
    assert [line.split()[:2] for line in out if line.startswith("step")] == [["step", "1"]]
    assert out[-1].startswith("final fused training mDice ")


def test_ablation_grid_prints_one_row_per_combination(monkeypatch, capsys):
    out = run_script(monkeypatch, capsys, "run_ablation_grid")
    rows = [line.split()[:2] for line in out if re.match(r"\s*(True|False)\s+(True|False) \|", line)]
    assert rows == [["True", "True"], ["True", "False"], ["False", "True"], ["False", "False"]]


def test_core_probe_prints_its_two_thread_to_serial_ratio(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    monkeypatch.setattr(sys, "argv", ["core_probe.py", "--repeats", "3"])
    assert importlib.import_module("core_probe").main() == 0
    [line] = capsys.readouterr().out.splitlines()
    fields = line.split()
    assert fields[0] == "core_probe" and fields[1::2] == ["serial_s", "two_thread_s", "ratio"]
    serial, two, ratio = map(float, fields[2::2])
    assert serial > 0 and two > 0 and ratio == pytest.approx(two / serial, abs=1e-3)
