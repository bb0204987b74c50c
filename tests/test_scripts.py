"""Smoke runs of the experiment scripts under scripts/, one training step per model."""

import importlib
import re
import sys
from pathlib import Path

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
