"""Smoke runs of the example scripts against the public API."""

import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _main(name):
    return runpy.run_path(str(SCRIPTS / name))["main"]


def test_worked_example_runs(capsys):
    _main("worked_example.py")()
    out = capsys.readouterr().out
    assert "scale factor at (1,0,0,0): 4.0" in out
    assert "classified uniformly_accelerated" in out


def test_sweep_em_residuals_runs(tmp_path, monkeypatch, capsys):
    out = tmp_path / "sweep.csv"
    monkeypatch.setattr(sys, "argv", ["sweep_em_residuals.py", "--out", str(out)])
    assert _main("sweep_em_residuals.py")() == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "epsilon,h,field_residual,transport_residual"
    assert len(lines) == 13
