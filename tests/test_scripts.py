"""Smoke runs of the example scripts against the public API."""

import hashlib
import runpy
import sys
from pathlib import Path

from confvac import suites

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _main(name):
    return runpy.run_path(str(SCRIPTS / name))["main"]


def test_worked_example_runs(capsys):
    _main("worked_example.py")()
    out = capsys.readouterr().out
    assert "scale factor at (1,0,0,0): 4.0" in out
    assert "singular residual there:  0.25" in out.splitlines()
    assert "classified uniformly_accelerated" in out
    # the sine mirror's evidence is the exact max |S| = 1/11
    assert "sinusoidal             -> modified  (Schwarzian evidence 9.09e-02)" in out.splitlines()


def test_sweep_em_residuals_runs(tmp_path, monkeypatch, capsys):
    out = tmp_path / "sweep.csv"
    monkeypatch.setattr(sys, "argv", ["sweep_em_residuals.py", "--out", str(out)])
    assert _main("sweep_em_residuals.py")() == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "epsilon,h,field_residual,transport_residual"
    assert len(lines) == 13


def test_run_all_suites_prints_report_digests(monkeypatch, capsys):
    monkeypatch.setattr(suites, "SUITE_NAMES", ("fdr", "mirror-2d"))
    monkeypatch.setattr(sys, "argv", ["run_all_suites.py", "--seed", "7"])
    assert _main("run_all_suites.py")() == 0
    captured = capsys.readouterr()
    for name in ("fdr", "mirror-2d"):
        report = suites.run_suite(suites.SuiteConfig(suite=name, seed=7))
        digest = hashlib.sha256(report.to_json(include_wall_time=False).encode()).hexdigest()
        assert f"{name:20s} PASS  sha256 {digest}" in captured.out.splitlines()
        assert name in captured.err
