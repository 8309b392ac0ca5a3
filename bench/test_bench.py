"""Tests of the benchmark's own output checks and tracer.

Each output check must flag a planted error: a perturbed image row, a
suite check forced to fail, a mismatched same-seed rerun.  The tracer must
count calls at layer boundaries and leave every binding as it found it.

    python3 -m pytest bench
"""

import csv
import json
import shutil
import signal
import subprocess
import sys
import time
from argparse import Namespace
from pathlib import Path

import numpy as np
import pytest

import run
import tracer as tr
import workloads as wl

HERE = Path(__file__).resolve().parent
PKG = wl.load_confvac(HERE.parent)
CHEAP_SUITES = ("fdr", "mirror-2d")


@pytest.fixture(scope="module")
def transform(tmp_path_factory):
    w = wl.TransformWorkload(PKG, seed=3, workdir=tmp_path_factory.mktemp("io"), n=200)
    w.setup()
    return w


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _write_rows(path, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def test_transform_outputs_pass_every_check(transform):
    out = transform.check(transform.run_pass())
    assert (out.attempted, out.failed) == (400, 0)
    assert len(out.margins) == 3 and min(out.margins) > 2


def test_transform_inputs_repeat_for_a_seed():
    a = wl.make_transform_inputs(11, n=50)
    b = wl.make_transform_inputs(11, n=50)
    c = wl.make_transform_inputs(12, n=50)
    assert a["form"][0] == b["form"][0] and np.array_equal(a["chain"][1], b["chain"][1])
    assert not np.array_equal(a["form"][1], c["form"][1])


@pytest.mark.parametrize("kind", ["form", "chain"])
def test_perturbed_image_row_is_flagged(transform, kind):
    codes = transform.run_pass()
    wl.inject_row_error(transform, kind, row=17)
    out = transform.check(codes)
    assert out.failed >= 1
    assert any(f"{kind}: row 17 " in m for m in out.messages)


def test_singular_or_missing_rows_are_flagged(transform):
    codes = transform.run_pass()
    path = transform.paths["chain"][2]
    rows = _rows(path)
    rows[5][-1] = "singular"
    _write_rows(path, rows[:-3])
    out = transform.check(codes)
    assert out.failed == 200     # a short file fails every chain row
    codes = transform.run_pass()
    rows = _rows(path)
    rows[5][-1] = "singular"
    _write_rows(path, rows)
    assert transform.check(codes).failed >= 1
    transform.run_pass()
    assert transform.check({"form": 1, "chain": 0}).failed == 200


def test_forced_check_failure_is_flagged():
    w = wl.SuiteWorkload(PKG, CHEAP_SUITES, seed=1)
    reports = w.run_pass()
    wl.inject_failed_check(reports)
    out = w.check(reports)
    assert out.failed == 1
    assert "fdr: check vacuum-limit-deviation failed" in out.messages[0]


def test_mismatched_rerun_is_flagged():
    w = wl.SuiteWorkload(PKG, CHEAP_SUITES, seed=1)
    first = w.check(w.run_pass())
    assert first.failed == 0 and first.attempted == 5
    again = w.check(w.run_pass())
    assert again.failed == 0 and again.attempted == 7
    wl.inject_rerun_mismatch(w)
    out = w.check(w.run_pass())
    assert out.failed == 1 and "fdr: same-seed rerun differs" in out.messages


@pytest.mark.parametrize("kind,failed", [("check", 1), ("rerun", 0)])
def test_run_injection_reaches_the_checks(kind, failed):
    w = wl.SuiteWorkload(PKG, CHEAP_SUITES, seed=1)
    total = wl.Outcome()
    run.checked_pass(w, total, Namespace(inject=kind), first=True)
    assert total.failed == failed
    run.checked_pass(w, total, Namespace(inject=kind), first=False)
    assert total.failed == failed + 1     # the second pass differs from the first


def test_em_field_passes_and_repeats():
    w = wl.SuiteWorkload(PKG, (wl.EM_FIELD,), seed=3)
    for alpha, beta, x, xp in w.em_inputs:
        assert np.all(wl.form_image(alpha, beta, np.array([x, xp]))[2] >= wl.EM_MIN_DENOMINATOR)
        assert wl.mdot(x - xp, x - xp) <= wl.EM_MAX_INTERVAL
    assert w.work == wl.EM_SAMPLES
    first = w.check(w.run_pass())
    assert (first.attempted, first.failed, len(first.margins)) == (3, 0, 3)
    again = w.check(w.run_pass())
    assert (again.attempted, again.failed) == (4, 0)


@pytest.mark.xfail(strict=True, reason="residual-decreases-at-half-h fails at about one "
                   "seed in seven; correlators runs em-field in its place until it is fixed")
def test_em_invariance_passes_at_seed_6():
    w = wl.SuiteWorkload(PKG, ("em-invariance",), seed=6)
    out = w.check(w.run_pass())
    assert out.failed == 0, out.messages


def test_speed_probe_scale_is_the_mean_probe_speed():
    p = run.SpeedProbe()
    p.durations = [p.REFERENCE_S, p.REFERENCE_S / 3]     # speeds 1 and 3
    assert p.scale(0) == pytest.approx(2.0)
    assert p.scale(1, 2) == pytest.approx(3.0)
    assert p.scale(2) == pytest.approx(2.0)               # empty window: every probe


def test_speed_probe_samples_while_running_and_stops():
    p = run.SpeedProbe()
    p.start()
    try:
        end = time.perf_counter() + 0.4
        while time.perf_counter() < end:
            pass
    finally:
        p.stop()
    n = p.mark()
    assert n >= 4 and all(d > 0 for d in p.durations)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    time.sleep(0.15)
    assert p.mark() == n


def test_gate_margin():
    out = wl.Outcome()
    out.add_margin(1e-4, 1e-6)
    out.add_margin(1e3, 1e5, ">")
    out.add_margin(1e-300, 0.0)
    assert out.margins == pytest.approx([2.0, 2.0])


def test_tracer_restores_every_binding():
    def snapshot():
        out = {}
        for name, mod in list(sys.modules.items()):
            if name == "confvac" or name.startswith("confvac."):
                for k, v in vars(mod).items():
                    out[(name, k)] = v
                    if isinstance(v, type) and v.__module__ == name:
                        out.update({(name, k, a): b for a, b in vars(v).items()})
        return out

    before = snapshot()
    t = tr.Tracer(PKG)
    conformal = t.modules["conformal"]
    original = conformal.minkowski_dot
    with t.installed():
        assert conformal.minkowski_dot is not original
        assert conformal.minkowski_dot is t.modules["minkowski"].minkowski_dot
        assert t.modules["kinematics"].apply_map is conformal.apply_map
        assert PKG.apply_map is conformal.apply_map
        assert vars(conformal.AcceleratedFrameForm)["apply"].__wrapped__ is not None
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_tracer_counts_at_layer_boundaries():
    t = tr.Tracer(PKG)
    conformal, minkowski = t.modules["conformal"], t.modules["minkowski"]
    with t.installed():
        form = conformal.AcceleratedFrameForm(np.array([0.1, 0.0, 0.2, 0.0]), 1.5)
        conformal.apply_map(form, np.zeros(4))
        form.denominator(np.zeros((5, 4)))
        for _ in range(1000):
            form.factor(np.full(4, 0.1))
        with pytest.raises(PKG.SingularPointError):
            conformal.Inversion(1.0).apply(np.array([1.0, 1.0, 0.0, 0.0]))
        minkowski.minkowski_dot(np.ones(4), np.ones(4))
    m = t.metrics()
    assert m["conformal.calls"] == 1 + 1 + 1 + 1000 + 2
    assert m["conformal.events"] == 1 + 5 + 1000 + 1
    assert m["conformal.singular_raised"] == 1
    assert m["kinematics.calls"] == 0
    # one aggregate per (caller, layer, function), however many calls
    assert t.spans[("conformal", "minkowski", "minkowski_dot")][0] > 2000
    assert t.spans[("bench", "minkowski", "minkowski_dot")][0] == 1
    assert len(t.spans) < 20
    self_total = sum(self_s for _, _, self_s in t.spans.values())
    assert self_total == pytest.approx(t.wall_s, rel=1e-6)


def test_run_exits_nonzero_on_injected_error():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "transform",
                           "--seconds", "0", "--inject", "row"],
                          capture_output=True, text=True, timeout=170)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert proc.returncode == 1
    assert result["correct"] is False and result["failed"] == 1
    assert result["attempted"] == 2 * 2 * wl.TRANSFORM_EVENTS


def test_run_fails_without_the_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "frames",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
