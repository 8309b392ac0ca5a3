"""confvac is a numpy-only package: no code path loads scipy.  Each check runs
in a fresh interpreter, because other test modules import scipy themselves
as an independent reference."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _run(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


LOADED = """
        import sys

        def loaded():
            return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
"""


def test_frames_suites_and_transform_load_no_scipy(tmp_path):
    out = _run(LOADED + """
        import json
        import numpy as np
        import confvac, confvac.cli
        from confvac import (AcceleratedFrameForm, ConformalMap, Dilation, Inversion,
                             LorentzTransform, Translation, map_to_dict)
        from confvac.conformal import boost_matrix
        from confvac.suites import SuiteConfig, run_suite

        assert loaded() == [], loaded()
        for name, n in [("interval-law", 30), ("tetrad-identity", 30),
                        ("scalar-invariance", 30), ("light-rays", 30), ("ricci-flat", 5)]:
            assert run_suite(SuiteConfig(suite=name, samples=n, seed=7)).passed, name
        assert run_suite(SuiteConfig(suite="abraham", samples=4, seed=7)).passed
        assert loaded() == [], loaded()
        form = AcceleratedFrameForm(np.array([0.3, 0.1, -0.2, 0.05]), 1.3)
        chain = ConformalMap([Translation(np.array([0.1, 0.2, 0.0, -0.1])),
                              LorentzTransform(boost_matrix([0.3, 0.0, 0.1])),
                              Inversion(1.0), Dilation(0.5), Inversion(1.5)])
        with open("events.csv", "w") as fh:
            fh.write("t,x1,x2,x3\\n0.5,0.3,0.4,0\\n0.1,-0.2,0.3,0.4\\n")
        for i, m in enumerate([form, chain]):
            with open(f"map{i}.json", "w") as fh:
                json.dump(map_to_dict(m), fh)
            assert confvac.cli.main(["transform", "--map", f"map{i}.json",
                                     "--input", "events.csv", "--out", f"out{i}.csv"]) == 0
        print(loaded())
    """, tmp_path)
    assert out.splitlines()[-1] == "[]"
    assert (tmp_path / "out0.csv").read_text().count("\n") == 3
    assert (tmp_path / "out1.csv").read_text().count("\n") == 3


def test_scipy_users_import_it_on_first_use(tmp_path):
    # The two functions that once imported scipy on first use: they now
    # interpolate and integrate with numpy alone, so first use loads none of it.
    out = _run(LOADED + """
        import numpy as np
        from confvac import SampledWorldline, momentum_space_oracle

        tau = np.linspace(0.0, 1.0, 41)
        w = SampledWorldline(tau, np.stack([tau, 0.1 * tau, 0 * tau, 0 * tau], axis=1))
        assert np.allclose(w.position(0.5), [0.5, 0.05, 0.0, 0.0])
        value = momentum_space_oracle([0.3, 0.1, 0, 0], [0, 0, 0, 0], 0.5)
        assert value != 0 and np.isfinite(value)
        print(loaded())
    """, tmp_path)
    assert out.splitlines()[-1] == "[]"


def test_no_scipy_module_is_ever_loaded(tmp_path):
    out = _run(LOADED + """
        import contextlib, io
        import numpy as np
        import confvac.cli
        from confvac import HyperbolicWorldline
        from confvac.suites import SUITE_NAMES, SuiteConfig, run_suite

        assert loaded() == [], loaded()
        samples = {"ricci-flat": 5, "abraham": 4, "em-invariance": 3, "fdr": None,
                   "momentum-oracle": 4, "mirror-2d": None}
        for name in SUITE_NAMES:
            assert run_suite(SuiteConfig(suite=name, samples=samples.get(name, 30),
                                         seed=7)).passed, name

        taus = np.arange(-1.0, 1.0 + 1e-9, 1e-2)
        pos = HyperbolicWorldline([1, 0, 0, 0], [0, 1, 0, 0], 1.0).state(taus).position
        np.savetxt("wl.csv", np.column_stack([taus, pos]), delimiter=",",
                   header="tau,t,x1,x2,x3", comments="")
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in (["abraham", "--worldline", "wl.csv"],
                         ["ray2d", "--alpha", "0.1,0.2", "--beta", "1.3", "--mirror"],
                         ["corr", "--x", "2,0,0,0", "--xp", "0,0,0,0"]):
                assert confvac.cli.main(argv) == 0, argv
        print(loaded())
    """, tmp_path)
    assert out.splitlines()[-1] == "[]"


def test_gauss_legendre_rule_is_built_on_first_use_and_kept(tmp_path):
    # importing computes nothing; the first oracle call builds the rule,
    # read-only, and every later call reuses it
    _run("""
        import numpy as np
        from confvac import correlations as corr

        assert corr._gauss_legendre.cache_info().currsize == 0
        x = np.array([0.3, 1.2, 0.0, 0.0])
        first = corr.momentum_space_oracle(x, np.zeros(4), 0.05)
        rule = corr._gauss_legendre(corr.GAUSS_NODES)
        assert corr._gauss_legendre.cache_info().currsize == 1
        assert not any(a.flags.writeable for a in rule)
        assert corr.momentum_space_oracle(x, np.zeros(4), 0.05) == first
        assert corr._gauss_legendre(corr.GAUSS_NODES) is rule
    """, tmp_path)


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == ["numpy>=2.0"]
