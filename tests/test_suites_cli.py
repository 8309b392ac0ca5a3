import csv
import json

import numpy as np
import pytest

from confvac.cli import main
from confvac.suites import SUITE_NAMES, SuiteConfig, run_suite


def small_config(name, **kw):
    defaults = dict(samples=30, seed=7)
    if name == "ricci-flat":
        defaults["samples"] = 5
    if name == "abraham":
        defaults["samples"] = 2
    if name == "em-invariance":
        defaults["samples"] = 3
    if name in ("fdr", "mirror-2d"):
        defaults.pop("samples")
    defaults.update(kw)
    return SuiteConfig(suite=name, **defaults)


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_each_suite_passes_smoke(name):
    report = run_suite(small_config(name))
    assert report.passed, report.to_json()
    assert report.seed == 7
    for check in report.checks:
        assert check.passed


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite(SuiteConfig(suite="nope"))


def test_invalid_config_rejected():
    with pytest.raises(ValueError, match="positive"):
        SuiteConfig(suite="interval-law", samples=0)
    with pytest.raises(ValueError, match="json or csv"):
        SuiteConfig(suite="interval-law", fmt="xml")


def test_reports_deterministic_given_seed():
    a = run_suite(small_config("interval-law", samples=50, seed=11))
    b = run_suite(small_config("interval-law", samples=50, seed=11))
    assert a.to_json(include_wall_time=False) == b.to_json(include_wall_time=False)
    c = run_suite(small_config("interval-law", samples=50, seed=12))
    assert a.to_json(include_wall_time=False) != c.to_json(include_wall_time=False)


def test_report_json_schema(tmp_path):
    out = tmp_path / "report.json"
    cfg = small_config("scalar-invariance", samples=20, out=str(out))
    run_suite(cfg)
    data = json.loads(out.read_text())
    assert data["suite"] == "scalar-invariance"
    assert data["passed"] is True
    assert data["seed"] == 7
    assert data["config"]["samples"] == 20
    check = data["checks"][0]
    assert {"name", "statistic", "tolerance", "comparator", "passed"} <= set(check)
    worst = check["extra"]["worst"]
    assert {"map", "points", "lhs", "rhs", "residual"} <= set(worst)
    assert "epsilon" in check["extra"]


def test_report_csv_rows(tmp_path):
    out = tmp_path / "resid.csv"
    run_suite(small_config("tetrad-identity", samples=15, out=str(out), fmt="csv"))
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["suite", "check", "index", "residual"]
    assert len(rows) == 16
    assert all(float(r[3]) < 1e-10 for r in rows[1:])


# ---------------------------------------------------------------------------
# CLI

def test_cli_suite_exit_status(tmp_path, capsys):
    rc = main(["suite", "fdr", "mirror-2d"])
    assert rc == 0
    outerr = capsys.readouterr()
    assert "fdr: PASS" in outerr.out
    assert "mirror-2d: PASS" in outerr.out


def test_cli_suite_writes_report(tmp_path):
    out = tmp_path / "fdr.json"
    rc = main(["suite", "fdr", "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["passed"] is True


def test_cli_transform_worked_example(tmp_path):
    mapfile = tmp_path / "map.json"
    mapfile.write_text(json.dumps({"alpha": [0.5, 0, 0, 0], "beta": 1.0}))
    infile = tmp_path / "events.csv"
    infile.write_text("t,x1,x2,x3\n1,0,0,0\n2,0,0,0\n0.5,0.1,0,0\n")
    outfile = tmp_path / "out.csv"
    rc = main(["transform", "--map", str(mapfile), "--input", str(infile),
               "--out", str(outfile)])
    assert rc == 0
    rows = list(csv.DictReader(outfile.read_text().splitlines()))
    assert len(rows) == 3
    # worked example row: (1,0,0,0) -> (2,0,0,0) with lambda = 4
    assert float(rows[0]["tbar"]) == pytest.approx(2.0)
    assert float(rows[0]["lambda"]) == pytest.approx(4.0)
    assert rows[0]["status"] == "ok"
    # the singular row is flagged, other rows still processed
    assert rows[1]["status"] == "singular"
    assert rows[1]["tbar"] == ""
    assert rows[2]["status"] == "ok"


def test_cli_transform_chain_singular_rows(tmp_path):
    # (2,0,0,0) meets the first inversion's cone, (9,0,0,0) the second's
    chain = [{"kind": "translation", "b": [-1.0, 0, 0, 0]}, {"kind": "inversion", "beta": 1.0},
             {"kind": "dilation", "s": 2.0}, {"kind": "translation", "b": [0.5, 0.25, 0, 0]},
             {"kind": "inversion", "beta": 1.5}]
    mapfile = tmp_path / "chain.json"
    mapfile.write_text(json.dumps({"chain": chain}))
    infile = tmp_path / "events.csv"
    infile.write_text("tau,t,x1,x2,x3\n0,0.5,0.1,0,0\n1,2,1,0,0\n2,9,0,0,0\n")
    outfile = tmp_path / "out.csv"
    assert main(["transform", "--map", str(mapfile), "--input", str(infile),
                 "--out", str(outfile)]) == 0
    rows = list(csv.DictReader(outfile.read_text().splitlines()))
    assert [r["status"] for r in rows] == ["ok", "singular", "singular"]
    assert [r["tau"] for r in rows] == ["0.0", "1.0", "2.0"]
    assert rows[0]["singular_residual"] == "" and float(rows[0]["lambda"]) != 0.0
    for r in rows[1:]:
        assert [r[c] for c in ("tbar", "x1bar", "x2bar", "x3bar", "lambda")] == [""] * 5
        assert r["singular_residual"] == "0.0"


def test_cli_transform_rejects_nonfinite_row(tmp_path):
    mapfile = tmp_path / "map.json"
    mapfile.write_text(json.dumps({"alpha": [0, 0, 0, 0], "beta": 1.0}))
    infile = tmp_path / "bad.csv"
    infile.write_text("t,x1,x2,x3\n1,0,0,0\nnan,0,0,0\n")
    outfile = tmp_path / "out.csv"
    with pytest.raises(SystemExit, match="line 3: non-finite"):
        main(["transform", "--map", str(mapfile), "--input", str(infile),
              "--out", str(outfile)])
    assert not outfile.exists()


def test_cli_transform_identity_map(tmp_path):
    mapfile = tmp_path / "map.json"
    mapfile.write_text(json.dumps({"chain": [{"kind": "translation",
                                              "b": [0, 0, 0, 0]}]}))
    infile = tmp_path / "events.csv"
    infile.write_text("t,x1,x2,x3\n0.1,0.2,0.3,0.4\n")
    outfile = tmp_path / "out.csv"
    assert main(["transform", "--map", str(mapfile), "--input", str(infile),
                 "--out", str(outfile)]) == 0
    row = next(csv.DictReader(outfile.read_text().splitlines()))
    assert float(row["tbar"]) == pytest.approx(0.1)
    assert float(row["lambda"]) == 1.0


def test_cli_transform_parse_error_line_numbered(tmp_path):
    mapfile = tmp_path / "map.json"
    mapfile.write_text(json.dumps({"alpha": [0, 0, 0, 0], "beta": 1.0}))
    infile = tmp_path / "bad.csv"
    infile.write_text("t,x1,x2,x3\n1,0,0,zero\n")
    with pytest.raises(SystemExit, match="line 2"):
        main(["transform", "--map", str(mapfile), "--input", str(infile)])


def test_cli_abraham_classifies_hyperbolic(tmp_path, capsys):
    from confvac import HyperbolicWorldline
    wl = HyperbolicWorldline([1, 0, 0, 0], [0, 1, 0, 0], 1.0)
    taus = np.arange(-1.0, 1.0 + 1e-9, 1e-3)
    pos = wl.position(taus)
    lines = ["tau,t,x1,x2,x3"]
    lines += [",".join(repr(float(v)) for v in (taus[i], *pos[i]))
              for i in range(len(taus))]
    infile = tmp_path / "wl.csv"
    infile.write_text("\n".join(lines) + "\n")
    rc = main(["abraham", "--worldline", str(infile)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["classification"]["kind"] == "uniformly_accelerated"
    assert payload["classification"]["accel"] == pytest.approx(1.0, abs=1e-4)
    assert payload["sup_abraham_norm"] < 1e-5


def test_cli_corr_outputs_kernel(capsys):
    rc = main(["corr", "--x", "2,0,0,0", "--xp", "0,0,0,0",
               "--epsilon", "0.01"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    val = complex(*payload["scalar_kernel"])
    assert val == pytest.approx(1.0 / (4 - 0.02j))
    em00 = complex(*payload["em_potential"][0][0])
    assert em00 == pytest.approx(val / np.pi)


def test_cli_corr_coincident_events_exit_with_pole_message(capsys):
    with pytest.raises(SystemExit, match="pole") as info:
        main(["corr", "--x", "0,0,0,0", "--xp", "0,0,0,0"])
    assert info.value.code != 0
    assert capsys.readouterr().out == ""


def test_cli_ray2d_mirror_verdict(capsys):
    rc = main(["ray2d", "--alpha", "0.1,0.3", "--beta", "1.2", "--mirror"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["frame"]["f_plus"]["kind"] == "homography"
    assert payload["mirror"]["verdict"] == "invariant"
    assert payload["mirror"]["evidence"] < 1e-8


def test_cli_rejects_flags_the_handler_does_not_read(tmp_path, capsys):
    mapfile = tmp_path / "map.json"
    mapfile.write_text(json.dumps({"alpha": [0.5, 0, 0, 0], "beta": 1.0}))
    infile = tmp_path / "events.csv"
    infile.write_text("t,x1,x2,x3\n1,0,0,0\n")
    for argv, flag in (
            (["transform", "--map", str(mapfile), "--input", str(infile), "--seed", "3"],
             "--seed"),
            (["ray2d", "--alpha", "0.1,0.3", "--samples", "2"], "--samples")):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {flag}" in captured.err


def test_cli_config_file_with_flag_precedence(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"samples": 10, "seed": 3}))
    out1 = tmp_path / "a.json"
    rc = main(["suite", "tetrad-identity", "--config", str(cfgfile),
               "--out", str(out1)])
    assert rc == 0
    data = json.loads(out1.read_text())
    assert data["config"]["samples"] == 10 and data["seed"] == 3
    out2 = tmp_path / "b.json"
    rc = main(["suite", "tetrad-identity", "--config", str(cfgfile),
               "--samples", "5", "--out", str(out2)])
    assert rc == 0
    assert json.loads(out2.read_text())["config"]["samples"] == 5
