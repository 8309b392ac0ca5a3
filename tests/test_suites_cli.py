import csv
import io
import json

import numpy as np
import pytest

from confvac import (AcceleratedFrameForm, ConformalMap, Dilation, compose, map_from_dict,
                     map_to_dict, minkowski_dot)
from confvac.cli import _read_events_csv, main
from confvac.suites import SUITE_NAMES, CheckResult, SuiteConfig, run_suite


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
    # 0 is not read as "the suite's default", nor a wrong-sign regulator taken
    for key in ("epsilon", "h", "step", "tol"):
        for value in (0.0, -1e-6, float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"{key} must be positive and finite"):
                SuiteConfig(suite="interval-law", **{key: value})


@pytest.mark.parametrize("flags, message", [
    (["--samples", "0"], "samples must be positive and finite, got 0"),
    (["--step", "0"], "step must be positive and finite, got 0.0"),
    (["--epsilon=-1e-6"], "epsilon must be positive and finite, got -1e-06"),
    (["--seed", "-1"], "seed must be a non-negative integer, got -1"),
    # a dict stands for a config file that holds it
    (["--config", {"seed": -1}], "seed must be a non-negative integer, got -1"),
    (["--config", {"seed": "x"}], "seed must be a non-negative integer, got 'x'"),
    (["--config", {"samples": 2.5}], "samples must be an integer, got 2.5"),
    (["--config", {"samples": 2.0}], "samples must be an integer, got 2.0"),
    (["--config", {"tol": "x"}], "tol must be positive and finite, got 'x'"),
    (["--config", {"sample": 3}],
     "unknown config keys sample; known: seed, samples, tol, epsilon, step, h, out, fmt"),
])
def test_suite_command_rejects_invalid_config_without_traceback(flags, message, tmp_path):
    if isinstance(flags[-1], dict):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(flags[-1]))
        flags = [*flags[:-1], str(path)]
    with pytest.raises(SystemExit, match=f"^suite: {message}$") as info:
        main(["suite", "ricci-flat", *flags])
    assert info.value.code != 0


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


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_csv_rows_are_each_checks_values_in_check_order(name, tmp_path):
    out = tmp_path / "resid.csv"
    report = run_suite(small_config(name, out=str(out), fmt="csv"))
    rows = list(csv.reader(out.read_text().splitlines()))[1:]
    expected = [[name, c.name, str(i), repr(float(v))]
                for c in report.checks for i, v in enumerate(c.values)]
    assert rows == expected
    assert bool(rows) == (name not in ("fdr", "mirror-2d"))
    # a check built from its samples: statistic and mean are the values' own
    for c in report.checks:
        if c.comparator == "<" and c.mean is not None:
            assert (c.statistic, c.mean) == (max(c.values), float(np.mean(c.values)))


def test_check_over_its_values():
    values = np.array([3e-12, 1e-11, 2e-12, 1e-11])
    c = CheckResult.over("residual", values.tolist(), 1e-10, samples=4)
    assert (c.statistic, c.mean) == (1e-11, float(values.mean()))
    assert (c.comparator, c.extra, c.passed) == ("<", {"samples": 4}, True)
    assert np.array_equal(c.values, values)
    assert c.to_dict() == {"name": "residual", "statistic": 1e-11, "tolerance": 1e-10,
                           "comparator": "<", "passed": True, "mean": float(values.mean()),
                           "extra": {"samples": 4}}
    # values never reach the JSON report
    for name in SUITE_NAMES:
        for check in run_suite(small_config(name)).to_dict()["checks"]:
            assert "values" not in check


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
    # (2,1,0,0) meets the first inversion's cone, where the chain is regular;
    # (9,0,0,0) meets the second's, where it is not.  Every row reports Y^+,
    # the product of the inversions' denominators
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
    assert [r["status"] for r in rows] == ["ok", "ok", "singular"]
    assert [r["tau"] for r in rows] == ["0.0", "1.0", "2.0"]
    # y = x - (1, 0, 0, 0), z = -2 y / y^2 + (0.5, 0.25, 0, 0): Y^+ = y^2 z^2
    y = np.array([-0.5, 0.1, 0.0, 0.0])
    z = -2.0 * y / minkowski_dot(y, y) + np.array([0.5, 0.25, 0.0, 0.0])
    assert float(rows[0]["singular_residual"]) == pytest.approx(
        minkowski_dot(y, y) * minkowski_dot(z, z), rel=1e-14)
    # on the first cone y^2 z^2 = 4 - 4 y.(0.5, 0.25, 0, 0) = 3, and lambda is
    # the scales' product 1 * 2 * 1.5 over it
    assert float(rows[1]["singular_residual"]) == pytest.approx(3.0, rel=1e-14)
    assert float(rows[1]["lambda"]) == pytest.approx(1.0, rel=1e-14)
    r = rows[2]
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


@pytest.mark.parametrize("spec", ['{"alpha": [0, 0, 0, 0], "beta": NaN}',
                                  '{"chain": [{"kind": "dilation", "s": NaN}]}'],
                         ids=["form", "chain"])
def test_cli_transform_rejects_nonfinite_map(tmp_path, spec):
    mapfile = tmp_path / "map.json"
    mapfile.write_text(spec)
    infile = tmp_path / "events.csv"
    infile.write_text("t,x1,x2,x3\n1,0,0,0\n")
    outfile = tmp_path / "out.csv"
    with pytest.raises(SystemExit, match="finite") as info:
        main(["transform", "--map", str(mapfile), "--input", str(infile),
              "--out", str(outfile)])
    assert info.value.code != 0
    assert not outfile.exists()


@pytest.mark.parametrize("spec, message", [
    ('{"chain": [{"kind": "dilation"}]}', "chain entry 0 (dilation) lacks key 's'"),
    ('{"alpha": [0, 0, 0, 0]}', "accelerated-frame map lacks key 'beta'"),
    ('{"chain": [{"kind": "accelerated-frame", "alpha": [0, 0, 0, 0]}]}',
     "chain entry 0 (accelerated-frame) lacks key 'beta'")],
    ids=["chain", "form", "frame-entry"])
def test_cli_transform_names_a_missing_map_key(tmp_path, spec, message):
    mapfile = tmp_path / "map.json"
    mapfile.write_text(spec)
    infile = tmp_path / "events.csv"
    infile.write_text("t,x1,x2,x3\n1,0,0,0\n")
    outfile = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as info:
        main(["transform", "--map", str(mapfile), "--input", str(infile),
              "--out", str(outfile)])
    assert info.value.code == f"transform: {mapfile}: {message}"
    assert not outfile.exists()


@pytest.mark.parametrize("spec, message", [
    ('{"chain": [{"kind": "dilation", "s": [1, 2]}]}',
     "chain entry 0 (dilation) key 's' must be a number, got [1, 2]"),
    ('{"chain": [{"kind": "inversion", "beta": [1, 2]}]}',
     "chain entry 0 (inversion) key 'beta' must be a number, got [1, 2]"),
    ('{"alpha": [0.1, 0, 0, 0], "beta": [1, 2]}',
     "accelerated-frame map key 'beta' must be a number, got [1, 2]"),
    ('{"chain": [5]}', "chain entry 0 is not a JSON object: 5"),
    ('{"chain": 3}', "map key 'chain' is not a list: 3"),
    ('7', "map is not a JSON object: 7"),
    ('{"chain": [{"kind": "translation", "b": [0, 0, 0]}]}',
     "chain entry 0 (translation) key 'b' must be a list of 4 numbers, got [0, 0, 0]"),
    ('{"chain": [{"kind": "lorentz", "matrix": [[1, 0], [0, 1]]}]}',
     "chain entry 0 (lorentz) key 'matrix' must be a 4x4 list of numbers, "
     "got [[1, 0], [0, 1]]"),
    ('{"chain": [{"kind": "dilation", "s": "two"}]}',
     "chain entry 0 (dilation) key 's' must be a number, got 'two'"),
    ('{"chain": [{"kind": "dilation", "s": 2}, '
     '{"kind": "accelerated-frame", "alpha": [0.1, 0], "beta": 1}]}',
     "chain entry 1 (accelerated-frame) key 'alpha' must be a list of 4 numbers, "
     "got [0.1, 0]")],
    ids=["dilation-list", "inversion-list", "form-beta-list", "entry-not-object",
         "chain-not-list", "map-not-object", "short-translation", "small-matrix",
         "scale-string", "short-frame-alpha"])
def test_cli_transform_names_a_malformed_map_entry(tmp_path, spec, message):
    mapfile = tmp_path / "map.json"
    mapfile.write_text(spec)
    infile = tmp_path / "events.csv"
    infile.write_text("t,x1,x2,x3\n1,0,0,0\n")
    outfile = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as info:
        main(["transform", "--map", str(mapfile), "--input", str(infile),
              "--out", str(outfile)])
    assert info.value.code == f"transform: {mapfile}: {message}"
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


def test_cli_transform_chain_with_a_frame_slot(tmp_path):
    # compose output serializes with the frame slot as a chain entry; its
    # rows are the map's own, with its Y^+ as the residual column
    form = AcceleratedFrameForm(np.array([0.3, 0.1, -0.2, 0.05]), 1.3)
    m = compose(ConformalMap([Dilation(0.5)]), form)
    mapfile = tmp_path / "map.json"
    mapfile.write_text(json.dumps(map_to_dict(m)))
    x = np.array([[0.5, 0.3, 0.4, 0.0], [0.1, -0.2, 0.3, 0.4]])
    infile = tmp_path / "events.csv"
    infile.write_text("t,x1,x2,x3\n" + "".join(",".join(map(repr, r)) + "\n" for r in x.tolist()))
    outfile = tmp_path / "out.csv"
    assert main(["transform", "--map", str(mapfile), "--input", str(infile),
                 "--out", str(outfile)]) == 0
    rows = list(csv.DictReader(outfile.read_text().splitlines()))
    images = [[float(r[k]) for k in ("tbar", "x1bar", "x2bar", "x3bar")] for r in rows]
    assert images == m.apply(x).tolist()
    assert [float(r["lambda"]) for r in rows] == m.factor(x).tolist()
    assert [float(r["singular_residual"]) for r in rows] == m.denominator(x).tolist()


def test_cli_transform_parse_error_line_numbered(tmp_path):
    mapfile = tmp_path / "map.json"
    mapfile.write_text(json.dumps({"alpha": [0, 0, 0, 0], "beta": 1.0}))
    infile = tmp_path / "bad.csv"
    infile.write_text("t,x1,x2,x3\n1,0,0,zero\n")
    with pytest.raises(SystemExit, match="line 2"):
        main(["transform", "--map", str(mapfile), "--input", str(infile)])


@pytest.mark.parametrize("text, message", [
    ("t,x1,x2,x3\n\n\n1,0,0,0\n\nnan,0,0,0\n",
     r"^line 6: non-finite value in row \['nan', '0', '0', '0'\]$"),
    ("t,x1,x2,x3\n  \n1,0,0,0\n , ,\n\t\n1,0,x,0\n",
     r"^line 6: cannot parse row \['1', '0', 'x', '0'\]: could not convert string to float: 'x'$"),
    ("t,x1,x2,x3\r\n\r\n1,0,0,0\r\n1,0,0\r\n",
     r"^line 4: cannot parse row \['1', '0', '0'\]: list index out of range$"),
    # the first bad row in file order, whatever its fault
    ("t,x1,x2,x3\n\ninf,0,0,0\n1,0,0,zero\n",
     r"^line 3: non-finite value in row \['inf', '0', '0', '0'\]$"),
], ids=["non-finite-after-blank-rows", "parse-after-whitespace-rows", "short-row-crlf",
        "first-bad-row"])
def test_cli_transform_error_names_the_file_line(tmp_path, text, message):
    infile = tmp_path / "bad.csv"
    infile.write_bytes(text.encode())
    with pytest.raises(SystemExit, match=message):
        main(["transform", "--map", _identity_map(tmp_path), "--input", str(infile)])


def _events_file(path, header, rows):
    path.write_text("\n".join([header, *rows, ""]))
    return str(path)


def test_cli_read_events_csv_spellings(tmp_path):
    # a quoted cell, CRLF line ends, tau after x3, header case and blanks, and
    # float spellings that Python accepts (underscores, blanks around a number)
    text = ' T ,x1,X2,x3,Tau\r\n"1.5",0,1_0,-2e-1,0.25\r\n\r\n 2 ,+.5,0,1E3,1_000.5\r\n'
    infile = tmp_path / "ev.csv"
    infile.write_bytes(text.encode())
    taus, events = _read_events_csv(str(infile))
    assert taus.tolist() == [0.25, 1000.5]
    assert events.tolist() == [[1.5, 0.0, 10.0, -0.2], [2.0, 0.5, 0.0, 1000.0]]
    taus, events = _read_events_csv(_events_file(tmp_path / "no_tau.csv", "t,x1,x2,x3", []))
    assert taus is None and events.shape == (0, 4)


def _reference_transform_csv(m, events, taus=None):
    """The transform output as csv.writer writes repr cells, blanking the
    image and lambda of singular rows."""
    images, _, lams, den, singular = m.evaluate(events)
    lead = [] if taus is None else [taus]
    header = ["tau"] * len(lead) + ["t", "x1", "x2", "x3", "tbar", "x1bar", "x2bar",
                                    "x3bar", "lambda", "singular_residual", "status"]
    rows = []
    for i, values in enumerate(np.column_stack([*lead, events, images, lams, den]).tolist()):
        cells = [repr(v) for v in values]
        if singular[i]:
            cells[len(lead) + 4:-1] = [""] * 5
        rows.append(cells + ["singular" if singular[i] else "ok"])
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows([header, *rows])
    return buf.getvalue()


# rows at repr's notation switches, with singular rows (on the inversion's
# cone; 5e-324 squares to 0) among them
SWITCH_ROWS = np.array([
    [1e16, 0.0, 0.0, 0.0], [9999999999999998.0, 1e-4, 1e-5, -0.0],
    [1.0, 1.0, 0.0, 0.0], [1e-4, 1e-5, -0.0, 5e-324], [5e-324, 0.0, 0.0, 0.0],
    [0.5, -0.25, 1e16, 1e-5], [2.0, 0.0, -2.0, 0.0], [0.1, 0.2, 0.3, 0.4]])


@pytest.mark.parametrize("chain", [
    [{"kind": "dilation", "s": 1.0}],
    [{"kind": "inversion", "beta": 1.0}, {"kind": "dilation", "s": 0.5}]],
    ids=["identity", "inversion"])
@pytest.mark.parametrize("with_tau", [False, True])
def test_cli_transform_bytes_match_csv_writer_of_repr_cells(tmp_path, chain, with_tau):
    m = map_from_dict({"chain": chain})
    taus = np.array([-0.0, 1e-5, 1e16, 0.5, 1e-4, 5e-324, 9999999999999998.0, 3.0])
    header = "tau,t,x1,x2,x3" if with_tau else "t,x1,x2,x3"
    lead = taus[:, None] if with_tau else np.empty((len(SWITCH_ROWS), 0))
    infile = _events_file(tmp_path / "ev.csv", header,
                          [",".join(map(repr, r)) for r in np.hstack([lead, SWITCH_ROWS]).tolist()])
    outfile = tmp_path / "out.csv"
    mapfile = tmp_path / "map.json"
    mapfile.write_text(json.dumps({"chain": chain}))
    assert main(["transform", "--map", str(mapfile), "--input", infile,
                 "--out", str(outfile)]) == 0
    expected = _reference_transform_csv(m, SWITCH_ROWS, taus if with_tau else None)
    if chain[0]["kind"] == "inversion":
        assert expected.count(",singular\r\n") == 3
    assert outfile.read_bytes() == expected.encode()


def test_cli_transform_stdout_bytes_equal_out_file(tmp_path, capsys):
    mapfile = tmp_path / "map.json"
    mapfile.write_text(json.dumps({"chain": [{"kind": "inversion", "beta": 1.0}]}))
    infile = _events_file(tmp_path / "ev.csv", "t,x1,x2,x3",
                          [",".join(map(repr, r)) for r in SWITCH_ROWS.tolist()])
    outfile = tmp_path / "out.csv"
    assert main(["transform", "--map", str(mapfile), "--input", infile,
                 "--out", str(outfile)]) == 0
    assert capsys.readouterr().out == ""
    assert main(["transform", "--map", str(mapfile), "--input", infile]) == 0
    assert capsys.readouterr().out.encode() == outfile.read_bytes()


def test_cli_abraham_skips_blank_rows(tmp_path, capsys):
    rows = [",".join(map(repr, r)) for r in _hyperbolic_rows(200).tolist()]
    dense = _events_file(tmp_path / "dense.csv", "tau,t,x1,x2,x3", rows)
    spaced = _events_file(tmp_path / "spaced.csv", "tau,t,x1,x2,x3",
                          ["", *rows[:50], "", " ", *rows[50:120], ",,,,", *rows[120:], ""])
    assert main(["abraham", "--worldline", dense]) == 0
    expected = capsys.readouterr().out
    assert main(["abraham", "--worldline", spaced]) == 0
    assert capsys.readouterr().out == expected


def test_cli_abraham_classifies_hyperbolic(tmp_path, capsys):
    from confvac import HyperbolicWorldline
    wl = HyperbolicWorldline([1, 0, 0, 0], [0, 1, 0, 0], 1.0)
    taus = np.arange(-1.0, 1.0 + 1e-9, 1e-3)
    pos = wl.state(taus).position
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


def test_cli_abraham_classifies_sinusoidal_rapidity_as_other(tmp_path, capsys):
    # rapidity s = tau + 0.1 sin tau: w = s'' (sinh s, cosh s, 0, 0), |s''| <= 0.1
    taus = np.arange(-1.5, 1.5 + 1e-12, 5e-4)
    s = taus + 0.1 * np.sin(taus)
    t, x = (np.concatenate([[0.0], np.cumsum(np.diff(taus) * (y[1:] + y[:-1]) / 2.0)])
            for y in (np.cosh(s), np.sinh(s)))
    infile = tmp_path / "wl.csv"
    np.savetxt(infile, np.column_stack([taus, t, x, 0 * t, 0 * t]), delimiter=",",
               header="tau,t,x1,x2,x3", comments="", fmt="%.17g")
    assert main(["abraham", "--worldline", str(infile)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["classification"]["kind"] == "other"
    s_max = taus[-1] + 0.1 * np.sin(taus[-1])
    assert 0.3 < payload["sup_abraham_norm"] < 0.1 * np.hypot(np.sinh(s_max), np.cosh(s_max))


def _hyperbolic_rows(n):
    """tau,t,x1,x2,x3 rows of a = 1 hyperbolic motion at spacing 1e-3."""
    taus = np.arange(n) * 1e-3
    return np.column_stack([taus, np.sinh(taus), np.cosh(taus) - 1.0, 0 * taus, 0 * taus])


def _rows_csv(path, rows):
    np.savetxt(path, rows, delimiter=",", header="tau,t,x1,x2,x3", comments="", fmt="%.17g")
    return str(path)


def _identity_map(d):
    (d / "map.json").write_text(json.dumps({"chain": [{"kind": "dilation", "s": 1.0}]}))
    return str(d / "map.json")


def _repeated_tau(rows):
    rows[10, 0] = rows[9, 0]
    return rows


@pytest.mark.parametrize("argv, message", [
    # too few rows to leave an interior point, or none at all
    (lambda d: ["abraham", "--worldline", _rows_csv(d / "wl.csv", _hyperbolic_rows(3))],
     r"^abraham: no sample lies 0\.007 inside the sampled range \[0\.0, 0\.002\]; "
     r"need more samples or a smaller step$"),
    (lambda d: ["abraham", "--worldline", _rows_csv(d / "wl.csv", _hyperbolic_rows(0))],
     r"^abraham: a sampled worldline needs at least one sample$"),
    (lambda d: ["abraham", "--worldline",
                _rows_csv(d / "wl.csv", _repeated_tau(_hyperbolic_rows(50)))],
     r"^abraham: sample proper times must be strictly increasing$"),
    (lambda d: ["abraham", "--worldline", _rows_csv(d / "wl.csv", _hyperbolic_rows(200)),
                "--step", "-1"],
     r"^abraham: step must be positive and finite, got -1\.0$"),
    (lambda d: ["abraham", "--worldline", _rows_csv(d / "wl.csv", _hyperbolic_rows(200)),
                "--tol", "nan"],
     r"^abraham: tol must be positive and finite, got nan$"),
    (lambda d: ["ray2d", "--alpha", "0.1,0.3", "--beta=-1"],
     r"^ray2d: beta must be positive \(a negative scale reverses light-cone order\), "
     r"got -1\.0$"),
    (lambda d: ["ray2d", "--alpha", "0.1,0.3", "--beta", "nan"],
     r"^ray2d: beta must be positive \(a negative scale reverses light-cone order\), "
     r"got nan$"),
    (lambda d: ["corr", "--x", "2,0,0,0", "--xp", "0,0,0,0", "--epsilon=-1"],
     r"^corr: epsilon must be positive and finite, got -1\.0$"),
    (lambda d: ["corr", "--x", "2,0,0,0", "--xp", "0,0,0,0", "--epsilon", "0"],
     r"^corr: epsilon must be positive and finite, got 0\.0$"),
    (lambda d: ["corr", "--x", "nan,0,0,0", "--xp", "0,0,0,0"],
     r"^corr: x must be 4 finite numbers, got 'nan,0,0,0'$"),
    (lambda d: ["corr", "--x", "1,0,0", "--xp", "0,0,0,0"],
     r"^corr: x must be 4 finite numbers, got '1,0,0'$"),
    (lambda d: ["corr", "--x", "2,0,0,0", "--xp", "0,zero,0,0"],
     r"^corr: xp must be 4 finite numbers, got '0,zero,0,0'$"),
    (lambda d: ["ray2d", "--alpha", "1"],
     r"^ray2d: alpha must be 2 finite numbers, got '1'$"),
    (lambda d: ["ray2d", "--alpha", "0.1,0.3", "--beta", "inf"],
     r"^ray2d: beta must be finite, got inf$"),
    (lambda d: ["transform", "--map", str(d / "missing.json"), "--input", str(d / "ev.csv")],
     r"^transform: \S*missing\.json: No such file or directory$"),
    (lambda d: ["transform", "--map", _identity_map(d), "--input", str(d / "missing.csv")],
     r"^transform: \S*missing\.csv: No such file or directory$"),
    (lambda d: ["abraham", "--worldline", str(d / "missing.csv")],
     r"^abraham: \S*missing\.csv: No such file or directory$"),
    (lambda d: ["suite", "fdr", "--config", str(d / "missing.json")],
     r"^suite: \S*missing\.json: No such file or directory$"),
], ids=["abraham-few-rows", "abraham-no-rows", "abraham-repeated-tau", "abraham-negative-step",
        "abraham-nan-tol", "ray2d-negative-beta", "ray2d-nan-beta", "corr-negative-epsilon",
        "corr-zero-epsilon", "corr-nan-event", "corr-short-event", "corr-unparsed-event",
        "ray2d-short-alpha", "ray2d-inf-beta", "transform-missing-map",
        "transform-missing-input", "abraham-missing-worldline", "suite-missing-config"])
def test_cli_malformed_input_exits_with_one_line(argv, message, tmp_path, capsys):
    with pytest.raises(SystemExit, match=message) as info:
        main(argv(tmp_path))
    assert info.value.code not in (0, None)
    assert capsys.readouterr().out == ""


def test_cli_corr_outputs_kernel(capsys):
    rc = main(["corr", "--x", "2,0,0,0", "--xp", "0,0,0,0",
               "--epsilon", "0.01"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert sorted(payload) == ["em_potential", "epsilon", "hbar", "scalar_kernel"]
    assert payload["hbar"] == 1.0 and payload["epsilon"] == 0.01
    val = complex(*payload["scalar_kernel"])
    assert val == pytest.approx(1.0 / (4 - 0.02j))
    em00 = complex(*payload["em_potential"][0][0])
    assert em00 == pytest.approx(val / np.pi)


def test_cli_corr_coincident_events_exit_with_pole_message(capsys):
    with pytest.raises(SystemExit, match="pole") as info:
        main(["corr", "--x", "0,0,0,0", "--xp", "0,0,0,0"])
    assert info.value.code != 0
    assert capsys.readouterr().out == ""


def test_cli_corr_overflowing_kernel_exits_with_pole_message(capsys):
    with pytest.raises(SystemExit, match="pole") as info:
        main(["corr", "--x", "0,0,0,0", "--xp", "0,0,0,6.1361942924314855e-155",
              "--epsilon", "1e-3"])
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


def test_cli_config_file_format_applies_unless_flag_given(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"fmt": "csv"}))
    base = tmp_path / "f"
    rc = main(["suite", "fdr", "mirror-2d", "--config", str(cfgfile), "--out", str(base)])
    assert rc == 0
    for name in ("fdr", "mirror-2d"):
        assert not (tmp_path / f"f.{name}.json").exists()
        rows = list(csv.reader((tmp_path / f"f.{name}.csv").read_text().splitlines()))
        assert rows[0] == ["suite", "check", "index", "residual"]
    rc = main(["suite", "fdr", "mirror-2d", "--config", str(cfgfile), "--format", "json",
               "--out", str(base)])
    assert rc == 0
    for name in ("fdr", "mirror-2d"):
        assert json.loads((tmp_path / f"f.{name}.json").read_text())["suite"] == name
