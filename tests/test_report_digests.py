"""Reports are bit for bit given (config, seed).

Each suite runs at seed 7 and a small sample count; the sha256 of its report
(``to_json(include_wall_time=False)``) must match the digest recorded when
this test was written.  Any change to a sample stream, a rejection rule or
the rounding of a statistic shows up here as a changed digest.  The output
bytes of ``confvac transform`` on a chain map and on a form map are pinned
the same way, and so are em-invariance's CSV residual rows.
"""

import hashlib
import json

import numpy as np
import pytest

from confvac import map_from_dict, verify_interval_law
from confvac.cli import main
from confvac.conformal import boost_matrix
from confvac.suites import CANDIDATE_BLOCK, SUITE_NAMES, SuiteConfig, run_suite

# suite -> (samples, sha256 of the report at seed 7)
DIGESTS = {
    "interval-law": (500, "e6df3769552bf696843afc7696f31909e84ff9f6d885b4f218d0bc651a5bc709"),
    "ricci-flat": (10, "0bdada3b96143d69b9327a02b3d3925e234644cfabf502c776d227ea4c3a7232"),
    "abraham": (2, "376bdc63922c5369aee362ffaf4fc81288c7f1c69286ccdc1ff941362f9227b2"),
    "light-rays": (10, "982e856c1dfcc29ab75d6930b99ace971722635c69d8690ab2aa0f26a20df23b"),
    "scalar-invariance": (100, "084fd8f5cb8b8a5a5c97b2bbdce2c66f43366daebb59962ecc0d0beda4e5a4c9"),
    "tetrad-identity": (100, "7b0aea8abb387de8ba764f9aaa3cc4be8664e9066e64d69892d04bb6be402d80"),
    "em-invariance": (10, "db8d5317dfae8c383dbaa01c0ff184acee4f4ec5b30272ead38d69c43459f374"),
    "fdr": (None, "8fb098f415d6b97843f047cb33544cee419ee47ba7cff5e1df6c0387864010e1"),
    "momentum-oracle": (None, "1cedf788889f4f33231bd995bf26660406a6cb58897feb585e3ede594ebb0b62"),
    "mirror-2d": (None, "ed2f0de89664ff60f69ee4aa3e8d565782352e2b9cb3757e98e15ff6132f746c"),
}


def test_every_suite_has_a_digest():
    assert set(DIGESTS) == set(SUITE_NAMES)


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_report_bytes_pinned(name):
    samples, digest = DIGESTS[name]
    report = run_suite(SuiteConfig(suite=name, samples=samples, seed=7))
    text = report.to_json(include_wall_time=False)
    assert hashlib.sha256(text.encode()).hexdigest() == digest, text


# interval-law past two candidate blocks, each drawn as arrays
LONG_INTERVAL_LAW = (2500, "33da94a44ccc08b279238c473f11940dff713714d64a67e857a9891ea7d30ce9")


def test_interval_law_bytes_pinned_across_candidate_blocks():
    samples, digest = LONG_INTERVAL_LAW
    assert samples > 2 * CANDIDATE_BLOCK
    report = run_suite(SuiteConfig(suite="interval-law", samples=samples, seed=7))
    text = report.to_json(include_wall_time=False)
    assert hashlib.sha256(text.encode()).hexdigest() == digest, text
    # the worst sample is a maximum of the per-sample residuals (the first,
    # under the driver's strict >), and its map and points reproduce its
    # residual
    worst = report.checks[0].extra["worst"]
    assert worst["residual"] == max(report.checks[0].values)
    rep = verify_interval_law(map_from_dict(worst["map"]), *worst["points"])
    assert (rep.residual, rep.lhs, rep.rhs) == (worst["residual"], worst["lhs"], worst["rhs"])


# em-invariance's residual CSV at seed 7: each check's values under its own
# name, the ablation rows under "ablation-run-fails-threshold"
EM_CSV = (10, "85e0b5954d97a028a08166952fd38585e19d21702ad67b4276a2395768f7a757")


def test_em_invariance_csv_bytes_pinned(tmp_path):
    samples, digest = EM_CSV
    out = tmp_path / "em.csv"
    run_suite(SuiteConfig(suite="em-invariance", samples=samples, seed=7, out=str(out),
                          fmt="csv"))
    text = out.read_bytes()
    assert hashlib.sha256(text).hexdigest() == digest, text.decode()
    assert text.count(b",ablation-run-fails-threshold,") == samples


# confvac transform: map -> (events, sha256 of the output CSV).  The chain has
# all four kinds, and its last event lands on the light cone of its inversion
# (translated to (1, 1, 0, 0)), where the map's Y^+ is 0; the form map's
# events carry a tau column.
EVENTS = np.random.default_rng(2024).uniform(-1.0, 1.0, (30, 4))
TRANSFORMS = {
    "chain": ({"chain": [
        {"kind": "translation", "b": [0.5, -0.25, 0.125, 0.0]},
        {"kind": "inversion", "beta": 0.8},
        {"kind": "dilation", "s": 1.5},
        {"kind": "lorentz", "matrix": boost_matrix([0.2, -0.1, 0.05]).tolist()},
        {"kind": "translation", "b": [-0.1, 0.3, 0.0, 0.2]}]},
        np.vstack([EVENTS, [0.5, 1.25, -0.125, 0.0]]), False,
        "7dff611cbaae52c71aa9d94de0ef405a4cdad3b69ba9f102dabbd7c72a8b253e"),
    "form": ({"alpha": [0.3, 0.1, -0.2, 0.05], "beta": 1.3}, EVENTS, True,
             "3fd8c6f874d54caae4c4bdb60b5234ba4ac2603fa710ede723bd857dae0e7a52"),
}


@pytest.mark.parametrize("kind", TRANSFORMS)
def test_transform_output_bytes_pinned(kind, tmp_path):
    spec, events, with_tau, digest = TRANSFORMS[kind]
    mapfile, infile, outfile = tmp_path / "map.json", tmp_path / "in.csv", tmp_path / "out.csv"
    mapfile.write_text(json.dumps(spec))
    header = ["tau"] * with_tau + ["t", "x1", "x2", "x3"]
    infile.write_text("\n".join([",".join(header)] + [
        ",".join([repr(0.1 * i)] * with_tau + [repr(float(v)) for v in row])
        for i, row in enumerate(events)]) + "\n")
    assert main(["transform", "--map", str(mapfile), "--input", str(infile),
                 "--out", str(outfile)]) == 0
    text = outfile.read_bytes()
    assert hashlib.sha256(text).hexdigest() == digest, text.decode()
