"""Reports are bit for bit given (config, seed).

Each suite runs at seed 7 and a small sample count; the sha256 of its report
(``to_json(include_wall_time=False)``) must match the digest recorded when
this test was written.  Any change to a sample stream, a rejection rule or
the rounding of a statistic shows up here as a changed digest.  The output
bytes of ``confvac transform`` on a chain map and on a form map are pinned
the same way.
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
    "interval-law": (500, "fc3c9b344ff0bb6765fd5643b0b1a0d6f6ec7612159ebd8c61b250b33d2fdd4f"),
    "ricci-flat": (10, "d2f17b45a1a449fbb755420479c2d7e6983498879c7db091b362c2b81c414086"),
    "abraham": (2, "b35b78bd068afef40c8085a06382b51f5358b06aaa1e7a351422adde4526e46f"),
    "light-rays": (10, "16ec6df9b536f6635a826db717f28e85fdce175580be1760808c000227ec508d"),
    "scalar-invariance": (100, "61346ab8d55bebc9309e600ddbf1f3d661f649effc30fbb7636abd35511ccdd0"),
    "tetrad-identity": (100, "36c649a5a61cf6810d2ee235b781a6dcb8a4da813b664ebe75ce957e1457069f"),
    "em-invariance": (10, "26cfd105bcf5c04db91410899ba0ca161382403ecf17f877b3f8c7cf8cd4e85b"),
    "fdr": (None, "8fb098f415d6b97843f047cb33544cee419ee47ba7cff5e1df6c0387864010e1"),
    "momentum-oracle": (None, "23dff9ebaf6894ca8f2f31835bf105af85ccfb18c02529ba36a98e48c8c31572"),
    "mirror-2d": (None, "7a24ae8d84c0b9e1d8130c326d09299c82b012c9ec91c719cd96b2ac4b401f81"),
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
LONG_INTERVAL_LAW = (2500, "b4202078660ce38bb945d64bb0c2171bd2b39688a6393e1a74f227f2e3d2ca4b")


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
    assert worst["residual"] == max(report.sample_residuals["interval-law-residual"])
    rep = verify_interval_law(map_from_dict(worst["map"]), *worst["points"])
    assert (rep.residual, rep.lhs, rep.rhs) == (worst["residual"], worst["lhs"], worst["rhs"])


# confvac transform: map -> (events, sha256 of the output CSV).  The chain has
# all four kinds, and its last event lands on the light cone of its inversion
# (translated to (1, 1, 0, 0)); the form map's events carry a tau column.
EVENTS = np.random.default_rng(2024).uniform(-1.0, 1.0, (30, 4))
TRANSFORMS = {
    "chain": ({"chain": [
        {"kind": "translation", "b": [0.5, -0.25, 0.125, 0.0]},
        {"kind": "inversion", "beta": 0.8},
        {"kind": "dilation", "s": 1.5},
        {"kind": "lorentz", "matrix": boost_matrix([0.2, -0.1, 0.05]).tolist()},
        {"kind": "translation", "b": [-0.1, 0.3, 0.0, 0.2]}]},
        np.vstack([EVENTS, [0.5, 1.25, -0.125, 0.0]]), False,
        "cd633075d1291030a7dea1f1cc62633987db02176fc90b8948652a851e1952e7"),
    "form": ({"alpha": [0.3, 0.1, -0.2, 0.05], "beta": 1.3}, EVENTS, True,
             "31c84a853c8d30b777bcd495e9617db9b32830c3f95d9a65fd5f2dc4520d1d79"),
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
