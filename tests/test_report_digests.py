"""Reports are bit for bit given (config, seed).

Each suite runs at seed 7 and a small sample count; the sha256 of its report
(``to_json(include_wall_time=False)``) must match the digest recorded when
this test was written.  Any change to a sample stream, a rejection rule or
the rounding of a statistic shows up here as a changed digest.
"""

import hashlib

import pytest

from confvac.suites import SUITE_NAMES, SuiteConfig, run_suite

# suite -> (samples, sha256 of the report at seed 7)
DIGESTS = {
    "interval-law": (500, "361278a87ceb2844e75159586fd84ac31cb92b3da00c95bc3e7d1fb8cb74edd2"),
    "ricci-flat": (10, "d2f17b45a1a449fbb755420479c2d7e6983498879c7db091b362c2b81c414086"),
    "abraham": (2, "af6d7ddfab3a09b99b403901163d7fb6b085b800f3e529957919572b5ce2dddf"),
    "light-rays": (10, "16ec6df9b536f6635a826db717f28e85fdce175580be1760808c000227ec508d"),
    "scalar-invariance": (100, "23b689895d9d7fb4d394261fd0796df1a1607e1b0444a2807d5d934d09e8f787"),
    "tetrad-identity": (100, "76b8df2e7b5a7bf5f5ddfcb45928966bd5c3e84ad4f74b2ddfbb019087e0c6e7"),
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
