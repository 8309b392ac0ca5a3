"""The suites' samplers: a batch of one replays the one-at-a-time numpy
draws bit for bit, and the block samplers keep their candidates' rules.

Every sampler draws rows through ``suites._rows_until``.  ricci-flat,
light-rays, abraham and em-invariance draw a batch of one; the references
below are the one-at-a-time numpy samplers those streams were first written
with (``rng.uniform(lo, hi, 4)``, ``np.linalg.norm``, ``form.denominator``),
and every draw, and the generator's position after it, must match them.
interval-law draws each block of candidates as arrays
(``suites._interval_law_block``), and scalar-invariance and tetrad-identity
draw each block's forms, then its same-side pairs
(``suites._same_side_blocks``); their tests check every candidate against
its rule, and interval-law's values against its own map alone.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confvac import (AcceleratedFrameForm, Dilation, LorentzTransform,
                     SingularPointError, Translation, interval, map_to_dict,
                     verify_interval_law)
from confvac import suites


def ref_event(rng, radius=1.0):
    while True:
        x = rng.uniform(-radius, radius, 4)
        if np.linalg.norm(x) <= radius:
            return x


def ref_form(rng):
    alpha = ref_event(rng, 0.5)
    return AcceleratedFrameForm(alpha, rng.uniform(0.5, 2.0))


def ref_off_singular(rng, form, min_residual=0.1):
    while True:
        x = ref_event(rng)
        if abs(form.denominator(x)) >= min_residual:
            return x


def same_bits(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def assert_same_form(a, b):
    assert same_bits(a.alpha, b.alpha) and same_bits(a.beta, b.beta)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_samplers_on_a_generator_replay_numpy_samplers(seed):
    ref, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(10):
        form = ref_form(ref)
        assert_same_form(form, suites.random_form(rng))
        assert same_bits(ref_off_singular(ref, form, 0.2),
                         suites._off_singular_rows(rng, form, 0.2, 1)[0])
        assert same_bits(ref_event(ref), suites._ball_rows(rng, 1.0, 1)[0])
    assert ref.random() == rng.random()


class KindsForced:
    """A generator whose ``random(k)``, the block's form-or-chain draw, is k
    copies of u: 0 makes every candidate a form, 1 every one a chain."""

    def __init__(self, rng, u):
        self.rng, self.u = rng, u

    def random(self, k):
        return np.full(k, self.u)

    def __getattr__(self, name):
        return getattr(self.rng, name)


def form_of(m):
    """The form that is the one slot of chain m, None for a primitive chain."""
    chain = m.chain
    return chain[0] if len(chain) == 1 and isinstance(chain[0], AcceleratedFrameForm) else None


def check_values(m, pair, values):
    """values are those of m's own verify_interval_law call on the pair,
    NaN where that call raises (never for a form)."""
    try:
        rep = verify_interval_law(m, *pair)
    except SingularPointError:
        assert form_of(m) is None and np.isnan(values).all()
        return
    assert same_bits(values, [rep.residual, rep.lhs, rep.rhs, rep.lam, rep.lam_p])


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_interval_law_block_equals_one_candidate_at_a_time(seed):
    # each candidate, form or chain, gets the bits of its own map alone
    stack, points, values = suites._interval_law_block(np.random.default_rng(seed), 120)
    maps = [stack.take(i) for i in range(120)]
    assert {form_of(m) is None for m in maps} == {True, False}
    for i, m in enumerate(maps):
        check_values(m, points[i], values[:, i])


def test_rows_until_redraws_only_the_rejected_rows():
    rng = np.random.default_rng(4)
    draws = []

    def draw(k):
        draws.append(rng.uniform(-1.0, 1.0, (k, 4)))
        return draws[-1].copy()

    v = suites._rows_until(draw, lambda v: v[:, 0] > 0.0, 50)
    assert len(draws) > 1 and (v[:, 0] <= 0.0).all()
    kept = draws[0][:, 0] <= 0.0
    assert same_bits(v[kept], draws[0][kept])
    assert [len(d) for d in draws[1:]] == [np.count_nonzero(d[:, 0] > 0.0)
                                          for d in draws[:-1]]


def boost_velocity(L):
    return -L[0, 1:] / L[0, 0]


@given(st.integers(0, 2**32 - 1), st.integers(1, 60))
@settings(max_examples=40, deadline=None)
def test_interval_law_block_candidates_meet_their_rules(seed, k):
    maps, points, values = suites._interval_law_block(np.random.default_rng(seed), k)
    assert points.shape == (k, 2, 4) and values.shape == (5, k)
    assert (np.sum(points * points, axis=2) <= 1.0).all()
    for i in range(k):
        m = maps.take(i)
        form = form_of(m)
        if form is not None:
            assert form.alpha @ form.alpha <= 0.25 and 0.5 <= form.beta <= 2.0
            assert (np.abs(form.denominator(points[i])) >= 0.1).all()
            continue
        assert 2 <= len(m.chain) <= 4
        for p in m.chain:
            if isinstance(p, Translation):
                assert (np.abs(p.offset) <= 0.5).all()
            elif isinstance(p, LorentzTransform):
                u = boost_velocity(p.matrix)
                assert (np.abs(u) <= 0.4 + 1e-15).all() and u @ u < 1.0
            else:
                assert 0.5 <= (p.scale if isinstance(p, Dilation) else p.beta) <= 2.0


@pytest.mark.parametrize("k", [1, 2, 40])
@pytest.mark.parametrize("u, forms", [(0.0, True), (1.0, False)], ids=["forms", "chains"])
def test_interval_law_block_of_one_kind(k, u, forms):
    maps, points, values = suites._interval_law_block(
        KindsForced(np.random.default_rng(k), u), k)
    assert values.shape == (5, k) and len(maps.kinds) == k
    for i in range(k):
        assert (form_of(maps.take(i)) is not None) == forms
        check_values(maps.take(i), points[i], values[:, i])


def test_interval_law_block_same_seed_same_bytes():
    a, b = (suites._interval_law_block(np.random.default_rng(5), 300) for _ in range(2))
    assert same_bits(a[1], b[1]) and same_bits(a[2], b[2])
    assert [map_to_dict(a[0].take(i)) for i in range(300)] == [map_to_dict(b[0].take(i))
                                                               for i in range(300)]


@pytest.mark.parametrize("min_interval", [0.0, 0.05])
def test_same_side_blocks_meet_their_rules(min_interval, monkeypatch):
    monkeypatch.setattr(suites, "CANDIDATE_BLOCK", 7)
    blocks = list(suites._same_side_blocks(np.random.default_rng(11), 30, min_interval))
    assert [len(x) for _, x, _ in blocks] == [7, 7, 7, 7, 2]
    for form, x, xp in blocks:
        assert (np.sum(form.alpha**2, axis=1) <= 0.25).all()
        assert ((0.5 <= form.beta) & (form.beta <= 2.0)).all()
        assert (np.sum(x * x, axis=1) <= 1.0).all() and (np.sum(xp * xp, axis=1) <= 1.0).all()
        den, den_p = form.denominator(x), form.denominator(xp)
        assert (np.abs(den) >= 0.1).all() and (np.abs(den_p) >= 0.1).all()
        assert (den * den_p > 0).all()
        assert (np.abs(interval(x, xp)) >= min_interval).all()
    again = suites._same_side_blocks(np.random.default_rng(11), 30, min_interval)
    for (form, x, xp), (form_b, x_b, xp_b) in zip(blocks, again, strict=True):
        assert_same_form(form, form_b)
        assert same_bits(x, x_b) and same_bits(xp, xp_b)
