"""The suites' samplers replay numpy's draws bit for bit.

The samplers decide their rejection predicates on plain floats, and the
batched suites read their doubles through ``DrawStream``.  The references
below are the numpy samplers they replace (``rng.uniform(lo, hi, 4)``,
``np.linalg.norm``, ``form.denominator``, ``interval``): every draw, and the
generator's position after it, must match them.  The plain-float predicates
have no numpy fallback near their thresholds, so these replays are the
evidence that they decide as the numpy ones do.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confvac import (AcceleratedFrameForm, ConformalMap, Dilation, Inversion,
                     SingularPointError, Translation, interval, lorentz_boost,
                     map_to_dict, verify_interval_law)
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


def ref_same_side_pair(rng, form, min_interval):
    while True:
        x = ref_off_singular(rng, form)
        xp = ref_off_singular(rng, form)
        if form.denominator(x) * form.denominator(xp) <= 0:
            continue
        if abs(interval(x, xp)) < min_interval:
            continue
        return x, xp


def ref_chain(rng):
    """The primitive chain of 2 to 4 primitives, each built as it is drawn."""
    prims = []
    for _ in range(rng.integers(2, 5)):
        kind = rng.integers(0, 4)
        if kind == 0:
            prims.append(Translation(rng.uniform(-0.5, 0.5, 4)))
        elif kind == 1:
            u = rng.uniform(-0.4, 0.4, 3)
            if u @ u >= 0.9:
                u = u / np.linalg.norm(u) * 0.5
            prims.append(lorentz_boost(u))
        elif kind == 2:
            prims.append(Dilation(rng.uniform(0.5, 2.0)))
        else:
            prims.append(Inversion(rng.uniform(0.5, 2.0)))
    return ConformalMap(prims)


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
                         suites.random_event_off_singular(rng, form, min_residual=0.2))
        assert same_bits(ref_same_side_pair(ref, form, 0.05),
                         suites.random_same_side_pair(rng, form, min_interval=0.05))
        assert same_bits(ref_event(ref), suites.random_event(rng))
    assert ref.random() == rng.random()


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_stream_replays_mixed_form_and_chain_draws(seed):
    # the interval-law candidate stream, long enough to cross many block refills;
    # each chain is drawn on the generator the stream hands back
    ref = np.random.default_rng(seed)
    stream = suites.DrawStream(np.random.default_rng(seed))
    for _ in range(60):
        u = ref.uniform()
        assert u == stream.random()
        if u < 0.7:
            form = ref_form(ref)
            assert_same_form(form, suites.random_form(stream))
            pair = ref_off_singular(ref, form), ref_off_singular(ref, form)
            assert same_bits(pair, [suites.random_event_off_singular(stream, form)
                                    for _ in range(2)])
        else:
            # the suite draws chain parameters on the generator the stream hands back
            chain = suites._chain(suites._chain_params(stream.generator()))
            assert map_to_dict(ref_chain(ref)) == map_to_dict(chain)
            assert same_bits((ref_event(ref), ref_event(ref)),
                             (suites.random_event(stream), suites.random_event(stream)))
    assert ref.random() == stream.generator().random()


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_chain_params_draw_as_random_chain(seed):
    # on a generator and through the stream hand-back, the parameter draw
    # consumes what random_chain (and the reference) consumes, and the chain
    # built from the parameters is the one random_chain returns
    ref, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    stream = suites.DrawStream(np.random.default_rng(seed))
    for _ in range(20):
        assert ref.random() == rng.random() == stream.random()
        expected = map_to_dict(ref_chain(ref))
        assert map_to_dict(suites.random_chain(rng)) == expected
        assert map_to_dict(suites._chain(suites._chain_params(stream.generator()))) == expected
    assert ref.random() == rng.random() == stream.generator().random()


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_interval_law_block_equals_one_candidate_at_a_time(seed):
    # each chain candidate's values are those of its own verify_interval_law
    # call on the built chain, NaN where that call raises
    maps, points, values = suites._interval_law_block(
        suites.DrawStream(np.random.default_rng(seed)), 120)
    chains = [i for i, m in enumerate(maps) if isinstance(m, list)]
    assert chains
    for i in chains:
        try:
            rep = verify_interval_law(suites._chain(maps[i]), points[i, 0], points[i, 1])
        except SingularPointError:
            assert np.isnan(values[:, i]).all()
            continue
        assert same_bits(values[:, i], [rep.residual, rep.lhs, rep.rhs, rep.lam, rep.lam_p])


@pytest.mark.parametrize("min_interval", [0.0, 0.05])
def test_same_side_blocks_replay_per_sample_draws(min_interval, monkeypatch):
    monkeypatch.setattr(suites, "CANDIDATE_BLOCK", 7)
    ref = np.random.default_rng(11)
    blocks = list(suites._same_side_blocks(np.random.default_rng(11), 30, min_interval))
    assert [len(x) for _, x, _ in blocks] == [7, 7, 7, 7, 2]
    for form, x, xp in blocks:
        for i in range(len(x)):
            one = ref_form(ref)
            assert same_bits(one.alpha, form.alpha[i]) and same_bits(one.beta, form.beta[i])
            assert same_bits(ref_same_side_pair(ref, one, min_interval), (x[i], xp[i]))
