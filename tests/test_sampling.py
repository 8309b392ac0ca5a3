"""The suites' samplers replay numpy's draws bit for bit.

The samplers decide their rejection predicates on plain floats, and the
batched suites read their doubles through ``DrawStream``.  The references
below are the numpy samplers they replace (``rng.uniform(lo, hi, 4)``,
``np.linalg.norm``, ``form.denominator``, ``interval``): every draw, and the
generator's position after it, must match them.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confvac import AcceleratedFrameForm, interval, map_to_dict
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
            chain = suites.random_chain(ref)
            assert map_to_dict(chain) == map_to_dict(suites.random_chain(stream.generator()))
            assert same_bits((ref_event(ref), ref_event(ref)),
                             (suites.random_event(stream), suites.random_event(stream)))
    assert ref.random() == stream.generator().random()


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


def test_near_threshold_predicates_are_decided_by_numpy():
    gap = suites.NEAR_THRESHOLD
    assert suites._at_least(0.1 + gap / 2, 0.1, lambda: False) is False
    assert suites._at_least(0.1 - gap / 2, 0.1, lambda: True) is True
    assert suites._at_least(0.1 + 2 * gap, 0.1, lambda: False) is True
    assert suites._at_least(0.1 - 2 * gap, 0.1, lambda: True) is False
