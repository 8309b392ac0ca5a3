import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confvac import (AcceleratedFrameForm, ConstraintViolationError,
                     Homography2D, PoleError, RayMap2D, SampledRule,
                     accelerated_frame_maps_2d, cross_ratio, from_lightcone,
                     homography_compose, homography_invert, is_homographic,
                     mirror_scattering_map, schwarzian, to_lightcone,
                     vacuum_verdict)
from confvac.lightcone2d import VERDICT_THRESHOLD, raymap_from_dict, raymap_to_dict

reasonable = st.floats(-50, 50)


# ---------------------------------------------------------------------------
# light-cone variables

def test_lightcone_examples():
    assert to_lightcone(1.0, 0.0) == (1.0, 1.0)
    assert to_lightcone(0.0, 1.0) == (1.0, -1.0)


@given(reasonable, reasonable)
def test_lightcone_round_trip(t, x):
    u = to_lightcone(t, x)
    t2, x2 = from_lightcone(u)
    assert t2 == pytest.approx(t, abs=1e-12)
    assert x2 == pytest.approx(x, abs=1e-12)


# ---------------------------------------------------------------------------
# homographies

def test_identity_homography():
    h = Homography2D.identity()
    for u in (-2.0, 0.0, 3.7):
        assert h(u) == u


def test_compose_worked_matrix_example():
    # (1,1,0,1) then (0,1,-1,0) has matrix [[0,1],[-1,-1]], det 1
    h1 = Homography2D(1, 1, 0, 1)
    h2 = Homography2D(0, 1, -1, 0)
    comp = homography_compose(h1, h2)
    np.testing.assert_allclose(np.abs(comp.matrix),
                               np.abs(np.array([[0.0, 1.0], [-1.0, -1.0]])))
    assert comp.a * comp.d - comp.b * comp.c == pytest.approx(1.0)
    # pointwise-composition oracle over many samples (pole of the composite
    # sits at u = -1 where h1 feeds h2's pole)
    rng = np.random.default_rng(0)
    for u in rng.uniform(-3, 3, 1000):
        if abs(u + 1.0) < 1e-3:
            continue
        assert comp(u) == pytest.approx(h2(h1(u)), rel=1e-9, abs=1e-9)


def test_invert_compose_is_identity():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a, b, c = rng.uniform(-2, 2, 3)
        d = (1 + b * c) / a if abs(a) > 0.1 else None
        if d is None:
            continue
        h = Homography2D(a, b, c, d)
        hinv = homography_invert(h)
        for u in rng.uniform(-2, 2, 5):
            try:
                assert hinv(h(u)) == pytest.approx(u, abs=1e-8)
            except PoleError:
                pass


def test_pole_error():
    h = Homography2D(1.0, 0.0, 1.0, 1.0)   # pole at u = -1
    with pytest.raises(PoleError):
        h(-1.0)
    assert h.pole() == -1.0


def test_determinant_normalization_and_rejection():
    h = Homography2D(2.0, 0.0, 0.0, 2.0)   # det 4, rescaled to 1
    assert h.a * h.d - h.b * h.c == pytest.approx(1.0)
    assert h(1.0) == pytest.approx(1.0)
    with pytest.raises(ConstraintViolationError, match="determinant"):
        Homography2D(1.0, 0.0, 0.0, -1.0)


def test_canonical_sign_fix():
    h1 = Homography2D(-1.0, 0.0, 0.0, -1.0)
    assert (h1.a, h1.d) == (1.0, 1.0)


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_homography_group_closure_on_samples(seed):
    rng = np.random.default_rng(seed)

    def rand_h():
        while True:
            a, b, c = rng.uniform(-2, 2, 3)
            if abs(a) > 0.2:
                return Homography2D(a, b, c, (1 + b * c) / a)

    h1, h2, h3 = rand_h(), rand_h(), rand_h()
    left = homography_compose(homography_compose(h1, h2), h3)
    right = homography_compose(h1, homography_compose(h2, h3))
    assert left.a * left.d - left.b * left.c == pytest.approx(1.0, abs=1e-12)
    for u in rng.uniform(-1, 1, 5):
        try:
            assert left(u) == pytest.approx(right(u), rel=1e-8, abs=1e-8)
        except PoleError:
            pass


# ---------------------------------------------------------------------------
# Schwarzian detector

def test_homography_schwarzian_below_threshold():
    rng = np.random.default_rng(2)
    grid = np.linspace(-1, 1, 1000)
    for _ in range(10):
        a, b, c = rng.uniform(-2, 2, 3)
        if abs(a) < 0.2:
            continue
        h = Homography2D(a, b, c, (1 + b * c) / a)
        pole = h.pole()
        g = grid if pole is None else grid[np.abs(grid - pole) > 0.1]
        rep = is_homographic(h, g, threshold=1e-8)
        assert rep.homographic
        assert rep.max_schwarzian < 1e-8


def test_sine_perturbation_detected():
    rule = SampledRule.from_callable(lambda u: u + 0.1 * np.sin(u), -1.5, 1.5)
    rep = is_homographic(rule, np.linspace(-1, 1, 1000))
    assert not rep.homographic
    assert rep.max_schwarzian > 0.01


def test_exponential_constant_schwarzian():
    # S[exp] = -1/2 everywhere: closed-form check of the detector
    rule = SampledRule.from_callable(np.exp, -1.5, 1.5, n=3001)
    vals = schwarzian(rule, np.linspace(-1, 1, 200))
    np.testing.assert_allclose(vals, -0.5, atol=1e-4)


def test_sampled_rule_reproduces_its_samples_exactly():
    rule = SampledRule.from_callable(lambda u: u + 0.1 * np.sin(u), -2.5, 2.5, n=401)
    assert np.array_equal(rule(rule.u), rule.f)
    assert [rule(u) for u in rule.u[::50]] == rule.f[::50].tolist()
    # fewer than six samples: the one polynomial through all of them
    cubic = SampledRule(np.array([0.0, 0.4, 0.7, 1.0]), np.array([0.0, 0.4, 0.7, 1.0]) ** 3 + 1)
    assert cubic(0.5) == pytest.approx(1.125, abs=1e-14)
    d1, d2, d3 = cubic.derivatives(np.array([0.2, 0.9]))
    np.testing.assert_allclose(d1, [0.12, 2.43], atol=1e-13)
    np.testing.assert_allclose(d2, [1.2, 5.4], atol=1e-12)
    np.testing.assert_allclose(d3, [6.0, 6.0], atol=1e-11)


def test_sampled_rule_never_extrapolates():
    # values and derivatives share one check, which names the first point outside
    rule = SampledRule.from_callable(lambda u: u + 0.1 * np.sin(u), -1, 1, n=401)
    for call in (rule, rule.derivatives, lambda u: schwarzian(rule, u),
                 lambda u: is_homographic(rule, u)):
        with pytest.raises(ValueError, match=r"^3\.0 outside sampled range \[-1\.0, 1\.0\]"):
            call(np.array([0.5, 3.0, 5.0]))
    # the end samples are inside
    assert rule(1.0) == rule.f[-1]
    assert np.all(rule.derivatives(np.array([-1.0, 1.0]))[0] > 0)


def test_sampled_homography_has_no_schwarzian():
    # the samples' rounding enters S as u_ulp / h^3: 1e-6 near n = 2001 here
    h = Homography2D(1.1, 0.05, -0.2, (1 + 0.05 * 0.2) / 1.1)
    for n in (201, 401):
        rule = SampledRule.from_callable(h, -1.0, 1.0, n=n)
        assert is_homographic(rule, np.linspace(-0.95, 0.95, 801)).max_schwarzian < 1e-6


def test_sampled_homography_reads_invariant_at_any_density():
    # the samples' rounding gives |S| up to ~ eps max|f| / (h^3 min f'), past
    # VERDICT_THRESHOLD from n = 2001 on here; a sampled component's threshold
    # grows with that floor, while the sine rule's |S| of 1/11 stays far above it
    h = Homography2D(1.1, 0.05, -0.2, (1 + 0.05 * 0.2) / 1.1)
    for n in (401, 1001, 2001, 4001, 8001):
        rule = SampledRule.from_callable(h, -1.0, 1.0, n=n)
        composite = mirror_scattering_map(RayMap2D(rule, Homography2D.identity()))
        # f_plus samples the rule's inverse on a non-uniform grid
        assert np.ptp(np.diff(composite.f_plus.u)) > 1e-6
        v = vacuum_verdict(composite)
        assert v.verdict == "invariant", (n, v.evidence, v.threshold)
    sine = SampledRule.from_callable(lambda u: u + 0.1 * np.sin(u), -2.5, 2.5, n=4001)
    v = vacuum_verdict(mirror_scattering_map(RayMap2D(sine, Homography2D.identity())))
    assert v.verdict == "modified"
    assert v.evidence > 100 * v.threshold
    assert is_homographic(h, [0.0]).threshold == VERDICT_THRESHOLD


def test_sampled_sine_rule_schwarzian_matches_closed_form():
    # f = u + 0.1 sin u, sampled as in the mirror-2d suite:
    # S[f] = -0.1 cos u / f' - 1.5 (0.1 sin u / f')^2, with |S| largest (1/11) at u = 0
    rule = SampledRule.from_callable(lambda u: u + 0.1 * np.sin(u), -2.5, 2.5, n=4001)
    g = np.linspace(-2.25, 2.25, 801)
    d1 = 1 + 0.1 * np.cos(g)
    closed = -0.1 * np.cos(g) / d1 - 1.5 * (0.1 * np.sin(g) / d1) ** 2
    np.testing.assert_allclose(schwarzian(rule, g), closed, rtol=0, atol=1e-5)
    assert is_homographic(rule, g).max_schwarzian == pytest.approx(1 / 11, rel=1e-6)


def test_schwarzian_rejects_nonmonotone():
    with pytest.raises(ConstraintViolationError, match="increasing"):
        SampledRule(np.linspace(-1, 1, 100), np.sin(np.linspace(-4, 4, 100)))


# ---------------------------------------------------------------------------
# 2D accelerated frames

def test_alpha_zero_is_pure_dilation():
    m = accelerated_frame_maps_2d(np.zeros(2), 2.25)
    assert m.f_plus == Homography2D(1.5, 0.0, 0.0, 1.0 / 1.5)
    assert m.f_minus == Homography2D(1.5, 0.0, 0.0, 1.0 / 1.5)
    assert m.f_plus(2.0) == pytest.approx(4.5)


def test_2d_maps_match_4d_map_in_lightcone_variables():
    # oracle: the 4D closed form restricted to the (t, x) plane
    rng = np.random.default_rng(3)
    alpha2 = np.array([0.12, 0.27])
    beta = 1.4
    pair = accelerated_frame_maps_2d(alpha2, beta)
    form = AcceleratedFrameForm(np.array([alpha2[0], alpha2[1], 0.0, 0.0]), beta)
    checked = 0
    for _ in range(300):
        t, x1 = rng.uniform(-0.7, 0.7, 2)
        ev = np.array([t, x1, 0.0, 0.0])
        if abs(form.denominator(ev)) < 0.1:
            continue
        img = form.apply(ev)
        u = to_lightcone(t, x1)
        ub = to_lightcone(img[0], img[1])
        assert pair.f_plus(u.u_plus) == pytest.approx(ub.u_plus, abs=1e-12)
        assert pair.f_minus(u.u_minus) == pytest.approx(ub.u_minus, abs=1e-12)
        checked += 1
    assert checked > 200


def test_2d_inversion_exchanges_and_is_homographic():
    # u -> -beta/u with the light-cone slots exchanged; as a 1D map it is the
    # increasing homography (0, -beta; 1, 0) with positive determinant
    beta = 1.3
    h = Homography2D(0.0, -beta, 1.0, 0.0)
    for u in (-2.0, -0.5, 0.7, 2.0):
        assert h(u) == pytest.approx(-beta / u)
    rep = is_homographic(h, np.linspace(0.2, 2.0, 500))
    assert rep.homographic


def test_frame_components_always_homographic():
    rng = np.random.default_rng(4)
    for _ in range(20):
        alpha2 = rng.uniform(-0.5, 0.5, 2)
        beta = rng.uniform(0.5, 2.0)
        pair = accelerated_frame_maps_2d(alpha2, beta)
        for comp in (pair.f_plus, pair.f_minus):
            pole = comp.pole()
            grid = np.linspace(-1, 1, 500)
            if pole is not None:
                grid = grid[np.abs(grid - pole) > 0.1]
            assert is_homographic(comp, grid, threshold=1e-8).homographic


def test_beta_must_be_positive():
    with pytest.raises(ConstraintViolationError, match="positive"):
        accelerated_frame_maps_2d(np.zeros(2), -1.0)


# ---------------------------------------------------------------------------
# mirror scattering

def test_static_mirror_is_pure_exchange():
    ident = RayMap2D(Homography2D.identity(), Homography2D.identity())
    comp = mirror_scattering_map(ident)
    assert comp.f_plus == Homography2D.identity()
    assert comp.f_minus == Homography2D.identity()


def test_exchange_involution():
    # scattering twice off the static mirror restores the input rays
    ident = RayMap2D(Homography2D.identity(), Homography2D.identity())
    once = mirror_scattering_map(ident)
    twice = mirror_scattering_map(once)
    for u in (-1.0, 0.3, 2.0):
        assert twice.f_plus(u) == u and twice.f_minus(u) == u


def test_accelerated_mirror_composite_homographic():
    frame = accelerated_frame_maps_2d(np.array([0.15, 0.3]), 1.2)
    comp = mirror_scattering_map(frame)
    assert isinstance(comp.f_plus, Homography2D)
    assert isinstance(comp.f_minus, Homography2D)
    v = vacuum_verdict(comp)
    assert v.verdict == "invariant"
    assert v.invariant


def test_sinusoidal_mirror_modifies_vacuum():
    rule = SampledRule.from_callable(lambda u: u + 0.1 * np.sin(u), -2.5, 2.5,
                                     n=4001)
    frame = RayMap2D(f_plus=rule, f_minus=Homography2D.identity())
    comp = mirror_scattering_map(frame)
    v = vacuum_verdict(comp)
    assert v.verdict == "modified"
    assert v.evidence > 1e-2


def test_mirror_composition_equals_pointwise_composition():
    # the sampled composite is built from one array call per rule; its samples
    # are the point-by-point compositions, bit for bit
    rule = SampledRule.from_callable(lambda u: u + 0.1 * np.sin(u), -2.5, 2.5, n=401)
    h = Homography2D(1.1, 0.05, -0.2, (1 + 0.05 * 0.2) / 1.1)
    comp = mirror_scattering_map(RayMap2D(f_plus=rule, f_minus=h))
    inv = rule.inverse()
    g_plus = comp.f_plus
    assert np.array_equal(g_plus.f, [inv(h(u)) for u in g_plus.u])
    assert np.array_equal(rule.f, [u + 0.1 * np.sin(u) for u in rule.u])


def test_inertial_mirror_invariant():
    k = np.exp(0.4)   # Doppler factor of a boosted rest frame
    frame = RayMap2D(Homography2D(1 / np.sqrt(k), 0, 0, np.sqrt(k)),
                     Homography2D(np.sqrt(k), 0, 0, 1 / np.sqrt(k)))
    assert vacuum_verdict(mirror_scattering_map(frame)).verdict == "invariant"


def test_cross_ratio_preserved_by_homographies_only():
    rng = np.random.default_rng(5)
    h = Homography2D(1.2, 0.3, -0.4, (1 + 0.3 * -0.4) / 1.2)
    us = rng.uniform(-1, 1, 4)
    before = cross_ratio(*us)
    after = cross_ratio(*[h(u) for u in us])
    assert after == pytest.approx(before, rel=1e-9)
    warp = lambda u: u + 0.1 * np.sin(3 * u)
    warped = cross_ratio(*[warp(u) for u in us])
    assert abs(warped - before) > 1e-4


# ---------------------------------------------------------------------------
# serialization

def test_raymap_json_round_trip():
    frame = accelerated_frame_maps_2d(np.array([0.1, -0.2]), 1.5)
    loaded = raymap_from_dict(json.loads(json.dumps(raymap_to_dict(frame))))
    assert loaded.f_plus == frame.f_plus
    assert loaded.f_minus == frame.f_minus
    rule = SampledRule.from_callable(lambda u: u + 0.05 * np.sin(u), -1, 1, n=51)
    mixed = RayMap2D(rule, Homography2D.identity())
    loaded = raymap_from_dict(json.loads(json.dumps(raymap_to_dict(mixed))))
    np.testing.assert_allclose(loaded.f_plus.u, rule.u)
    np.testing.assert_allclose(loaded.f_plus.f, rule.f)
