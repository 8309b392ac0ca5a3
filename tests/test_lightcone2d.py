import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confvac import (AcceleratedFrameForm, ConstraintViolationError,
                     Homography2D, PoleError, RayMap2D, RayRule,
                     accelerated_frame_maps_2d, homography_compose, is_homographic,
                     mirror_scattering_map, schwarzian, vacuum_verdict)
from confvac.cli import main
from confvac.lightcone2d import _compose_components, raymap_to_dict

# f = u + 0.1 sin u, the mirror-2d suite's perturbed rule
SINE = RayRule(lambda u: (u + 0.1 * np.sin(u), 1 + 0.1 * np.cos(u),
                          -0.1 * np.sin(u), -0.1 * np.cos(u)))
EXP = RayRule(lambda u: (np.exp(u),) * 4)


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
        hinv = h.inverse()
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
        rep = is_homographic(h, g)
        assert rep.homographic
        assert rep.max_schwarzian < 1e-8


def test_sine_perturbation_detected():
    rep = is_homographic(SINE, np.linspace(-1, 1, 1000))
    assert not rep.homographic
    assert rep.max_schwarzian > 0.01


def test_exponential_constant_schwarzian():
    # S[exp] = -1/2 everywhere: closed-form check of the detector
    vals = schwarzian(EXP, np.linspace(-1, 1, 200))
    np.testing.assert_allclose(vals, -0.5, rtol=0, atol=1e-14)


def test_sine_rule_schwarzian_matches_closed_form():
    # S[f] = -0.1 cos u / f' - 1.5 (0.1 sin u / f')^2, with |S| largest (1/11) at u = 0
    g = np.linspace(-2.25, 2.25, 801)
    d1 = 1 + 0.1 * np.cos(g)
    closed = -0.1 * np.cos(g) / d1 - 1.5 * (0.1 * np.sin(g) / d1) ** 2
    np.testing.assert_allclose(schwarzian(SINE, g), closed, rtol=0, atol=1e-15)
    assert is_homographic(SINE, g).max_schwarzian == 1 / 11
    v = vacuum_verdict(mirror_scattering_map(RayMap2D(SINE, Homography2D.identity())))
    assert v.evidence == 1 / 11


def test_schwarzian_rejects_nonmonotone():
    wave = RayRule(lambda u: (np.sin(u), np.cos(u), -np.sin(u), -np.cos(u)))
    with pytest.raises(ConstraintViolationError, match="increasing"):
        schwarzian(wave, np.linspace(-4, 4, 100))


def test_homography_rule_reads_invariant():
    # a homography given only by its jet goes through the rule path: Newton
    # inverse and Faa di Bruno composition, on the whole [-1, 1] grid
    h = Homography2D(1.1, 0.05, -0.2, (1 + 0.05 * 0.2) / 1.1)
    composite = mirror_scattering_map(RayMap2D(RayRule(h.jet), Homography2D.identity()))
    assert isinstance(composite.f_plus, RayRule) and isinstance(composite.f_minus, RayRule)
    v = vacuum_verdict(composite)
    assert v.verdict == "invariant"
    assert v.evidence < 1e-12


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_rule_inverse_undoes_the_rule_and_negates_the_schwarzian(seed):
    # f^-1(f(u)) = u and S[f^-1](f(u)) = -S[f](u) / f'(u)^2.  Newton starts
    # at w = f(u), so the homography is near the identity: a far one can put
    # its pole between the start and the root
    rng = np.random.default_rng(seed)
    u = rng.uniform(-1.5, 1.5, 50)
    a, b, c = rng.uniform(-0.2, 0.2, 3) + [1, 0, 0]
    for rule in (SINE, EXP, RayRule(Homography2D(a, b, c, (1 + b * c) / a).jet)):
        inv = rule.inverse()
        f, d1 = rule.jet(u)[:2]
        np.testing.assert_allclose(inv(f), u, rtol=1e-14, atol=1e-14)
        np.testing.assert_allclose(schwarzian(inv, f), -schwarzian(rule, u) / d1**2,
                                   rtol=1e-12, atol=1e-12)


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_composition_schwarzian_chain_rule(seed):
    # S[h o f] = S[f] and S[f o h] = (S[f] o h) h'^2 for homographies h
    # whose pole lies off the grid [-1, 1]
    rng = np.random.default_rng(seed)
    h = None
    while h is None or (h.pole() is not None and abs(h.pole()) <= 1.5):
        a, b, c = rng.uniform(-2, 2, 3)
        if abs(a) > 0.2:
            h = Homography2D(a, b, c, (1 + b * c) / a)
    g = np.linspace(-1, 1, 201)
    f = SINE
    np.testing.assert_allclose(schwarzian(_compose_components(f, h), g), schwarzian(f, g),
                               rtol=1e-12, atol=1e-12)
    _, h1, _, _ = h.jet(g)
    np.testing.assert_allclose(schwarzian(_compose_components(h, f), g),
                               schwarzian(f, h(g)) * h1**2, rtol=1e-12, atol=1e-12)


def test_rule_inverse_rejects_a_non_root():
    # 2.0 is outside arctan's range: Newton runs off to infinity, and the
    # inverse raises rather than return a w that is not a root
    arctan = RayRule(lambda u: (np.arctan(u), 1 / (1 + u**2), -2 * u / (1 + u**2) ** 2,
                                (6 * u**2 - 2) / (1 + u**2) ** 3))
    inv = arctan.inverse()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConstraintViolationError, match=r"u = 2\.0$"):
            inv(2.0)
        with pytest.raises(ConstraintViolationError, match=r"u = 2\.0$"):
            inv(np.array([0.5, 2.0, 3.0]))
        assert inv(1.0) == pytest.approx(np.tan(1.0), rel=1e-15)


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
        # u_pm = t +- x
        assert pair.f_plus(t + x1) == pytest.approx(img[0] + img[1], abs=1e-12)
        assert pair.f_minus(t - x1) == pytest.approx(img[0] - img[1], abs=1e-12)
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
            assert is_homographic(comp, grid).max_schwarzian < 1e-8


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
    frame = RayMap2D(f_plus=SINE, f_minus=Homography2D.identity())
    comp = mirror_scattering_map(frame)
    v = vacuum_verdict(comp)
    assert v.verdict == "modified"
    assert v.evidence > 1e-2


def test_mirror_composition_equals_pointwise_composition():
    # a composite rule's values are the point-by-point compositions, bit for
    # bit, whether it is called on an array or on one point at a time
    h = Homography2D(1.1, 0.05, -0.2, (1 + 0.05 * 0.2) / 1.1)
    comp = mirror_scattering_map(RayMap2D(f_plus=SINE, f_minus=h))
    inv = SINE.inverse()
    u = np.linspace(-1, 1, 401)
    assert np.array_equal(comp.f_plus(u), [inv(h(v)) for v in u])
    assert np.array_equal(comp.f_minus(u), [h.inverse()(SINE(v)) for v in u])


def test_inertial_mirror_invariant():
    k = np.exp(0.4)   # Doppler factor of a boosted rest frame
    frame = RayMap2D(Homography2D(1 / np.sqrt(k), 0, 0, np.sqrt(k)),
                     Homography2D(np.sqrt(k), 0, 0, 1 / np.sqrt(k)))
    assert vacuum_verdict(mirror_scattering_map(frame)).verdict == "invariant"


def test_cross_ratio_preserved_by_homographies_only():
    def cross_ratio(u1, u2, u3, u4):
        return ((u1 - u3) * (u2 - u4)) / ((u1 - u4) * (u2 - u3))

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

def test_raymap_json_round_trip(capsys):
    # the frame and mirror maps that ``confvac ray2d --mirror`` writes are
    # homographies, rebuilt exactly from their coefficients
    assert main(["ray2d", "--alpha", "0.1,-0.2", "--beta", "1.5", "--mirror"]) == 0
    payload = json.loads(capsys.readouterr().out)
    frame = accelerated_frame_maps_2d(np.array([0.1, -0.2]), 1.5)
    composite = mirror_scattering_map(frame)
    for written, m in ((payload["frame"], frame), (payload["mirror"]["map"], composite)):
        for slot in ("f_plus", "f_minus"):
            assert written[slot]["kind"] == "homography"
            assert Homography2D(*written[slot]["coeffs"]) == getattr(m, slot)
    assert raymap_to_dict(frame) == payload["frame"]
    with pytest.raises(TypeError, match="RayRule"):
        raymap_to_dict(RayMap2D(SINE, Homography2D.identity()))
