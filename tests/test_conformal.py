import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import confvac.numdiff as numdiff
from confvac import suites
from confvac import (ETA, AcceleratedFrameForm, ConformalMap,
                     ConstraintViolationError, Dilation, Inversion,
                     LightRay, SingularPointError, Translation, apply_map,
                     compose, image_singular_residual, interval,
                     jacobian_tetrad, lorentz_boost, map_from_dict, map_to_dict,
                     minkowski_dot, ricci_conformal, spatial_rotation,
                     transform_light_ray, verify_interval_law)

WORKED_FORM = AcceleratedFrameForm(np.array([0.5, 0.0, 0.0, 0.0]), 1.0)


def random_form(rng, alpha_max=0.5):
    while True:
        a = rng.uniform(-alpha_max, alpha_max, 4)
        if np.linalg.norm(a) <= alpha_max:
            return AcceleratedFrameForm(a, rng.uniform(0.5, 2.0))


def safe_event(rng, form, min_res=0.2):
    while True:
        x = rng.uniform(-1, 1, 4)
        if np.linalg.norm(x) <= 1 and abs(form.denominator(x)) >= min_res:
            return x


# ---------------------------------------------------------------------------
# conformal factor

def test_factor_identity_for_zero_alpha():
    form = AcceleratedFrameForm(np.zeros(4), 1.0)
    for x in ([0, 0, 0, 0], [0.3, -0.2, 0.9, 4.0]):
        assert form.factor(x) == 1.0


def test_factor_worked_example():
    # 1 / (1 - 2*0.5 + 0.25) = 4
    assert WORKED_FORM.factor([1.0, 0, 0, 0]) == pytest.approx(4.0)


def test_factor_singular_set_raises_with_residual():
    with pytest.raises(SingularPointError) as exc:
        WORKED_FORM.factor([2.0, 0, 0, 0])
    assert exc.value.residual == pytest.approx(0.0, abs=1e-12)


def test_singular_residual_examples():
    assert AcceleratedFrameForm(np.zeros(4), 1.0).denominator([0.4, 0.1, 0, 0]) == 1.0
    assert WORKED_FORM.denominator([2.0, 0, 0, 0]) == pytest.approx(0.0)
    assert WORKED_FORM.denominator([1.0, 0, 0, 0]) == pytest.approx(0.25)


def test_image_singular_residual_tracks_image_side():
    # image of a regular point must be off the image-side set; approaching the
    # source-side set sends the image residual through large values
    rng = np.random.default_rng(0)
    form = random_form(rng)
    x = safe_event(rng, form)
    xb = apply_map(form, x)
    assert abs(image_singular_residual(form, xb)) > 1e-6


# ---------------------------------------------------------------------------
# apply_map

def test_apply_worked_example_and_inversion_consistency():
    x = np.array([1.0, 0, 0, 0])
    xb = apply_map(WORKED_FORM, x)
    np.testing.assert_allclose(xb, [2.0, 0, 0, 0], atol=1e-14)
    # the inversion-form relation: -beta xbar/xbar^2 = alpha - x/x^2
    lhs = -WORKED_FORM.beta * xb / minkowski_dot(xb, xb)
    rhs = WORKED_FORM.alpha - x / minkowski_dot(x, x)
    np.testing.assert_allclose(lhs, rhs, atol=1e-14)


def test_pure_inversion_example():
    inv = ConformalMap([Inversion(1.0)])
    np.testing.assert_allclose(apply_map(inv, [2.0, 0, 0, 0]),
                               [-0.5, 0, 0, 0], atol=1e-15)


def test_identity_form():
    form = AcceleratedFrameForm(np.zeros(4), 1.0)
    x = np.array([0.3, -0.4, 0.1, 0.7])
    np.testing.assert_allclose(apply_map(form, x), x, atol=0)


def test_form_equals_its_primitive_chain():
    rng = np.random.default_rng(1)
    for _ in range(25):
        form = random_form(rng)
        chain = form.as_chain()
        x = safe_event(rng, form)
        if abs(minkowski_dot(x, x)) < 0.05:
            continue  # raw chain is undefined on the inner cone
        np.testing.assert_allclose(chain.apply(x), form.apply(x), atol=1e-12)
        assert chain.factor(x) == pytest.approx(form.factor(x), rel=1e-10)


def test_eq3a_consistency_random():
    rng = np.random.default_rng(2)
    for _ in range(25):
        form = random_form(rng)
        x = safe_event(rng, form)
        if abs(minkowski_dot(x, x)) < 0.05:
            continue
        xb = apply_map(form, x)
        x2b = minkowski_dot(xb, xb)
        if abs(x2b) < 1e-6:
            continue
        lhs = -form.beta * xb / x2b
        rhs = form.alpha - x / minkowski_dot(x, x)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)


# ---------------------------------------------------------------------------
# jacobian / tetrad

def test_jacobian_identity_and_dilation():
    J, lam, f = jacobian_tetrad(ConformalMap.identity(), [0.1, 0.2, 0.3, 0.4])
    np.testing.assert_allclose(J, np.eye(4), atol=0)
    assert lam == 1.0
    J, lam, f = jacobian_tetrad(ConformalMap([Dilation(2.5)]), [1.0, 0, 0, 0])
    np.testing.assert_allclose(J, 2.5 * np.eye(4), atol=0)
    assert lam == 2.5
    np.testing.assert_allclose(f, np.eye(4), atol=0)


def test_jacobian_worked_example_conformality():
    J, lam, _ = jacobian_tetrad(WORKED_FORM, [1.0, 0, 0, 0])
    assert lam == pytest.approx(4.0)
    np.testing.assert_allclose(J.T @ ETA @ J, 16.0 * ETA, atol=1e-10)


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(3)
    for _ in range(10):
        form = random_form(rng)
        x = safe_event(rng, form)
        J, lam, f = jacobian_tetrad(form, x)
        J_fd = numdiff.jacobian(lambda y: form.apply(y), x, step=1e-5)
        np.testing.assert_allclose(J, J_fd, atol=1e-7)
        # tetrad is Lorentz
        np.testing.assert_allclose(f.T @ ETA @ f, ETA, atol=1e-9)


def test_chain_jacobian_via_chain_rule():
    rng = np.random.default_rng(4)
    m = ConformalMap([Translation(np.array([0.1, 0.0, -0.2, 0.3])),
                      Inversion(1.5), Dilation(0.7), lorentz_boost([0.2, 0, 0.1])])
    for _ in range(5):
        x = rng.uniform(-1, 1, 4)
        if abs(minkowski_dot(x + np.array([0.1, 0.0, -0.2, 0.3]),
                             x + np.array([0.1, 0.0, -0.2, 0.3]))) < 0.3:
            continue
        J, lam, f = jacobian_tetrad(m, x)
        J_fd = numdiff.jacobian(lambda y: m.apply(y), x, step=1e-5)
        np.testing.assert_allclose(J, J_fd, atol=1e-6)
        np.testing.assert_allclose(J.T @ ETA @ J, lam**2 * ETA, atol=1e-9)


def test_batched_pushforward_matches_apply_and_jacobian():
    rng = np.random.default_rng(5)
    chain = ConformalMap([Translation(np.array([0.1, 0.0, -0.2, 0.3])), Inversion(1.5),
                          spatial_rotation([1, 2, 0], 0.7), Dilation(0.7),
                          lorentz_boost([0.2, 0, 0.1])])
    for m in (random_form(rng), random_form(rng), chain):
        x = np.array([safe_event(rng, m) if isinstance(m, AcceleratedFrameForm)
                      else rng.uniform(-1, 1, 4) for _ in range(50)])
        v = rng.uniform(-1, 1, (50, 4))
        xb, jv = m.pushforward(x, v)
        for k in range(50):
            np.testing.assert_allclose(xb[k], apply_map(m, x[k]), rtol=1e-13, atol=1e-13)
            J, _, _ = jacobian_tetrad(m, x[k])
            np.testing.assert_allclose(jv[k], J @ v[k], rtol=1e-12, atol=1e-12)


def test_batched_pushforward_singular_row_index():
    form = WORKED_FORM  # denominator (1 - t/2)^2 at x = (t, 0, 0, 0)
    x = np.array([[0.0, 0, 0, 0], [2.0, 0, 0, 0], [1.0, 0, 0, 0], [2.0, 0, 0, 0]])
    for m in (form, ConformalMap([Translation(np.array([-1.0, 0, 0, 0])), Inversion(1.0)])):
        with pytest.raises(SingularPointError) as info:
            m.pushforward(x, np.ones((4, 4)))
        expected = 1 if m is form else 2
        assert info.value.index == expected
        assert info.value.residual == 0.0
        np.testing.assert_array_equal(info.value.point, x[expected])


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_rows_equal_one_event_at_a_time(seed):
    # bit for bit: a row's value must not depend on the rows evaluated with it
    rng = np.random.default_rng(seed)
    for m in (suites.random_chain(rng), suites.random_form(rng)):
        x = rng.uniform(-1.0, 1.0, (20, 4))
        one = {}
        for k, row in enumerate(x):
            try:
                one[k] = (m.apply(row), m.factor(row))
            except SingularPointError:
                pass
        rows = x[list(one)]
        np.testing.assert_array_equal(m.apply(rows), [img for img, _ in one.values()])
        np.testing.assert_array_equal(m.factor(rows), [lam for _, lam in one.values()])


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_phi_rows_equal_one_event_at_a_time(seed):
    rng = np.random.default_rng(seed)
    form = suites.random_form(rng)
    x = rng.uniform(-1.0, 1.0, (20, 4))
    assert form.phi(x).shape == (20, 4)
    assert form.phi2(x).shape == (20, 4, 4)
    np.testing.assert_array_equal(form.phi(x), [form.phi(row) for row in x])
    np.testing.assert_array_equal(form.phi2(x), [form.phi2(row) for row in x])
    assert form.phi(x[0]).shape == (4,) and form.phi2(x[0]).shape == (4, 4)
    assert form.denominator(x).shape == (20,) and isinstance(form.denominator(x[0]), float)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def stacked(forms):
    return AcceleratedFrameForm(np.array([f.alpha for f in forms]),
                                np.array([f.beta for f in forms]))


@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_stacked_forms_equal_single_forms_bit_for_bit(seed, n, blocks):
    # row j meets form j mod n and gets the bits of that form's own call
    rng = np.random.default_rng(seed)
    forms = [suites.random_form(rng) for _ in range(n)]
    batch = stacked(forms)
    x = rng.uniform(-1.0, 1.0, (blocks * n, 4))
    v = rng.uniform(-1.0, 1.0, (blocks * n, 4))
    evaluated = batch.evaluate(x, v)
    phi, phi2, den = batch.phi(x), batch.phi2(x), batch.denominator(x)
    for j, row in enumerate(x):
        form = forms[j % n]
        for a, b in zip(evaluated, form.evaluate(row[None], v[j:j + 1])):
            assert same_bits(a[j], b[0])
        assert same_bits(phi[j], form.phi(row))
        assert same_bits(phi2[j], form.phi2(row))
        assert same_bits(den[j], form.denominator(row))


def test_stacked_form_shapes_checked():
    with pytest.raises(ValueError, match="stacked forms"):
        AcceleratedFrameForm(np.zeros((3, 4)), np.ones(2))
    with pytest.raises(ConstraintViolationError, match="nonzero"):
        AcceleratedFrameForm(np.zeros((2, 4)), np.array([1.0, 0.0]))


def test_form_tetrad_equals_closed_form_jacobian():
    # one pushforward of the identity gives the closed-form Jacobian
    # lambda (1 + xi phi^T - 2 alpha x_lower^T), xi = x - x^2 alpha, bit for bit,
    # in C order (the layout later matrix products round with)
    rng = np.random.default_rng(6)
    for _ in range(200):
        form = random_form(rng)
        x = safe_event(rng, form)
        J, lam, f = jacobian_tetrad(form, x)
        xi = x - minkowski_dot(x, x) * form.alpha
        closed = form.factor(x) * (np.eye(4) + np.outer(xi, form.phi(x))
                                   - 2.0 * np.outer(form.alpha, ETA @ x))
        np.testing.assert_array_equal(J, closed)
        np.testing.assert_array_equal(f, closed / lam)
        assert J.flags.c_contiguous and f.flags.c_contiguous


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_factor_multiplicative_under_compose(seed):
    rng = np.random.default_rng(seed)
    m1, m2 = suites.random_chain(rng), suites.random_chain(rng)
    x = rng.uniform(-1.0, 1.0, 4)
    try:
        expected = m1.factor(m2.apply(x)) * m2.factor(x)
    except SingularPointError:
        with pytest.raises(SingularPointError):
            compose(m1, m2).factor(x)
        return
    assert compose(m1, m2).factor(x) == pytest.approx(expected, rel=1e-12)


def test_chain_pushforward_rows_match_finite_differences_and_are_conformal():
    rng = np.random.default_rng(12)
    t1, t2 = np.array([0.1, 0.0, -0.2, 0.3]), np.array([0.4, -0.1, 0.2, 0.0])
    m = ConformalMap([Translation(t1), Inversion(1.5), spatial_rotation([1, 2, 0], 0.7),
                      Dilation(0.7), Translation(t2), Inversion(0.8),
                      lorentz_boost([0.2, 0, 0.1])])
    before_second = ConformalMap(m.chain[:5])
    x = rng.uniform(-1.0, 1.0, (400, 4))
    y, z = x + t1, before_second.evaluate(x)[0]
    well_conditioned = ((np.abs(minkowski_dot(y, y)) > 0.3 * np.sum(y * y, axis=1))
                        & (np.abs(minkowski_dot(z, z)) > 0.3 * np.sum(z * z, axis=1)))
    x = x[well_conditioned][:30]
    assert len(x) == 30
    v = rng.uniform(-1.0, 1.0, x.shape)
    _, jv = m.pushforward(x, v)
    lam = m.factor(x)
    for k in range(len(x)):
        J_fd = numdiff.jacobian(m.apply, x[k], step=1e-5)
        np.testing.assert_allclose(jv[k], J_fd @ v[k], rtol=1e-6, atol=1e-6 * abs(lam[k]))
    # the pushed basis vectors of each row are the columns of its J
    n = len(x)
    _, cols = m.pushforward(np.repeat(x, 4, axis=0), np.tile(np.eye(4), (n, 1)))
    J = cols.reshape(n, 4, 4).transpose(0, 2, 1)
    np.testing.assert_allclose(np.einsum("kai,ab,kbj->kij", J, ETA, J) / lam[:, None, None]**2,
                               np.broadcast_to(ETA, (n, 4, 4)), atol=1e-10)


# ---------------------------------------------------------------------------
# interval law

def test_interval_law_inversion_worked_example():
    rep = verify_interval_law(ConformalMap([Inversion(1.0)]),
                              [2.0, 0, 0, 0], [1.0, 0, 0, 0])
    assert rep.lhs == pytest.approx(0.25)
    assert rep.rhs == pytest.approx(0.25)
    assert rep.residual < 1e-14


def test_interval_law_identity_map():
    rng = np.random.default_rng(5)
    m = ConformalMap.identity()
    for _ in range(20):
        x, xp = rng.uniform(-1, 1, (2, 4))
        rep = verify_interval_law(m, x, xp)
        assert rep.lhs == rep.rhs


def test_null_separations_stay_null():
    rng = np.random.default_rng(6)
    for _ in range(20):
        form = random_form(rng)
        x = safe_event(rng, form)
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        xp = x + 0.3 * np.array([1.0, *n])     # null separation
        if abs(form.denominator(xp)) < 0.1:
            continue
        assert abs(interval(x, xp)) < 1e-14
        img_interval = interval(apply_map(form, x), apply_map(form, xp))
        assert abs(img_interval) < 1e-9


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_interval_law_random_forms(seed):
    rng = np.random.default_rng(seed)
    form = random_form(rng)
    x = safe_event(rng, form)
    xp = safe_event(rng, form)
    assert verify_interval_law(form, x, xp).residual < 1e-9


def test_interval_law_report_carries_both_factors():
    rng = np.random.default_rng(12)
    form = random_form(rng)
    x, xp = safe_event(rng, form), safe_event(rng, form)
    rep = verify_interval_law(form, x, xp)
    assert (rep.lam, rep.lam_p) == (form.factor(x), form.factor(xp))


@given(st.integers(0, 2**32 - 1), st.integers(1, 6))
@settings(max_examples=30, deadline=None)
def test_interval_law_pair_rows_equal_pairs_bit_for_bit(seed, n):
    rng = np.random.default_rng(seed)
    forms = [suites.random_form(rng) for _ in range(n)]
    x, xp = (np.array(col) for col in zip(*[suites.random_same_side_pair(rng, f)
                                             for f in forms]))
    chain = suites.random_chain(rng)
    for m, per_pair in ((stacked(forms), forms), (chain, [chain] * n)):
        rows = verify_interval_law(m, x, xp)
        for i in range(n):
            one = verify_interval_law(per_pair[i], x[i], xp[i])
            for name in ("lhs", "rhs", "residual", "lam", "lam_p"):
                assert isinstance(getattr(one, name), float)
                assert same_bits(getattr(rows, name)[i], getattr(one, name))


def test_malformed_pairs_rejected():
    for x, xp in (([0.0, 0, 0], [0.0, 0, 0]), (np.zeros((2, 4)), np.zeros((3, 4))),
                  ([np.nan, 0, 0, 0], [0.0, 0, 0, 0])):
        with pytest.raises(ValueError):
            verify_interval_law(WORKED_FORM, x, xp)


class BentForm:
    """Not conformal: an accelerated-frame form followed by
    y -> y + delta (y.y) n.  It reports the form's own factors, so the
    interval law must fail by O(delta)."""

    def __init__(self, form, n, delta=1e-3):
        self.form, self.n, self.delta = form, np.asarray(n, dtype=float), delta

    def evaluate(self, x, v=None):
        images, _, lam, residual, singular = self.form.evaluate(x)
        bent = images + self.delta * minkowski_dot(images, images)[:, None] * self.n
        return bent, None, lam, residual, singular


def test_interval_law_fails_three_decades_on_non_conformal_map():
    rng = np.random.default_rng(2025)
    n = np.array([0.3, 0.5, -0.2, 0.7])
    n /= np.linalg.norm(n)
    members, bent = [], []
    for _ in range(200):
        form = suites.random_form(rng)
        x = suites.random_event_off_singular(rng, form)
        xp = suites.random_event_off_singular(rng, form)
        members.append(verify_interval_law(form, x, xp).residual)
        bent.append(verify_interval_law(BentForm(form, n), x, xp).residual)
    assert max(members) < 1e-9          # the suite's tolerance
    assert max(bent) >= 1e-6            # three decades above it


# ---------------------------------------------------------------------------
# light rays

def test_light_ray_normalization():
    ray = LightRay([0, 0, 0, 0], [2.0, 2.0, 0, 0], span=(-1, 1))
    assert ray.direction[0] == 1.0
    with pytest.raises(ConstraintViolationError, match="not null"):
        LightRay([0, 0, 0, 0], [1.0, 0.5, 0, 0])


def test_pure_dilation_ray():
    m = ConformalMap([Dilation(2.0)])
    ray = LightRay([0.1, 0.0, 0.2, 0.0], [1.0, 0, 0.6, 0.8], span=(-0.5, 0.5))
    image, rep = transform_light_ray(m, ray)
    np.testing.assert_allclose(image.direction, ray.direction, atol=1e-14)
    assert rep.collinearity_residual < 1e-12
    # dtbar = beta * dt
    np.testing.assert_allclose(image.span, (-1.0, 1.0), atol=1e-12)


def test_image_rays_straight_and_null():
    rng = np.random.default_rng(7)
    for _ in range(10):
        form = random_form(rng)
        origin = safe_event(rng, form)
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        ray = LightRay(origin, np.array([1.0, *n]), span=(-0.5, 0.5))
        try:
            image, rep = transform_light_ray(form, ray)
        except SingularPointError:
            continue
        assert rep.collinearity_residual < 1e-9
        assert abs(minkowski_dot(image.direction, image.direction)) < 1e-9
        assert image.direction[0] == 1.0


def test_collinearity_by_independent_line_fit():
    # fit a line through mapped samples by least squares and check the
    # orthogonal scatter vanishes
    form = AcceleratedFrameForm(np.array([0.3, -0.1, 0.2, 0.0]), 1.2)
    ray = LightRay([0.2, 0.1, -0.1, 0.0], [1.0, 0.6, 0.0, 0.8], span=(-0.4, 0.4))
    pts = np.array([apply_map(form, ray.point(d))
                    for d in np.linspace(-0.4, 0.4, 41)])
    centered = pts - pts.mean(axis=0)
    svals = np.linalg.svd(centered, compute_uv=False)
    assert svals[1] / svals[0] < 1e-9


def test_sign_flip_recorded_once_and_law_holds():
    # ray constructed to cross the singular set exactly once
    form = AcceleratedFrameForm(np.array([0.45, 0.2, 0.0, 0.0]), 1.0)
    origin = np.array([0.9, 0.4, 0.0, 0.0])
    v = np.array([1.0, 1.0, 0.0, 0.0])
    den0 = form.denominator(origin)
    slope = minkowski_dot(form.alpha, v) - form.alpha_sq * minkowski_dot(origin, v)
    dstar = den0 / (2 * slope)
    assert 0.05 < abs(dstar) < 1.4
    ray = LightRay(origin, v, span=(-1.5, 1.5))
    _, rep = transform_light_ray(form, ray)
    assert len(rep.sign_crossings) == 1
    assert rep.sign_crossings[0] == pytest.approx(dstar, abs=1e-9)
    assert rep.sign_law_ok
    assert rep.global_sign == 1.0  # beta > 0


# ---------------------------------------------------------------------------
# Ricci

def log_abs_factor(form):
    """ln|lambda| on event rows, the only input the finite differences see."""
    return lambda r: np.log(np.abs(form.factor(r)))


def test_ricci_vanishes_for_form_factors():
    rng = np.random.default_rng(8)
    for _ in range(10):
        form = random_form(rng)
        x = safe_event(rng, form, min_res=0.3)
        closed = ricci_conformal(form.phi(x), form.phi2(x))
        assert np.max(np.abs(closed)) < 1e-12
        fd = ricci_conformal(*numdiff.gradient_hessian(log_abs_factor(form), x))
        assert np.max(np.abs(fd)) < 1e-7


def test_ricci_constant_factor_zero():
    derivs = numdiff.gradient_hessian(lambda r: np.log(np.abs(np.full(len(r), 2.0))),
                                      [0.1, 0.2, 0.3, 0.4])
    assert np.max(np.abs(ricci_conformal(*derivs))) < 1e-12


def test_ricci_exponential_factor_nonzero():
    # lambda = exp(t): phi = (1,0,0,0), phi2 = 0, hence R = -2 eta + 2 phi phi
    derivs = numdiff.gradient_hessian(lambda r: np.log(np.abs(np.exp(r[:, 0]))),
                                      [0.0, 0.0, 0.0, 0.0])
    R = ricci_conformal(*derivs)
    expected = np.diag([0.0, 2.0, 2.0, 2.0])
    np.testing.assert_allclose(R, expected, atol=1e-6)


def test_factor_field_closed_forms_match_fd():
    rng = np.random.default_rng(9)
    form = random_form(rng)
    x = safe_event(rng, form, min_res=0.3)
    phi_fd, phi2_fd = numdiff.gradient_hessian(log_abs_factor(form), x)
    np.testing.assert_allclose(form.phi(x), phi_fd, atol=1e-9)
    np.testing.assert_allclose(form.phi2(x), phi2_fd, atol=1e-7)
    # phi2 symmetric
    p2 = form.phi2(x)
    np.testing.assert_allclose(p2, p2.T, atol=1e-14)


def stencil_reference(f, x, h):
    """Event-by-event nested stencils: each 5-term sum is ``W @ row``."""
    f1 = lambda y: float(f(y[None])[0])  # noqa: E731
    e = h * np.eye(4)
    g, H = np.zeros(4), np.zeros((4, 4))
    for mu in range(4):
        vals = np.array([f1(x + o * e[mu]) for o in numdiff.OFFSETS])
        g[mu] = numdiff.W_D1 @ (vals - vals[2]) / h
        H[mu, mu] = numdiff.W_D2 @ (vals - vals[2]) / h**2
        for nu in range(mu + 1, 4):
            inner = [numdiff.W_D1 @ np.array([f1(x + o * e[mu] + p * e[nu])
                                              for p in numdiff.OFFSETS]) / h
                     for o in numdiff.OFFSETS]
            H[mu, nu] = H[nu, mu] = numdiff.W_D1 @ np.array(inner) / h
    return g, H


def test_gradient_hessian_one_call_rounds_as_event_by_event_stencils():
    rng = np.random.default_rng(10)
    for k in range(30):
        form = random_form(rng)
        x = safe_event(rng, form, min_res=0.3)
        h = (1e-3, 2e-3, 5e-4)[k % 3]
        shapes = []

        def f(rows, form=form):
            shapes.append(rows.shape)
            return np.log(np.abs(form.factor(rows)))

        g, H = numdiff.gradient_hessian(f, x, h)
        assert shapes == [(170, 4)]
        g_ref, H_ref = stencil_reference(log_abs_factor(form), x, h)
        assert np.array_equal(g, g_ref) and np.array_equal(H, H_ref)


def test_stencil_event_on_singular_set_raises():
    # the worked form is singular at t = 2 on the time axis; the stencil
    # event x + h e_0 lands there exactly, x itself does not
    form = WORKED_FORM
    step = 2.0 ** -10
    x = np.array([2.0 - step, 0.0, 0.0, 0.0])
    assert form.denominator(x) > 0.0
    assert form.denominator(x + np.array([step, 0, 0, 0])) == 0.0
    with pytest.raises(SingularPointError) as info:
        numdiff.gradient_hessian(log_abs_factor(form), x, step)
    assert info.value.residual == 0.0


# ---------------------------------------------------------------------------
# group structure

def test_compose_applies_right_map_first():
    m1 = ConformalMap([Dilation(2.0)])
    m2 = ConformalMap([Translation(np.array([1.0, 0, 0, 0]))])
    x = np.array([0.0, 0.0, 0.0, 0.0])
    y = apply_map(compose(m1, m2), x)
    np.testing.assert_allclose(y, apply_map(m1, apply_map(m2, x)), atol=0)
    np.testing.assert_allclose(y, [2.0, 0, 0, 0], atol=0)


def test_compose_invert_identity_on_random_events():
    rng = np.random.default_rng(10)
    m = ConformalMap([Inversion(1.3), Translation(np.array([0.2, -0.1, 0.0, 0.3])),
                      Dilation(0.8), lorentz_boost([0.1, 0.2, 0.0])])
    round_trip = compose(m.inverse(), m)
    checked = 0
    for _ in range(1000):
        x = rng.uniform(-1, 1, 4)
        try:
            y = apply_map(round_trip, x)
        except SingularPointError:
            continue
        checked += 1
        assert np.max(np.abs(y - x)) < 1e-10
    assert checked > 800


def test_double_inversion_is_identity():
    rng = np.random.default_rng(11)
    m = ConformalMap([Inversion(1.7), Inversion(1.7)])
    for _ in range(50):
        x = rng.uniform(-1, 1, 4)
        if abs(minkowski_dot(x, x)) < 0.05:
            continue
        np.testing.assert_allclose(apply_map(m, x), x, atol=1e-12)


def test_translation_inverse():
    b = np.array([0.3, 1.0, -2.0, 0.1])
    m = compose(ConformalMap([Translation(b)]), ConformalMap([Translation(-b)]))
    x = np.array([5.0, 1.0, 2.0, 3.0])
    np.testing.assert_allclose(apply_map(m, x), x, atol=0)


def test_form_closed_inverse():
    rng = np.random.default_rng(12)
    for _ in range(20):
        form = random_form(rng)
        x = safe_event(rng, form)
        y = apply_map(form.inverse(), apply_map(form, x))
        np.testing.assert_allclose(y, x, atol=1e-10)


def test_canonical_extraction():
    # inversion(b1) -> translation(t) -> inversion(b2) is the form (t / b1, b2 / b1)
    t = np.array([0.4, 0, 0.2, 0])
    m = ConformalMap([Inversion(2.0), Translation(t), Inversion(1.5)])
    form = AcceleratedFrameForm(t / 2.0, 1.5 / 2.0)
    rng = np.random.default_rng(13)
    checked = 0
    for _ in range(10):
        x = rng.uniform(-1, 1, 4)
        try:
            a = apply_map(m, x)
        except SingularPointError:
            continue
        checked += 1
        np.testing.assert_allclose(a, apply_map(form, x), atol=1e-10)
    assert checked > 5


def test_lorentz_validation():
    with pytest.raises(ConstraintViolationError, match="not Lorentz"):
        from confvac import LorentzTransform
        LorentzTransform(np.diag([1.0, 1.0, 1.0, 2.0]))
    R = spatial_rotation([0, 0, 1], 0.7)
    np.testing.assert_allclose(R.matrix.T @ ETA @ R.matrix, ETA, atol=1e-12)


# ---------------------------------------------------------------------------
# serialization

@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_form_json_round_trip(seed):
    rng = np.random.default_rng(seed)
    form = random_form(rng)
    loaded = map_from_dict(json.loads(json.dumps(map_to_dict(form))))
    np.testing.assert_allclose(loaded.alpha, form.alpha, atol=0)
    assert loaded.beta == form.beta


def test_chain_json_round_trip():
    m = ConformalMap([Inversion(1.25), Translation(np.array([0.1, 0.2, 0.3, 0.4])),
                      Dilation(-0.5), lorentz_boost([0.3, 0.0, 0.0])])
    parsed = json.loads(json.dumps(map_to_dict(m)))
    assert parsed["chain"][0] == {"kind": "inversion", "beta": 1.25}
    loaded = map_from_dict(parsed)
    x = np.array([0.3, 0.1, -0.2, 0.4])
    np.testing.assert_allclose(apply_map(loaded, x), apply_map(m, x), atol=1e-15)
