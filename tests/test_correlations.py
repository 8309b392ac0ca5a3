import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from confvac import (AcceleratedFrameForm, BoundaryError, ConvergenceError,
                     InternalConsistencyError, PoleError, SingularPointError,
                     em_potential_correlation, field_tensor_correlation, interval,
                     minkowski_field_tensor_correlation, momentum_space_oracle,
                     scalar_commutator_spectrum, scalar_vacuum_correlation,
                     tetrad_contraction, thermal_spectra,
                     transformed_em_correlation, vacuum_spectra,
                     verify_em_invariance, verify_scalar_invariance)
from confvac.correlations import (LAST_TERM_MODES, _fd_field_tensor, _formula_matrix,
                                  _kernel_rows, lorentzian)

finite4 = st.lists(st.floats(-3, 3), min_size=4, max_size=4)


def random_form(rng, alpha_max=0.5):
    while True:
        a = rng.uniform(-alpha_max, alpha_max, 4)
        if np.linalg.norm(a) <= alpha_max:
            return AcceleratedFrameForm(a, rng.uniform(0.5, 2.0))


def same_side_pair(rng, form, min_interval=0.05):
    while True:
        x, xp = rng.uniform(-1, 1, (2, 4))
        if abs(form.denominator(x)) < 0.1 or abs(form.denominator(xp)) < 0.1:
            continue
        if form.denominator(x) * form.denominator(xp) <= 0:
            continue
        d = x - xp
        if abs(d[0] ** 2 - d[1] ** 2 - d[2] ** 2 - d[3] ** 2) < min_interval:
            continue
        return x, xp


# ---------------------------------------------------------------------------
# scalar kernel

def test_kernel_spacelike_real_limit():
    # separation (0,1,0,0): interval -1, no time difference
    val = scalar_vacuum_correlation([0, 1, 0, 0], [0, 0, 0, 0], 1e-12)
    assert val == pytest.approx(-1.0)
    assert val.imag == 0.0


def test_kernel_timelike_example():
    val = scalar_vacuum_correlation([2, 0, 0, 0], [0, 0, 0, 0], 0.01)
    assert val == pytest.approx(1.0 / (4.0 - 0.02j))


def test_kernel_coincident_point_raises_pole_error():
    x = [0.3, 0.1, 0.0, 0.0]
    with pytest.raises(PoleError, match="pole"):
        scalar_vacuum_correlation(x, x, 0.01)


def bits(c):
    """The raw bits of complex values, so that equality is bit for bit."""
    return np.asarray(c, dtype=complex).view(np.uint64)


@st.composite
def kernel_pair(draw):
    """(x, x', near_null): generic pairs, and near-null pairs whose
    |(x - x')^2| < eps |t - t'| for every eps >= 1e-3, where the quotient
    divides through by the imaginary part."""
    x = np.array(draw(finite4))
    if draw(st.booleans()):
        return x, np.array(draw(finite4)), False
    dt = draw(st.floats(0.01, 2.0)) * draw(st.sampled_from([-1.0, 1.0]))
    n = np.array(draw(st.lists(st.floats(-1, 1), min_size=3, max_size=3)))
    assume(np.linalg.norm(n) > 0.1)
    stretch = 1.0 + draw(st.floats(-1e-4, 1e-4))
    return x, x - np.array([dt, *(dt * stretch * n / np.linalg.norm(n))]), True


@given(st.lists(kernel_pair(), min_size=1, max_size=12), st.floats(1e-3, 1e-1))
@settings(max_examples=100, deadline=None)
def test_kernel_rows_equal_pairs_bit_for_bit(pairs, eps):
    # every row, and every rung of a regulator ladder, gives the bits of
    # CPython's complex quotient 1.0 / ((x-x')^2 - i eps (t-t')) for its pair
    x = np.array([p[0] for p in pairs])
    xp = np.array([p[1] for p in pairs])
    assume(not np.any(np.all(x == xp, axis=1)))
    for a, b, near_null in pairs:
        assert not near_null or abs(interval(a, b)) < eps * abs(a[0] - b[0])
    ladder = eps * 0.5 ** np.arange(3)
    by_rung = _kernel_rows(x, xp, ladder)
    for k, e in enumerate(ladder.tolist()):
        quotient = [1.0 / (interval(a, b) - 1j * e * (a[0] - b[0])) for a, b in zip(x, xp)]
        np.testing.assert_array_equal(bits(by_rung[k]), bits(quotient))
    one = [scalar_vacuum_correlation(a, b, eps) for a, b in zip(x, xp)]
    assert all(type(c) is complex for c in one)
    np.testing.assert_array_equal(bits(_kernel_rows(x, xp, eps)), bits(one))


def test_kernel_rows_pole_error_names_first_zero_row():
    x = np.array([[0.5, 1, 0, 0], [0.3, 0.1, 0, 0], [0.9, 0, 0, 0], [0.2, 0.2, 0, 0]])
    xp = np.array([[0, 0, 0, 0], [0.3, 0.1, 0, 0], [0.9, 0, 0, 0], [0, 0, 0, 0]])
    for eps in (1e-2, np.array([1e-2, 5e-3])):
        with pytest.raises(PoleError, match=re.escape("x = [0.3, 0.1, 0.0, 0.0]")):
            _kernel_rows(x, xp, eps)


@given(finite4, finite4, st.floats(1e-6, 1e-1))
@settings(max_examples=60, deadline=None)
def test_kernel_hermiticity(x, xp, eps):
    try:
        a = scalar_vacuum_correlation(x, xp, eps)
    except PoleError:
        with pytest.raises(PoleError):
            scalar_vacuum_correlation(xp, x, eps)
        return
    b = scalar_vacuum_correlation(xp, x, eps)
    assert a == pytest.approx(b.conjugate(), rel=1e-12)


@given(st.floats(0.2, 3.0), finite4, finite4)
@settings(max_examples=60, deadline=None)
def test_kernel_homogeneity_degree_minus_two(s, x, xp):
    # scaling events and the regulator together: c(sx, sx'; s eps) = c/s^2
    eps = 1e-3
    try:
        a = scalar_vacuum_correlation(np.multiply(s, x), np.multiply(s, xp), s * eps)
        b = scalar_vacuum_correlation(x, xp, eps)
    except PoleError:
        return
    assert a == pytest.approx(b / s**2, rel=1e-9)


def test_kernel_split_imag_linear_in_eps_off_cone():
    x, xp = [0.7, 1.5, 0, 0], [0, 0, 0, 0]
    c1 = scalar_vacuum_correlation(x, xp, 1e-4)
    c2 = scalar_vacuum_correlation(x, xp, 5e-5)
    assert c2.imag == pytest.approx(0.5 * c1.imag, rel=1e-3)
    # real part approaches the principal value 1/interval
    assert c1.real == pytest.approx(1.0 / (0.49 - 2.25), rel=1e-6)


def test_kernel_split_delta_identity_against_bump():
    # integrating Im c across the cone against a smooth bump reproduces
    # pi sgn(dt) (bump at the cone); fixed dt = 1, vary the interval r
    eps = 5e-4
    sigma = 0.15
    bump = lambda r: math.exp(-(r / sigma) ** 2)

    def im_c(r):
        return (eps * 1.0) / (r * r + eps * eps)   # Im of 1/(r - i eps), dt=1

    val, _ = quad(lambda r: im_c(r) * bump(r), -0.6, 0.6, points=[0.0], limit=400)
    assert val == pytest.approx(math.pi * bump(0.0), rel=1e-2)


def test_lorentzian_is_normalized():
    val, _ = quad(lambda s: lorentzian(s, 0.05), -np.inf, np.inf)
    assert val == pytest.approx(1.0, rel=1e-8)


# ---------------------------------------------------------------------------
# scalar invariance

def test_scalar_invariance_identity_map():
    form = AcceleratedFrameForm(np.zeros(4), 1.0)
    rep = verify_scalar_invariance(form, [0.3, 0.8, 0, 0], [0, 0, 0, 0], 1e-6)
    assert rep.residual < 1e-14


def test_scalar_invariance_inversion_worked_example():
    # x = (2,0,0,0), x' = (1,0,0,0) through the pure inversion written as the
    # canonical form with alpha = 0, beta = 1 is the identity; use instead the
    # form equivalent of the inversion worked numbers: lambda lambda' = 1/4,
    # image interval = 1/4, so both sides equal 1
    form = AcceleratedFrameForm(np.array([0.5, 0.0, 0.0, 0.0]), 1.0)
    x = np.array([1.0, 0.3, 0.0, 0.0])
    xp = np.array([0.2, -0.1, 0.0, 0.0])
    rep = verify_scalar_invariance(form, x, xp, 1e-7)
    assert rep.same_side
    assert rep.residual < 1e-8


def test_scalar_invariance_random_sweep():
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(100):
        form = random_form(rng)
        x, xp = same_side_pair(rng, form)
        rep = verify_scalar_invariance(form, x, xp, 1e-6)
        worst = max(worst, rep.residual)
    assert worst < 1e-8


# ---------------------------------------------------------------------------
# EM potential correlations

def test_em_potential_structure():
    x, xp = [0.5, 1.2, 0, 0], [0, 0, 0, 0]
    eps = 1e-3
    c = scalar_vacuum_correlation(x, xp, eps)
    mat = em_potential_correlation(x, xp, eps).matrix
    off = mat - np.diag(np.diag(mat))
    assert np.all(off == 0)
    assert mat[0, 0] == pytest.approx((1.0 / math.pi) * c)
    assert mat[1, 1] == pytest.approx(-(1.0 / math.pi) * c)
    mat_pi = em_potential_correlation(x, xp, eps, hbar=math.pi).matrix
    np.testing.assert_allclose(mat_pi, np.diag([1.0, -1, -1, -1]) * c, rtol=1e-12)


def test_transformed_em_identity_map_reduces_to_minkowski():
    form = AcceleratedFrameForm(np.zeros(4), 1.0)
    x, xp = [0.4, 1.0, 0.2, 0], [0, 0, 0, 0]
    got = transformed_em_correlation(form, x, xp, 1e-3).matrix
    want = em_potential_correlation(x, xp, 1e-3).matrix
    np.testing.assert_allclose(got, want, atol=1e-15)


def test_transformed_em_first_term_is_minkowski_form():
    rng = np.random.default_rng(32)
    form = random_form(rng)
    x, xp = same_side_pair(rng, form)
    eps = 1e-4
    full = transformed_em_correlation(form, x, xp, eps, check=False).matrix
    ablated = transformed_em_correlation(form, x, xp, eps, last_term="omit",
                                         check=False).matrix
    c = scalar_vacuum_correlation(x, xp, eps)
    phx, phy = form.phi(x), form.phi(xp)
    sig = np.array([1.0, -1, -1, -1])
    xl, yl = sig * np.asarray(x, float), sig * np.asarray(xp, float)
    corrections = (np.outer(phx, xl - yl) + np.outer(yl - xl, phy)) * c / math.pi
    leading = ablated - corrections
    np.testing.assert_allclose(leading, np.diag(sig) * c / math.pi, atol=1e-12)
    # the exact last term equals -(1/2pi) phi phi' (x'-x)^2 c
    r = (x[0] - xp[0]) ** 2 - sum((x[i] - xp[i]) ** 2 for i in (1, 2, 3))
    np.testing.assert_allclose(full - ablated,
                               -np.outer(phx, phy) * (r * c) / (2 * math.pi),
                               atol=1e-12)


def test_transformed_em_routes_agree():
    rng = np.random.default_rng(33)
    for _ in range(10):
        form = random_form(rng)
        x, xp = same_side_pair(rng, form)
        # internal ladder cross-check at 1e-9 must not raise
        transformed_em_correlation(form, x, xp, 1e-6, check=True, check_tol=1e-9)


def test_transformed_em_ablation_breaks_transport_consistency():
    rng = np.random.default_rng(34)
    form = random_form(rng)
    x, xp = same_side_pair(rng, form, min_interval=0.3)
    with pytest.raises(InternalConsistencyError):
        transformed_em_correlation(form, x, xp, 1e-6, last_term="omit",
                                   check=True, check_tol=1e-6)


# ---------------------------------------------------------------------------
# tetrad contraction identity

def test_tetrad_contraction_coincident_points():
    rng = np.random.default_rng(35)
    form = random_form(rng)
    x, _ = same_side_pair(rng, form)
    rep = tetrad_contraction(form, x, x)
    np.testing.assert_allclose(rep.rhs, np.diag([1.0, -1, -1, -1]), atol=1e-12)
    assert rep.residual < 1e-12


def test_tetrad_contraction_zero_alpha():
    form = AcceleratedFrameForm(np.zeros(4), 1.7)
    rep = tetrad_contraction(form, [0.3, 0.2, 0, 0], [0.1, -0.4, 0.2, 0])
    np.testing.assert_allclose(rep.lhs, np.diag([1.0, -1, -1, -1]), atol=1e-14)
    assert rep.residual < 1e-14


def test_tetrad_contraction_random():
    rng = np.random.default_rng(36)
    worst = 0.0
    for _ in range(200):
        form = random_form(rng)
        x, xp = same_side_pair(rng, form)
        worst = max(worst, tetrad_contraction(form, x, xp).residual)
    assert worst < 1e-10


def test_tetrad_contraction_singular_event_named_once():
    # the pair is evaluated as one batch; the error names the event of the
    # pair that lies on the singular set, by its index in the pair
    form = AcceleratedFrameForm(np.array([0.5, 0.0, 0.0, 0.0]), 1.0)  # singular at t = 2
    regular, singular = np.array([1.0, 0, 0, 0]), np.array([2.0, 0, 0, 0])
    for pair, index in (((regular, singular), 1), ((singular, regular), 0)):
        with pytest.raises(SingularPointError) as info:
            tetrad_contraction(form, *pair)
        assert info.value.index == index
        np.testing.assert_array_equal(info.value.point, singular)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@given(st.integers(0, 2**32 - 1), st.integers(1, 6))
@settings(max_examples=30, deadline=None)
def test_pair_rows_equal_pairs_bit_for_bit(seed, n):
    # n stacked forms on pair rows: pair i by form i, with the bits of its own call
    rng = np.random.default_rng(seed)
    forms = [random_form(rng) for _ in range(n)]
    x, xp = (np.array(col) for col in zip(*[same_side_pair(rng, f) for f in forms]))
    form = AcceleratedFrameForm(np.array([f.alpha for f in forms]),
                                np.array([f.beta for f in forms]))
    tet = tetrad_contraction(form, x, xp)
    sca = verify_scalar_invariance(form, x, xp, 1e-6)
    for i, f in enumerate(forms):
        one = tetrad_contraction(f, x[i], xp[i])
        assert isinstance(one.residual, float)
        for name in ("lhs", "rhs", "residual"):
            assert same_bits(getattr(tet, name)[i], getattr(one, name))
        one = verify_scalar_invariance(f, x[i], xp[i], 1e-6)
        for name in ("lhs", "rhs", "residual", "same_side"):
            assert same_bits(getattr(sca, name)[i], getattr(one, name))
        # the moduli round as abs(complex) does
        assert one.residual == abs(one.lhs - one.rhs) / max(abs(one.rhs), 1e-300)


# ---------------------------------------------------------------------------
# field-tensor correlations

def _sympy_mixed_derivative_oracle():
    """Independent symbolic oracle for d_mu d'_rho of the Feynman-gauge
    correlator entry (hbar/pi) eta_{nu sig} c(x, x'; eps)."""
    import sympy as sp

    xs = sp.symbols("a0 a1 a2 a3")
    ys = sp.symbols("b0 b1 b2 b3")
    eps = sp.Symbol("ep", positive=True)
    g = [1, -1, -1, -1]
    r = sum(g[i] * (xs[i] - ys[i]) ** 2 for i in range(4))
    c = 1 / (r - sp.I * eps * (xs[0] - ys[0]))
    out = {}
    for mu in range(4):
        for rho in range(4):
            expr = sp.diff(sp.diff(c, xs[mu]), ys[rho])
            out[(mu, rho)] = sp.lambdify(list(xs) + list(ys) + [eps], expr, "numpy")
    return out


def test_minkowski_field_tensor_closed_form_against_sympy():
    oracle = _sympy_mixed_derivative_oracle()
    rng = np.random.default_rng(37)
    x, xp = rng.uniform(-1, 1, (2, 4))
    eps = 1e-2
    K = minkowski_field_tensor_correlation(x, xp, eps).values
    eta = np.diag([1.0, -1, -1, -1])
    args = list(x) + list(xp) + [eps]
    Kmix = np.array([[oracle[(mu, rho)](*args) for rho in range(4)]
                     for mu in range(4)])
    expected = np.zeros((4, 4, 4, 4), complex)
    for mu in range(4):
        for nu in range(4):
            for rho in range(4):
                for sig in range(4):
                    expected[mu, nu, rho, sig] = (1.0 / math.pi) * (
                        eta[nu, sig] * Kmix[mu, rho] - eta[mu, sig] * Kmix[nu, rho]
                        - eta[nu, rho] * Kmix[mu, sig] + eta[mu, rho] * Kmix[nu, sig])
    np.testing.assert_allclose(K, expected, atol=1e-10)


def _fd_per_pair(rule, x, xp, h):
    """The cross stencils of the field tensor one pair at a time: 64 calls of
    a single-pair rule, summed (+,+) - (+,-) - (-,+) + (-,-)."""
    basis = np.eye(4)
    mixed = np.empty((4, 4, 4, 4), dtype=complex)
    for mu in range(4):
        for rho in range(4):
            em, er = h * basis[mu], h * basis[rho]
            mixed[mu, rho] = (rule(x + em, xp + er) - rule(x + em, xp - er)
                              - rule(x - em, xp + er) + rule(x - em, xp - er)) / (4.0 * h * h)
    A = mixed.transpose(0, 2, 1, 3)
    return A - A.transpose(1, 0, 2, 3) - A.transpose(0, 1, 3, 2) + A.transpose(1, 0, 3, 2)


@pytest.mark.parametrize("last_term", LAST_TERM_MODES)
def test_fd_field_tensor_batch_equals_per_pair_stencils(last_term):
    # one call on all 64 pairs and 3 ladder rungs gives the bits of the
    # per-pair stencil at each rung
    rng = np.random.default_rng(43)
    ladder = 1e-2 * 0.5 ** np.arange(3)
    for _ in range(4):
        form = random_form(rng)
        x, xp = same_side_pair(rng, form, min_interval=0.4)
        batched = _fd_field_tensor(
            lambda a, b: _formula_matrix(form, a, b, ladder, 1.0, last_term), x, xp, 1e-4)
        assert batched.shape == (3, 4, 4, 4, 4)
        for k, eps in enumerate(ladder.tolist()):
            ref = _fd_per_pair(
                lambda a, b: _formula_matrix(form, a[None], b[None], eps, 1.0, last_term)[0],
                x, xp, 1e-4)
            np.testing.assert_array_equal(bits(batched[k]), bits(ref))


def test_field_tensor_antisymmetry_exact():
    rng = np.random.default_rng(38)
    x, xp = rng.uniform(-1, 1, (2, 4))
    eps = 1e-2
    rule = lambda a, b: em_potential_correlation(a, b, eps).matrix
    K = field_tensor_correlation(rule, x, xp, h=1e-4)
    assert K.antisymmetry_residual() == 0.0


def test_field_tensor_fd_matches_analytic_oracle():
    rng = np.random.default_rng(39)
    worst = 0.0
    for _ in range(5):
        x = rng.uniform(-1, 1, 4)
        xp = rng.uniform(-1, 1, 4)
        d = x - xp
        if abs(d[0] ** 2 - d[1] ** 2 - d[2] ** 2 - d[3] ** 2) < 0.3:
            continue
        eps = 1e-2
        rule = lambda a, b: em_potential_correlation(a, b, eps).matrix
        K = field_tensor_correlation(rule, x, xp, h=1e-4).values
        K0 = minkowski_field_tensor_correlation(x, xp, eps).values
        worst = max(worst, np.max(np.abs(K - K0)) / np.max(np.abs(K0)))
    assert worst < 1e-5


def test_field_tensor_step_gate():
    x, xp = np.array([0.5, 1.0, 0, 0.0]), np.zeros(4)
    eps = 1e-2
    rule = lambda a, b: em_potential_correlation(a, b, eps).matrix
    # acceptable step passes the Richardson gate
    K = field_tensor_correlation(rule, x, xp, h=1e-4, defect_tol=1e-4)
    assert K.richardson_defect < 1e-4
    # absurdly large step trips it
    with pytest.raises(InternalConsistencyError, match="too large"):
        field_tensor_correlation(rule, x, xp, h=0.3, defect_tol=1e-4)


def test_gauge_corrections_drop_from_field_tensor():
    # the pure-gauge corrections of the transformed correlator contribute
    # below 1e-5 of the leading term in the field-tensor projection; their
    # contribution is O(eps), so the regulator must sit well below the target
    rng = np.random.default_rng(40)
    form = random_form(rng)
    x, xp = same_side_pair(rng, form, min_interval=0.4)
    eps, h = 1e-6, 1e-4
    full_rule = lambda a, b: transformed_em_correlation(
        form, a, b, eps, check=False).matrix
    lead_rule = lambda a, b: em_potential_correlation(a, b, eps).matrix
    Kf = field_tensor_correlation(full_rule, x, xp, h=h).values
    Kl = field_tensor_correlation(lead_rule, x, xp, h=h).values
    assert np.max(np.abs(Kf - Kl)) / np.max(np.abs(Kl)) < 1e-5


def test_verify_em_invariance_identity_map():
    form = AcceleratedFrameForm(np.zeros(4), 1.0)
    rep = verify_em_invariance(form, [0.3, 1.1, 0, 0], [0, 0, 0, 0])
    assert rep.field_residual < 5e-7     # finite-difference noise only
    assert rep.transport_residual < 1e-12


def test_verify_em_invariance_random_and_ablated():
    rng = np.random.default_rng(41)
    form = random_form(rng)
    while True:
        x, xp = same_side_pair(rng, form, min_interval=0.4)
        d = x - xp
        if d[0] ** 2 - d[1] ** 2 - d[2] ** 2 - d[3] ** 2 < -0.4:
            break
    rep = verify_em_invariance(form, x, xp, epsilon=1e-2, h=1e-4)
    assert rep.field_residual < 1e-4
    assert rep.transport_residual < 1e-4
    ablated = verify_em_invariance(form, x, xp, epsilon=1e-2, h=1e-4,
                                   last_term="omit")
    assert ablated.transport_residual > 1e-2  # broken by |phi|^2 r / 2


# (alpha, beta, x, x', last_term, field_residual, transport_residual), the
# residuals recorded (numpy 2.4, x86-64) before the field tensor became one
# batched pass: a reordering of its arithmetic moves their last digits
EM_PINNED = [
    ((0.1, -0.2, 0.05, 0.3), 1.3, (0.2, 0.9, -0.1, 0.3), (-0.1, -0.2, 0.3, -0.4),
     "exact", 3.772208483923933e-08, 2.4528461988216436e-10),
    ((-0.3, 0.1, 0.25, -0.1), 0.7, (0.5, -0.4, 0.6, 0.1), (0.3, 0.5, -0.2, -0.3),
     "exact", 4.1719948103203536e-08, 4.493829540806137e-10),
    ((0.2, 0.3, -0.1, 0.1), 1.8, (-0.3, 0.1, 0.7, -0.5), (0.1, -0.6, -0.2, 0.4),
     "omit", 6.050492029929843e-08, 0.3261099662404137),
]


@pytest.mark.parametrize("alpha, beta, x, xp, last_term, field, transport", EM_PINNED)
def test_verify_em_invariance_pinned_residuals(alpha, beta, x, xp, last_term, field,
                                               transport):
    rep = verify_em_invariance(AcceleratedFrameForm(np.array(alpha), beta), x, xp,
                               epsilon=1e-2, h=1e-4, last_term=last_term)
    assert (repr(rep.field_residual), repr(rep.transport_residual)) == (
        repr(field), repr(transport))


# ---------------------------------------------------------------------------
# fluctuation-dissipation spectra

def test_thermal_consistency_identity():
    pt = thermal_spectra(0.7, 1.3, 0.5)
    assert pt.C == pytest.approx(pt.hbar * (pt.sigma + pt.xi), rel=1e-12)


def test_thermal_low_temperature_asymptote():
    pt = thermal_spectra(0.7, 1.0, 1e-3)
    assert pt.sigma == pytest.approx(0.7, rel=1e-12)
    assert pt.C == pytest.approx(1.4, rel=1e-12)


def test_thermal_classical_asymptote():
    # hbar omega << T: sigma ~ (2T / hbar omega) xi
    pt = thermal_spectra(0.5, 1e-4, 1.0)
    assert pt.sigma == pytest.approx(2.0 * 1.0 / 1e-4 * 0.5, rel=1e-7)


def test_thermal_negative_frequency_zero_temperature_limit():
    pt = thermal_spectra(0.4, -1.0, 1e-4)
    assert abs(pt.C) < 1e-300


def test_thermal_routes_to_vacuum_and_pole():
    pt = thermal_spectra(0.4, 2.0, 0.0)
    assert pt.temperature == 0.0 and pt.C == pytest.approx(0.8)
    with pytest.raises(PoleError):
        thermal_spectra(0.4, 0.0, 1.0)


def test_vacuum_spectra_examples():
    pos = vacuum_spectra(0.7, 1.5)
    assert pos.C == pytest.approx(1.4) and pos.sigma == pytest.approx(0.7)
    neg = vacuum_spectra(0.7, -1.5)
    assert neg.C == 0.0 and neg.sigma == pytest.approx(-0.7)
    zero = vacuum_spectra(0.0, 2.0)
    assert zero.C == 0.0 and zero.sigma == 0.0
    with pytest.raises(BoundaryError):
        vacuum_spectra(0.7, 0.0)


def test_thermal_converges_monotonically_to_vacuum():
    for hw in (1.0, -1.0, 2.0, -2.0):
        vac = vacuum_spectra(0.9, hw)
        devs = [abs(thermal_spectra(0.9, hw, 10.0 ** (-k)).C - vac.C)
                for k in range(1, 7)]
        assert all(devs[i + 1] <= devs[i] + 1e-15 for i in range(len(devs) - 1))
        assert devs[-1] < 1e-12


def test_commutator_spectrum():
    width = 0.02
    on_shell = scalar_commutator_spectrum([1.0, 1.0, 0, 0], width)
    assert on_shell == pytest.approx(1.0 / width)
    flipped = scalar_commutator_spectrum([-1.0, 1.0, 0, 0], width)
    assert flipped == pytest.approx(-1.0 / width)
    far = scalar_commutator_spectrum([5.0, 0.1, 0, 0], width)
    assert abs(far) < 1e-2


# ---------------------------------------------------------------------------
# momentum-space oracle

def test_momentum_oracle_proportional_to_kernel():
    eps = 0.05
    ratios = []
    for x in ([0.3, 1.2, 0, 0], [0.1, 1.5, 0.3, 0], [1.4, 0.2, 0, 0],
              [-1.2, 0.0, 0.0, 0.3], [0.0, 1.0, 0.5, 0.5]):
        oracle = momentum_space_oracle(np.asarray(x, float), np.zeros(4), eps)
        ratios.append(oracle / scalar_vacuum_correlation(x, np.zeros(4), 2 * eps))
    fitted = np.mean(ratios)
    assert np.max(np.abs(np.asarray(ratios) - fitted)) / abs(fitted) < 1e-2
    # the fitted constant lands near -1/(2 pi^2) in these units
    assert fitted.real == pytest.approx(-1.0 / (2 * math.pi**2), rel=2e-2)


def test_momentum_oracle_spacelike_imaginary_part_vanishes():
    x, xp = np.array([0.2, 1.5, 0, 0.0]), np.zeros(4)
    vals = [momentum_space_oracle(x, xp, e) for e in (0.1, 0.05, 0.025)]
    imags = [abs(v.imag) for v in vals]
    assert imags[2] < imags[1] < imags[0]
    assert imags[2] < abs(vals[2].real) * 5e-2


def test_momentum_oracle_scaling():
    # doubling all separations quarters the kernel
    x = np.array([0.3, 1.1, 0, 0.0])
    a = momentum_space_oracle(x, np.zeros(4), 0.04)
    b = momentum_space_oracle(2 * x, np.zeros(4), 0.08)
    assert b == pytest.approx(a / 4.0, rel=1e-6)


def test_momentum_oracle_convergence_error():
    with pytest.raises(ConvergenceError):
        momentum_space_oracle(np.array([0.3, 1.2, 0, 0.0]), np.zeros(4), 0.05,
                              cutoff=20.0)
