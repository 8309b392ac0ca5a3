"""Vacuum and thermal two-point functions of massless fields.

The regulated scalar vacuum kernel is

    c(x, x'; eps) = 1 / ((x - x')^2 - i eps (t - t')),    eps -> 0+,

whose real part is the regulated principal value (anticommutator) and whose
imaginary part is pi sgn(t - t') times a normalized Lorentzian standing in
for delta((x - x')^2) (commutator).  In Feynman gauge the photon potential
correlator is (hbar/pi) eta_{mu nu} c.

Under an accelerated-frame map the scalar kernel obeys
c_image(xbar, xbar') lambda(x) lambda(x') = c(x, x'); the transported
potential correlator picks up correction terms proportional to
phi = grad ln(lambda) which are pure gauge: they drop from field-tensor
correlations, which is the invariance statement verified here numerically.

Finite-eps caution: the exact laws are distributional.  All invariance
checks extrapolate eps -> 0 (linearly or quadratically on an
(eps, eps/2, eps/4) ladder); finite-eps kernels are not exactly covariant.

Evaluation is batch-first (a single pair is a batch of one): the
finite-difference field tensor is one pass over its 64 stencil pairs and
every rung of the regulator ladder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .conformal import AcceleratedFrameForm, _checked, _frames, _pair_rows
from .errors import (BoundaryError, ConvergenceError, InternalConsistencyError,
                     PoleError)
from .minkowski import ETA, as_event, interval, lower_index, minkowski_dot

LAST_TERM_MODES = ("exact", "limit", "omit")
LADDER = np.array([1.0, 0.5, 0.25])   # regulators eps * LADDER of the invariance checks


# ---------------------------------------------------------------------------
# scalar kernel

def _kernel_rows(x, xp, epsilon):
    """Regulated kernel on pair rows x, x' (n, 4): (n,) complex, or (k, n)
    for k regulators; PoleError names the first pair on a pole.  The quotient
    is CPython's complex division (Smith's method) in real arithmetic, so a
    pair gets the bits of ``1.0 / complex``: numpy's complex divide multiplies
    by a reciprocal, a last-bit change the 1/(4h^2) of the field-tensor
    stencil amplifies.  ``0.0 -`` and ``+ 0.0`` give zeros CPython's signs."""
    d = x - xp
    re = minkowski_dot(d, d)
    im = 0.0 - np.multiply.outer(epsilon, d[:, 0])
    pole = (re == 0) & (im == 0)
    if pole.any():
        i = np.unravel_index(np.argmax(pole), pole.shape)[-1]
        raise PoleError(f"scalar kernel pole: (x - x')^2 - i eps (t - t') = 0 "
                        f"at x = {x[i].tolist()}, x' = {xp[i].tolist()}")
    by_re = np.abs(re) >= np.abs(im)
    big = np.where(by_re, re, im)
    small = np.where(by_re, im, re)
    ratio = small / big
    denom = big + small * ratio
    c = np.empty(ratio.shape, dtype=complex)
    c.real = np.where(by_re, 1.0, ratio + 0.0) / denom
    c.imag = np.where(by_re, 0.0 - ratio, -1.0) / denom
    return c


def scalar_vacuum_correlation(x, xp, epsilon) -> complex:
    """Regulated vacuum kernel 1 / ((x-x')^2 - i eps (t-t'))."""
    return complex(_kernel_rows(as_event(x)[None], as_event(xp)[None], epsilon)[0])


def lorentzian(s, width) -> float:
    """Normalized Lorentzian (integral 1 over s), the regularized delta."""
    if width <= 0:
        raise ValueError("width must be positive")
    return width / (math.pi * (s * s + width * width))


# ---------------------------------------------------------------------------
# scalar invariance

def _extrapolate(values):
    """Richardson-extrapolate values sampled at eps * LADDER[:2] (linearly) or
    at eps * LADDER (quadratically) to eps = 0."""
    if len(values) == 2:
        return 2.0 * values[1] - values[0]
    return (values[0] - 6.0 * values[1] + 8.0 * values[2]) / 3.0


@dataclass(frozen=True)
class ScalarInvarianceReport:
    """Scalars for one pair, (n,) arrays for pair rows."""

    lhs: complex | np.ndarray
    rhs: complex | np.ndarray
    residual: float | np.ndarray
    same_side: bool | np.ndarray


def verify_scalar_invariance(form: AcceleratedFrameForm, x, xp,
                             epsilon) -> ScalarInvarianceReport:
    """Check lambda(x) lambda(x') c_image(xbar, xbar') = c(x, x') on one pair
    or on pair rows (n stacked forms: pair i by form i).

    Both sides carry the same numeric regulator and are extrapolated to
    eps -> 0 from (eps, eps/2) (finite-eps kernels are not exactly
    covariant).  The report notes whether the pair sits on one side of the
    singular set; for straddling pairs the sign bookkeeping of the light-ray
    law applies and the finite-eps comparison is not meaningful.  The
    residual's moduli are ``np.hypot``, which rounds as ``abs(complex)``
    does; ``np.abs`` of a complex array does not.
    """
    rows, single = _pair_rows(x, xp)
    n = len(rows) // 2
    images, _, lam = _checked(form, rows)
    c = _kernel_rows(np.concatenate([images[:n], rows[:n]]),
                     np.concatenate([images[n:], rows[n:]]), epsilon * LADDER[:2])
    factors = lam[:n] * lam[n:]
    lhs = _extrapolate(factors * c[:, :n])
    rhs = _extrapolate(c[:, n:])
    diff = lhs - rhs
    residual = np.hypot(diff.real, diff.imag) / np.maximum(np.hypot(rhs.real, rhs.imag), 1e-300)
    if single:
        return ScalarInvarianceReport(lhs=lhs[0], rhs=complex(rhs[0]),
                                      residual=float(residual[0]),
                                      same_side=bool(factors[0] > 0))
    return ScalarInvarianceReport(lhs=lhs, rhs=rhs, residual=residual, same_side=factors > 0)


# ---------------------------------------------------------------------------
# electromagnetic potential correlations

@dataclass(frozen=True, eq=False)
class PotentialCorrelationMatrix:
    matrix: np.ndarray       # (4, 4) complex
    frame: str               # "minkowski" | "conformal"
    hbar: float
    epsilon: float


def em_potential_correlation(x, xp, epsilon, hbar=1.0) -> PotentialCorrelationMatrix:
    """Feynman-gauge photon correlator (hbar/pi) eta_{mu nu} c(x, x')."""
    c = scalar_vacuum_correlation(x, xp, epsilon)
    return PotentialCorrelationMatrix(matrix=(hbar / math.pi) * ETA * c,
                                      frame="minkowski", hbar=hbar, epsilon=epsilon)


def _formula_matrix(form, x, xp, epsilon, hbar, last_term):
    """The four-term conformal-frame correlator on pair rows x, x' (n, 4):
    (n, 4, 4), or (k, n, 4, 4) for a ladder of k regulators."""
    c = _kernel_rows(x, xp, epsilon)[..., None, None]
    phx = form.phi(x)
    phy = form.phi(xp)
    xl = lower_index(x)
    yl = lower_index(xp)
    r = minkowski_dot(x - xp, x - xp)[:, None, None]
    M = ETA * c
    M = M + phx[:, :, None] * (xl - yl)[:, None, :] * c
    M = M + (yl - xl)[:, :, None] * phy[:, None, :] * c
    phph = phx[:, :, None] * phy[:, None, :]
    if last_term == "exact":
        M = M - 0.5 * phph * (r * c)
    elif last_term == "limit":
        M = M - 0.5 * phph
    elif last_term != "omit":
        raise ValueError(f"last_term must be one of {LAST_TERM_MODES}")
    return (hbar / math.pi) * M


def _transport_matrix(form, x, xp, epsilon, hbar):
    """lambda lambda' f^T eta f' (hbar/pi) c_image at one pair; (k, 4, 4) for k regulators."""
    images, (lam, lam_p), _, (f, fp) = _frames(form, np.array([x, xp]))
    cbar = _kernel_rows(images[:1], images[1:], epsilon)[..., None]
    return (hbar / math.pi) * lam * lam_p * cbar * (f.T @ ETA @ fp)


def _transport_residual(form, x, xp, epsilon, hbar, last_term):
    """Four-term formula vs tetrad transport at one pair, over eps * LADDER."""
    ladder = epsilon * LADDER
    Mf = _extrapolate(_formula_matrix(form, x[None], xp[None], ladder, hbar, last_term)[:, 0])
    Mt = _extrapolate(_transport_matrix(form, x, xp, ladder, hbar))
    return float(np.max(np.abs(Mf - Mt)) / max(np.max(np.abs(Mt)), 1e-300))


def transformed_em_correlation(form: AcceleratedFrameForm, x, xp, epsilon,
                               hbar=1.0, last_term="exact", check=True,
                               check_tol=1e-6) -> PotentialCorrelationMatrix:
    """Conformal-frame photon correlator: Minkowski form plus gauge terms.

    Built from the explicit four-term formula
        (hbar/pi) [eta + phi(x)(x - x') + phi(x')(x' - x)] c
        - (hbar/2pi) phi(x) phi(x') * {(x'-x)^2 c | 1}
    where the last factor is (x'-x)^2 c for ``last_term="exact"`` (matching
    the tetrad transport identity at finite eps) or 1 for ``"limit"`` (the
    eps -> 0 distributional form); ``"omit"`` drops the term (ablation).

    With ``check=True`` the result is cross-checked against the transport
    route on an (eps, eps/2, eps/4) ladder; disagreement beyond ``check_tol``
    raises InternalConsistencyError.  Omitting the phi phi' term breaks this
    consistency at order |phi|^2 (x-x')^2.
    """
    x = as_event(x)
    xp = as_event(xp)
    M = _formula_matrix(form, x[None], xp[None], epsilon, hbar, last_term)[0]
    if check:
        resid = _transport_residual(form, x, xp, epsilon, hbar, last_term)
        if resid > check_tol:
            raise InternalConsistencyError(
                f"four-term formula and tetrad transport disagree: "
                f"relative residual {resid:.3e} > {check_tol:.1e}")
    return PotentialCorrelationMatrix(matrix=M, frame="conformal",
                                      hbar=hbar, epsilon=epsilon)


@dataclass(frozen=True)
class TetradContractionReport:
    """(4, 4) matrices and a float for one pair; (n, 4, 4) and (n,) for rows."""

    lhs: np.ndarray
    rhs: np.ndarray
    residual: float | np.ndarray


def _outer(a, b):
    """Row-wise outer products of (n, 4) rows, rounded as ``np.outer``."""
    return a[:, :, None] * b[:, None, :]


def tetrad_contraction(form: AcceleratedFrameForm, x, xp) -> TetradContractionReport:
    """Two-point tetrad contraction identity, on one pair or on pair rows
    (n stacked forms: pair i by form i):

    f(x)^T eta f(x') = eta + phi(x) (x - x') + phi(x') (x' - x)
                       - (1/2) phi(x) phi(x') (x' - x)^2

    The left side is a stacked ``@``, which rounds each pair as
    ``f.T @ ETA @ fp`` does (``einsum`` does not).
    """
    rows, single = _pair_rows(x, xp)
    n = len(rows) // 2
    _, _, _, f = _frames(form, rows)
    lhs = np.swapaxes(f[:n], 1, 2) @ ETA @ f[n:]
    ph = form.phi(rows)
    phx, phy = ph[:n], ph[n:]
    xl = lower_index(rows[:n])
    yl = lower_index(rows[n:])
    rhs = (ETA + _outer(phx, xl - yl) + _outer(yl - xl, phy)
           - 0.5 * _outer(phx, phy) * interval(rows[:n], rows[n:])[:, None, None])
    residual = np.max(np.abs(lhs - rhs), axis=(1, 2))
    if single:
        return TetradContractionReport(lhs=lhs[0], rhs=rhs[0], residual=float(residual[0]))
    return TetradContractionReport(lhs=lhs, rhs=rhs, residual=residual)


# ---------------------------------------------------------------------------
# field-tensor correlations

@dataclass(frozen=True, eq=False)
class FieldTensorCorrelation:
    """C_{F F}[mu, nu, rho, sigma], antisymmetric in (mu, nu) and (rho, sigma)."""

    values: np.ndarray       # (4, 4, 4, 4) complex
    h: float | None = None
    richardson_defect: float | None = None

    def antisymmetry_residual(self) -> float:
        v = self.values
        return float(max(np.max(np.abs(v + v.transpose(1, 0, 2, 3))),
                         np.max(np.abs(v + v.transpose(0, 1, 3, 2)))))


def _antisymmetrize(A):
    """K[mu,nu,rho,sig] = A[mu,nu,rho,sig] - A[nu,mu,rho,sig] - A[mu,nu,sig,rho]
    + A[nu,mu,sig,rho] over the last four axes: antisymmetric in (mu, nu)
    and in (rho, sig)."""
    A_nu = A.swapaxes(-4, -3)
    return A - A_nu - A.swapaxes(-2, -1) + A_nu.swapaxes(-2, -1)


def _fd_field_tensor(rule, x, xp, h):
    """Field tensor by central cross stencils in x and x'.  ``rule`` maps
    pair rows a, b (64, 4) to correlators (..., 64, 4, 4); it is called once,
    on every pair of the stencil events x +- h e_mu and x' +- h e_rho.
    Returns (..., 4, 4, 4, 4)."""
    steps = np.concatenate([h * np.eye(4), -h * np.eye(4)])
    C = np.asarray(rule(np.repeat(x + steps, 8, axis=0), np.tile(xp + steps, (8, 1))),
                   dtype=complex)
    C = np.moveaxis(C, -3, 0).reshape(2, 4, 2, 4, *C.shape[:-3], 4, 4)  # +-, mu, +-, rho
    mixed = (C[0, :, 0] - C[0, :, 1] - C[1, :, 0] + C[1, :, 1]) / (4.0 * h * h)
    return _antisymmetrize(np.moveaxis(mixed, (0, 1), (-4, -2)))  # d_mu d'_rho C_{nu sig}


def field_tensor_correlation(rule, x, xp, h, defect_tol=None) -> FieldTensorCorrelation:
    """Field-tensor correlator from a potential-correlator rule by central
    finite differences (4-point cross stencils) in x and x'.

    ``rule`` maps (x, x') to a (4, 4) complex matrix C_{A A}.  When
    ``defect_tol`` is given, the (h, h/2) Richardson disagreement gates the
    result: too-large steps (relative to the regulator scale) raise
    InternalConsistencyError.
    """
    x = as_event(x)
    xp = as_event(xp)
    rows = lambda a, b: np.array([rule(p, q) for p, q in zip(a, b)])  # noqa: E731
    K = _fd_field_tensor(rows, x, xp, h)
    defect = None
    if defect_tol is not None:
        K_half = _fd_field_tensor(rows, x, xp, h / 2.0)
        defect = float(np.max(np.abs(K - K_half)) / max(np.max(np.abs(K_half)), 1e-300))
        if defect > defect_tol:
            raise InternalConsistencyError(
                f"finite-difference step h = {h} too large: Richardson "
                f"disagreement {defect:.3e} > {defect_tol:.1e}")
    return FieldTensorCorrelation(values=K, h=h, richardson_defect=defect)


def minkowski_field_tensor_correlation(x, xp, epsilon, hbar=1.0) -> FieldTensorCorrelation:
    """Closed-form field-tensor correlator of the Feynman-gauge photon.

    With s = x - x', D = s^2 - i eps s^0 and g_mu = 2 s_mu - i eps delta^0_mu:

        d_mu d'_rho c = -2 g_mu g_rho / D^3 + 2 eta_{mu rho} / D^2

    antisymmetrized over both index pairs against eta.
    """
    x = as_event(x)
    xp = as_event(xp)
    s = x - xp
    D = interval(x, xp) - 1j * epsilon * s[0]
    g = 2.0 * lower_index(s).astype(complex)
    g[0] -= 1j * epsilon
    Kmix = -2.0 * np.outer(g, g) / D**3 + 2.0 * ETA.astype(complex) / D**2
    # A[mu,nu,rho,sig] = eta_{nu sig} Kmix_{mu rho}
    K = (hbar / math.pi) * _antisymmetrize(ETA[None, :, None, :] * Kmix[:, None, :, None])
    return FieldTensorCorrelation(values=K, h=None, richardson_defect=None)


@dataclass(frozen=True)
class EmInvarianceReport:
    field_residual: float
    transport_residual: float
    epsilon: float
    h: float
    last_term: str


def verify_em_invariance(form: AcceleratedFrameForm, x, xp, epsilon=1e-2,
                         h=1e-4, hbar=1.0, last_term="exact") -> EmInvarianceReport:
    """Field-tensor correlations in the conformal frame equal the Minkowski
    ones at the same events: the gauge corrections drop out.

    ``field_residual``: FD field-tensor of the transformed potential rule vs
    the closed-form Minkowski field tensor, both Richardson-extrapolated in
    eps over the ladder (eps, eps/2, eps/4).

    ``transport_residual``: the potential-level cross-check of the four-term
    formula against the tetrad transport route, same ladder.  Omitting the
    phi phi' term (``last_term="omit"``) leaves the field residual nearly
    unchanged (the product term is structurally annihilated by the
    antisymmetrized projection) but breaks this transport consistency by
    roughly |phi|^2 |x - x'|^2 / 2 - the cancellation inside the transported
    correlator is structural, not accidental.
    """
    x = as_event(x)
    xp = as_event(xp)
    ladder = epsilon * LADDER
    K_trans = _extrapolate(_fd_field_tensor(
        lambda a, b: _formula_matrix(form, a, b, ladder, hbar, last_term), x, xp, h))
    K_mink = _extrapolate([minkowski_field_tensor_correlation(x, xp, eps, hbar).values
                           for eps in ladder.tolist()])
    field_residual = float(np.max(np.abs(K_trans - K_mink))
                           / max(np.max(np.abs(K_mink)), 1e-300))
    return EmInvarianceReport(field_residual=field_residual,
                              transport_residual=_transport_residual(
                                  form, x, xp, epsilon, hbar, last_term),
                              epsilon=epsilon, h=h, last_term=last_term)


# ---------------------------------------------------------------------------
# fluctuation-dissipation spectra

@dataclass(frozen=True)
class SpectralPoint:
    """One frequency sample of the commutator/anticommutator spectra.

    The stored values satisfy C = hbar (sigma + xi) by construction, the
    spectral form of the fluctuation-dissipation relation.
    """

    omega: float
    xi: float
    temperature: float
    C: float
    sigma: float
    hbar: float = 1.0

    def __post_init__(self):
        lhs = self.C
        rhs = self.hbar * (self.sigma + self.xi)
        if abs(lhs - rhs) > 1e-9 * (1.0 + abs(lhs) + abs(rhs)):
            raise InternalConsistencyError(
                f"spectral point violates C = hbar (sigma + xi): {lhs} vs {rhs}")


def thermal_spectra(xi, omega, temperature, hbar=1.0) -> SpectralPoint:
    """Planck-form relation between spectral density and fluctuations:

        C[k] = 2 hbar xi[k] / (1 - exp(-hbar omega / T))
        sigma[k] = coth(hbar omega / 2T) xi[k]

    Temperature is measured as an energy.  T <= 0 is routed to the vacuum
    limit; omega = 0 is a pole.
    """
    if temperature <= 0:
        return vacuum_spectra(xi, omega, hbar=hbar)
    if omega == 0:
        raise PoleError("thermal spectra have a pole at omega = 0")
    x = hbar * omega / temperature
    with np.errstate(over="ignore"):
        denom = -np.expm1(-x)          # 1 - exp(-x), overflow-safe sign
        C = float(2.0 * hbar * xi / denom) if not np.isinf(denom) else -0.0
        sigma = float(xi / math.tanh(x / 2.0))
    return SpectralPoint(omega=float(omega), xi=float(xi),
                         temperature=float(temperature), C=C, sigma=sigma,
                         hbar=hbar)


def vacuum_spectra(xi, omega, hbar=1.0) -> SpectralPoint:
    """Zero-temperature limit: C = 2 hbar theta(omega) xi, sigma = sgn(omega) xi.

    Only positive frequencies survive in C; omega = 0 is undefined.
    """
    if omega == 0:
        raise BoundaryError("vacuum spectra undefined at omega = 0 (step function)")
    C = 2.0 * hbar * xi if omega > 0 else 0.0
    sigma = xi if omega > 0 else -xi
    return SpectralPoint(omega=float(omega), xi=float(xi), temperature=0.0,
                         C=float(C), sigma=float(sigma), hbar=hbar)


def scalar_commutator_spectrum(k, width) -> float:
    """Massless scalar spectral density pi sgn(omega) delta(k^2), with the
    delta regularized by a normalized Lorentzian of the given width."""
    k = as_event(k)
    k2 = minkowski_dot(k, k)
    return math.pi * float(np.sign(k[0])) * lorentzian(k2, width)


# ---------------------------------------------------------------------------
# momentum-space oracle

def momentum_space_oracle(x, xp, epsilon, cutoff=None, hbar=1.0) -> complex:
    """Positive-frequency on-shell representation of the vacuum kernel.

    Integrates (hbar / 2 pi^2) * int_0^cutoff dk sin(k R)/R e^{-i k dt - eps k}
    (with sin(kR)/R -> k as R -> 0) by adaptive quadrature.  The result is
    proportional to the closed-form kernel c(x, x'); only the proportionality
    is meaningful, so callers fit and report the constant.  Raises
    ConvergenceError when the truncated tail plus the quadrature error
    exceeds 1e-6 of the value.
    """
    x = as_event(x)
    xp = as_event(xp)
    s = x - xp
    dt = s[0]
    R = float(np.linalg.norm(s[1:]))
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if cutoff is None:
        cutoff = 50.0 / epsilon

    if R > 0:
        def radial(k):
            return math.sin(k * R) / R
    else:
        def radial(k):
            return k

    re, re_err = quad(lambda k: radial(k) * math.exp(-epsilon * k) * math.cos(k * dt),
                      0.0, cutoff, limit=800)
    im, im_err = quad(lambda k: -radial(k) * math.exp(-epsilon * k) * math.sin(k * dt),
                      0.0, cutoff, limit=800)
    value = (hbar / (2.0 * math.pi**2)) * complex(re, im)
    # |sin(kR)/R| <= k, so the dropped tail is below int_K^inf k e^{-eps k}
    tail = math.exp(-epsilon * cutoff) * (cutoff / epsilon + 1.0 / epsilon**2)
    tail *= hbar / (2.0 * math.pi**2)
    quad_err = (hbar / (2.0 * math.pi**2)) * math.hypot(re_err, im_err)
    if tail + quad_err > 1e-6 * max(abs(value), 1e-300):
        raise ConvergenceError(
            f"momentum integral not converged at cutoff {cutoff}: tail bound "
            f"{tail:.3e}, quadrature error {quad_err:.3e}, value {abs(value):.3e}")
    return value
