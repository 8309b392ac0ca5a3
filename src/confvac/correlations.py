"""Vacuum and thermal two-point functions of massless fields.

The regulated scalar vacuum kernel is

    c(x, x'; eps) = 1 / ((x - x')^2 - i eps (t - t')),    eps -> 0+,

whose real part is the regulated principal value (anticommutator) and whose
imaginary part is pi sgn(t - t') times a normalized Lorentzian standing in
for delta((x - x')^2) (commutator).  In Feynman gauge the photon potential
correlator is (1/pi) eta_{mu nu} c, in units c = hbar = 1.

Under an accelerated-frame map the scalar kernel obeys
c_image(xbar, xbar') lambda(x) lambda(x') = c(x, x'); the transported
potential correlator picks up correction terms proportional to
phi = grad ln(lambda) which are pure gauge: they drop from field-tensor
correlations, which is the invariance statement verified here numerically.

Finite-eps caution: the exact laws are distributional.  All invariance
checks extrapolate eps -> 0 (linearly or quadratically on an
(eps, eps/2, eps/4) ladder); finite-eps kernels are not exactly covariant.

Evaluation is batch-first (a single pair is a batch of one): every check
takes one pair or pair rows with n stacked forms, pair i by form i, and the
electromagnetic check is one array pass over its pairs, the 64 stencil
pairs of each and every rung of the regulator ladder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conformal import AcceleratedFrameForm, _checked, _frames, _pair_rows
from .errors import (BoundaryError, ConvergenceError, InternalConsistencyError,
                     PoleError)
from .minkowski import ETA, as_event, interval, lower_index, minkowski_dot

LAST_TERM_MODES = ("exact", "omit")
LADDER = np.array([1.0, 0.5, 0.25])   # regulators eps * LADDER of the invariance checks


# ---------------------------------------------------------------------------
# scalar kernel

def _kernel_rows(x, xp, epsilon):
    """Regulated kernel on pair rows x, x' (n, 4): (n,) complex, or (k, n)
    for k regulators; PoleError names the first pair on a pole.  The quotient
    is CPython's complex division (Smith's method) in real arithmetic, so a
    pair gets the bits of ``1.0 / complex``: numpy's complex divide multiplies
    by a reciprocal, a last-bit change the 1/(4h^2) of the field-tensor
    stencil amplifies.  ``0.0 -`` and ``+ 0.0`` give zeros CPython's signs.
    A value that is not finite is a pole: 0 / 0 at a zero denominator, or an
    overflow where the interval underflows to a subnormal."""
    d = x - xp
    re = minkowski_dot(d, d)
    im = 0.0 - np.multiply.outer(epsilon, d[:, 0])
    by_re = np.abs(re) >= np.abs(im)
    big = np.where(by_re, re, im)
    small = np.where(by_re, im, re)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = small / big
        denom = big + small * ratio
        c = np.empty(ratio.shape, dtype=complex)
        c.real = np.where(by_re, 1.0, ratio + 0.0) / denom
        c.imag = np.where(by_re, 0.0 - ratio, -1.0) / denom
    pole = ~np.isfinite(c)
    if pole.any():
        i = np.unravel_index(np.argmax(pole), pole.shape)[-1]
        raise PoleError(f"scalar kernel pole: (x - x')^2 - i eps (t - t') = 0 "
                        f"at x = {x[i].tolist()}, x' = {xp[i].tolist()}")
    return c


def scalar_vacuum_correlation(x, xp, epsilon) -> complex:
    """Regulated vacuum kernel 1 / ((x-x')^2 - i eps (t-t'))."""
    return complex(_kernel_rows(as_event(x)[None], as_event(xp)[None], epsilon)[0])


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

def em_potential_correlation(x, xp, epsilon) -> np.ndarray:
    """Feynman-gauge photon correlator (1/pi) eta_{mu nu} c(x, x'), (4, 4) complex."""
    c = scalar_vacuum_correlation(x, xp, epsilon)
    return (1.0 / math.pi) * ETA * c


def transformed_em_correlation(form: AcceleratedFrameForm, x, xp, epsilon,
                               last_term="exact") -> np.ndarray:
    """Conformal-frame photon correlator, Minkowski form plus gauge terms,
    on one pair, (4, 4) complex, or on pair rows (n stacked forms: pair i by
    form i), (n, 4, 4); a ladder of k regulators adds a leading axis k:

        (1/pi) [eta + phi(x)(x - x') + phi(x')(x' - x)] c
        - (1/2pi) phi(x) phi(x') (x'-x)^2 c

    whose last term makes it equal the tetrad transport at finite eps;
    ``last_term="omit"`` drops it (the ablation).
    """
    rows, single = _pair_rows(x, xp)
    M = _transformed_em_rows(form, *np.split(rows, 2), epsilon, last_term)
    return M[..., 0, :, :] if single else M


def _transformed_em_rows(form, x, xp, epsilon, last_term):
    """``transformed_em_correlation`` on checked pair rows x, x' (n, 4)."""
    if last_term not in LAST_TERM_MODES:
        raise ValueError(f"last_term must be one of {LAST_TERM_MODES}")
    c = _kernel_rows(x, xp, epsilon)[..., None, None]
    phx, phy = form._phi_rows(x), form._phi_rows(xp)
    xl, yl = lower_index(x), lower_index(xp)
    M = ETA * c + _outer(phx, xl - yl) * c + _outer(yl - xl, phy) * c
    if last_term == "exact":
        M = M - 0.5 * _outer(phx, phy) * (interval(x, xp)[:, None, None] * c)
    return (1.0 / math.pi) * M


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
    ph = form._phi_rows(rows)
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

def _antisymmetrize(A):
    """K[mu,nu,rho,sig] = A[mu,nu,rho,sig] - A[nu,mu,rho,sig] - A[mu,nu,sig,rho]
    + A[nu,mu,sig,rho] over the last four axes: antisymmetric in (mu, nu)
    and in (rho, sig)."""
    A_nu = A.swapaxes(-4, -3)
    return A - A_nu - A.swapaxes(-2, -1) + A_nu.swapaxes(-2, -1)


def _fd_field_tensor(rule, x, xp, h):
    """Field tensor by central cross stencils in x and x' on pair rows x, x'
    (n, 4).  ``rule`` maps pair rows a, b (64 n, 4) to correlators
    (..., 64 n, 4, 4); it is called once, on every pair of the stencil
    events x +- h e_mu and x' +- h e_rho, row s n + i of stencil pair s
    belonging to pair i, so that n stacked forms meet them cyclically.
    Returns (..., n, 4, 4, 4, 4)."""
    n = len(x)
    steps = np.concatenate([h * np.eye(4), -h * np.eye(4)])
    C = np.asarray(rule((np.repeat(steps, 8, axis=0)[:, None] + x).reshape(-1, 4),
                        (np.tile(steps, (8, 1))[:, None] + xp).reshape(-1, 4)), dtype=complex)
    lead = C.shape[:-3]
    C = np.moveaxis(C.reshape(*lead, 64, n, 4, 4), -4, 0).reshape(2, 4, 2, 4, *lead, n, 4, 4)
    mixed = (C[0, :, 0] - C[0, :, 1] - C[1, :, 0] + C[1, :, 1]) / (4.0 * h * h)  # mu, rho, ...
    return _antisymmetrize(np.moveaxis(mixed, (0, 1), (-4, -2)))  # d_mu d'_rho C_{nu sig}


def minkowski_field_tensor_correlation(x, xp, epsilon) -> np.ndarray:
    """Closed-form field-tensor correlator of the Feynman-gauge photon on one
    pair, (4, 4, 4, 4) complex, or on pair rows, (n, 4, 4, 4, 4); a ladder of
    k regulators adds a leading axis k.

    With s = x - x', D = s^2 - i eps s^0 and g_mu = 2 s_mu - i eps delta^0_mu:

        d_mu d'_rho c = -2 g_mu g_rho / D^3 + 2 eta_{mu rho} / D^2

    antisymmetrized over both index pairs against eta.  D^2 and D^3 are
    multiplied out in real arithmetic, so that they round as a single pair's
    complex scalars do (numpy's complex product on arrays differs in the last
    bit).  PoleError names the first pair where D = 0.
    """
    rows, single = _pair_rows(x, xp)
    K = _field_tensor_rows(*np.split(rows, 2), epsilon)
    return K[..., 0, :, :, :, :] if single else K


def _field_tensor_rows(x, xp, epsilon):
    """``minkowski_field_tensor_correlation`` on checked pair rows x, x' (n, 4)."""
    s = x - xp
    eps = np.multiply.outer(epsilon, np.ones(len(s)))
    a = minkowski_dot(s, s)
    b = 0.0 - eps * s[:, 0]
    p, q = a * a - b * b, a * b + b * a           # D^2
    D2 = (p + 1j * q)[..., None, None]
    D3 = (a * p - b * q + 1j * (a * q + b * p))[..., None, None]
    g = np.zeros(eps.shape + (4,), dtype=complex)
    g.real = 2.0 * lower_index(s)
    g.imag[..., 0] = 0.0 - eps
    with np.errstate(divide="ignore", invalid="ignore"):
        Kmix = -2.0 * (g[..., :, None] * g[..., None, :]) / D3 + 2.0 * ETA.astype(complex) / D2
    pole = ~np.isfinite(Kmix).all(axis=(-2, -1))
    if pole.any():
        i = np.unravel_index(np.argmax(pole), pole.shape)[-1]
        raise PoleError(f"field-tensor pole: (x - x')^2 - i eps (t - t') = 0 "
                        f"at x = {x[i].tolist()}, x' = {xp[i].tolist()}")
    # A[mu,nu,rho,sig] = eta_{nu sig} Kmix_{mu rho}
    return (1.0 / math.pi) * _antisymmetrize(ETA[None, :, None, :] * Kmix[..., :, None, :, None])


def _relative_max(a, b):
    """max |a - b| / max |b| over each pair's tensor: (n,) from (n, ...)."""
    axes = tuple(range(1, a.ndim))
    return np.max(np.abs(a - b), axis=axes) / np.maximum(np.max(np.abs(b), axis=axes), 1e-300)


@dataclass(frozen=True)
class EmInvarianceReport:
    """Residuals as floats for one pair, (n,) arrays for pair rows."""

    field_residual: float | np.ndarray
    transport_residual: float | np.ndarray
    epsilon: float
    h: float
    last_term: str


def verify_em_invariance(form: AcceleratedFrameForm, x, xp, epsilon=1e-2,
                         h=1e-4, last_term="exact") -> EmInvarianceReport:
    """Field-tensor correlations in the conformal frame equal the Minkowski
    ones at the same events: the gauge corrections drop out.  One pair, or
    pair rows (n stacked forms: pair i by form i), in one array pass.

    ``field_residual``: FD field-tensor of ``transformed_em_correlation`` vs
    the closed-form Minkowski field tensor, both Richardson-extrapolated in
    eps over the ladder (eps, eps/2, eps/4).

    ``transport_residual``: the four-term formula against the tetrad
    transport lambda lambda' f^T eta f' (1/pi) c_image, same ladder.
    Omitting the phi phi' term (``last_term="omit"``) leaves the field
    residual nearly unchanged (the product term is structurally annihilated
    by the antisymmetrized projection) but breaks this transport consistency
    by roughly |phi|^2 |x - x'|^2 / 2 - the cancellation inside the
    transported correlator is structural, not accidental.
    """
    rows, single = _pair_rows(x, xp)
    n = len(rows) // 2
    x, xp = rows[:n], rows[n:]
    ladder = epsilon * LADDER
    K_trans = _extrapolate(_fd_field_tensor(
        lambda a, b: _transformed_em_rows(form, a, b, ladder, last_term), x, xp, h))
    K_mink = _extrapolate(_field_tensor_rows(x, xp, ladder))
    images, lam, _, f = _frames(form, rows)
    cbar = _kernel_rows(images[:n], images[n:], ladder)
    M_trans = _extrapolate(((1.0 / math.pi) * lam[:n] * lam[n:] * cbar)[..., None, None]
                           * (np.swapaxes(f[:n], 1, 2) @ ETA @ f[n:]))
    M_form = _extrapolate(_transformed_em_rows(form, x, xp, ladder, last_term))
    field, transport = _relative_max(K_trans, K_mink), _relative_max(M_form, M_trans)
    if single:
        field, transport = float(field[0]), float(transport[0])
    return EmInvarianceReport(field_residual=field, transport_residual=transport,
                              epsilon=epsilon, h=h, last_term=last_term)


# ---------------------------------------------------------------------------
# fluctuation-dissipation spectra

@dataclass(frozen=True)
class SpectralPoint:
    """One frequency sample of the commutator/anticommutator spectra.

    The stored values satisfy C = sigma + xi (hbar = 1) by construction, the
    spectral form of the fluctuation-dissipation relation.
    """

    omega: float
    xi: float
    temperature: float
    C: float
    sigma: float

    def __post_init__(self):
        lhs, rhs = self.C, self.sigma + self.xi
        if abs(lhs - rhs) > 1e-9 * (1.0 + abs(lhs) + abs(rhs)):
            raise InternalConsistencyError(
                f"spectral point violates C = sigma + xi: {lhs} vs {rhs}")


def thermal_spectra(xi, omega, temperature) -> SpectralPoint:
    """Planck-form relation between spectral density and fluctuations:

        C[k] = 2 xi[k] / (1 - exp(-omega / T))
        sigma[k] = coth(omega / 2T) xi[k]

    Temperature is measured as an energy (hbar = 1).  T <= 0 is routed to the
    vacuum limit; omega = 0 is a pole.
    """
    if temperature <= 0:
        return vacuum_spectra(xi, omega)
    if omega == 0:
        raise PoleError("thermal spectra have a pole at omega = 0")
    x = omega / temperature
    with np.errstate(over="ignore"):
        denom = -np.expm1(-x)          # 1 - exp(-x), overflow-safe sign
        C = float(2.0 * xi / denom) if not np.isinf(denom) else -0.0
        sigma = float(xi / math.tanh(x / 2.0))
    return SpectralPoint(omega=float(omega), xi=float(xi),
                         temperature=float(temperature), C=C, sigma=sigma)


def vacuum_spectra(xi, omega) -> SpectralPoint:
    """Zero-temperature limit: C = 2 theta(omega) xi, sigma = sgn(omega) xi.

    Only positive frequencies survive in C; omega = 0 is undefined.
    """
    if omega == 0:
        raise BoundaryError("vacuum spectra undefined at omega = 0 (step function)")
    C = 2.0 * xi if omega > 0 else 0.0
    sigma = xi if omega > 0 else -xi
    return SpectralPoint(omega=float(omega), xi=float(xi), temperature=0.0,
                         C=float(C), sigma=float(sigma))


# ---------------------------------------------------------------------------
# momentum-space oracle

GAUSS_NODES = 16   # per panel of the momentum-space oracle: exact for degree 31


def _gauss_legendre(n):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]: the
    eigenvalues of the Legendre Jacobi matrix, and twice the squared first
    components of its eigenvectors (Golub-Welsch).  Built per call, in
    about 40 us, so that importing the package computes nothing."""
    k = np.arange(1.0, n)
    off = k / np.sqrt(4.0 * k * k - 1.0)
    nodes, vectors = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    return nodes, 2.0 * vectors[0] ** 2


def momentum_space_oracle(x, xp, epsilon, cutoff=None) -> complex:
    """Positive-frequency on-shell representation of the vacuum kernel.

    Integrates (1 / 2 pi^2) * int_0^cutoff dk sin(k R)/R e^{-i k dt - eps k}
    (with sin(kR)/R -> k as R -> 0) by composite Gauss-Legendre panels of
    GAUSS_NODES nodes, each shorter than half an oscillation period
    pi / max(R, |dt|, eps).  The result is proportional to the closed-form
    kernel c(x, x'); only the proportionality is meaningful, so callers fit
    and report the constant.  The sum on twice as many panels is returned,
    and its change from the first sum is the quadrature error estimate.
    Raises ConvergenceError when the truncated tail plus that estimate
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
    decay = complex(epsilon, dt)
    nodes, weights = _gauss_legendre(GAUSS_NODES)

    def integral(panels):
        h = cutoff / panels
        k = (np.arange(panels)[:, None] + 0.5 * (nodes + 1.0)) * h
        radial = np.sin(k * R) / R if R > 0 else k
        return 0.5 * h * complex(np.sum(radial * np.exp(-decay * k) * weights))

    panels = int(cutoff * max(R, abs(dt), epsilon) / math.pi) + 1
    coarse = integral(panels)
    value = integral(2 * panels) / (2.0 * math.pi**2)
    # |sin(kR)/R| <= k, so the dropped tail is below int_K^inf k e^{-eps k}
    tail = math.exp(-epsilon * cutoff) * (cutoff / epsilon + 1.0 / epsilon**2)
    tail *= 1.0 / (2.0 * math.pi**2)
    quad_err = abs(value - coarse / (2.0 * math.pi**2))
    if tail + quad_err > 1e-6 * max(abs(value), 1e-300):
        raise ConvergenceError(
            f"momentum integral not converged at cutoff {cutoff}: tail bound "
            f"{tail:.3e}, quadrature error {quad_err:.3e}, value {abs(value):.3e}")
    return value
