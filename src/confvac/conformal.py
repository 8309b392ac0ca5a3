"""The conformal group of 4D Minkowski spacetime.

Primitives (translations, Lorentz transformations, dilations, inversions)
compose into chains; the accelerated-frame map is the special composite
inversion -> translation -> inversion with closed forms for the image, the
conformal scale factor

    lambda(x) = beta / (1 - 2 alpha.x + alpha^2 x^2),

the Jacobian and the tetrad f = J / lambda.  The scale factor is kept
*signed* (continuous from the identity on each side of the singular set);
only lambda^2 is fixed by the metric pullback, and the sign bookkeeping is
what makes the light-ray sign law checkable.

Singular sets (where the denominator above vanishes) are excluded: map
evaluation raises ``SingularPointError`` carrying the residual.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import ConstraintViolationError, SingularPointError
from .minkowski import ETA, SIGNATURE, as_event, interval, lower_index, minkowski_dot
from .numdiff import gradient, hessian

DEFAULT_SINGULAR_RTOL = 1e-12


def _guard_denominator(value, scale, point, rtol):
    if abs(value) < rtol * (1.0 + abs(scale)):
        raise SingularPointError(
            f"event {point} lies on a singular set (denominator {value:.3e})",
            residual=value, point=point)


def _guard_rows(singular, residual, points):
    """Batched ``_guard_denominator``: raise for the first row flagged singular."""
    if singular.any():
        i = int(np.argmax(singular))
        raise SingularPointError(
            f"event {points[i]} lies on a singular set (denominator {residual[i]:.3e})",
            residual=float(residual[i]), point=points[i], index=i)


# ---------------------------------------------------------------------------
# primitives

@dataclass(frozen=True, eq=False)
class Translation:
    offset: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "offset", as_event(self.offset))

    def apply(self, x, rtol=DEFAULT_SINGULAR_RTOL):
        return x + self.offset

    def push(self, y, dy):
        return y + self.offset, dy, None

    def jacobian(self, x):
        return np.eye(4)

    def factor(self, x):
        return 1.0


@dataclass(frozen=True, eq=False)
class LorentzTransform:
    matrix: np.ndarray
    tol: float = 1e-9

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (4, 4):
            raise ConstraintViolationError("Lorentz matrix must be 4x4")
        defect = np.max(np.abs(m.T @ ETA @ m - ETA))
        if defect > self.tol:
            raise ConstraintViolationError(
                f"matrix is not Lorentz: max |L^T eta L - eta| = {defect:.3e}")
        object.__setattr__(self, "matrix", m)

    def apply(self, x, rtol=DEFAULT_SINGULAR_RTOL):
        return self.matrix @ x

    def push(self, y, dy):
        return y @ self.matrix.T, dy @ self.matrix.T, None

    def jacobian(self, x):
        return self.matrix.copy()

    def factor(self, x):
        return 1.0


@dataclass(frozen=True, eq=False)
class Dilation:
    scale: float

    def __post_init__(self):
        if self.scale == 0:
            raise ConstraintViolationError("dilation scale must be nonzero")
        object.__setattr__(self, "scale", float(self.scale))

    def apply(self, x, rtol=DEFAULT_SINGULAR_RTOL):
        return self.scale * x

    def push(self, y, dy):
        return self.scale * y, self.scale * dy, None

    def jacobian(self, x):
        return self.scale * np.eye(4)

    def factor(self, x):
        return self.scale


@dataclass(frozen=True, eq=False)
class Inversion:
    """xbar = -beta x / x^2, an involution, singular on the light cone x^2 = 0."""

    beta: float

    def __post_init__(self):
        if self.beta == 0:
            raise ConstraintViolationError("inversion scale beta must be nonzero")
        object.__setattr__(self, "beta", float(self.beta))

    def apply(self, x, rtol=DEFAULT_SINGULAR_RTOL):
        x2 = minkowski_dot(x, x)
        _guard_denominator(x2, x2, x, rtol)
        return -self.beta * x / x2

    def push(self, y, dy):
        y2 = minkowski_dot(y, y)
        s = (-self.beta / y2)[..., None]
        return s * y, s * (dy - 2.0 * y * (minkowski_dot(y, dy) / y2)[..., None]), y2

    def jacobian(self, x):
        x2 = minkowski_dot(x, x)
        reflect = np.eye(4) - 2.0 * np.outer(x, lower_index(x)) / x2
        return -(self.beta / x2) * reflect

    def factor(self, x):
        # signed: lambda = beta / x^2, so the interval law holds with the
        # plain product lambda(x) lambda(x')
        return self.beta / minkowski_dot(x, x)


Primitive = Translation | LorentzTransform | Dilation | Inversion


class ConformalMap:
    """Ordered chain of primitives, applied first-to-last.

    Each primitive's ``push(y, dy)`` maps rows of events and tangent vectors
    to (images, pushed tangents, denominator), the denominator being the
    per-row value the primitive divides by (None if it divides by nothing).
    """

    def __init__(self, chain):
        chain = list(chain)
        if not chain:
            chain = [Translation(np.zeros(4))]
        for p in chain:
            if not isinstance(p, (Translation, LorentzTransform, Dilation, Inversion)):
                raise ConstraintViolationError(f"unknown primitive {p!r}")
        self.chain = chain

    @classmethod
    def identity(cls):
        return cls([Translation(np.zeros(4))])

    def apply(self, x, rtol=DEFAULT_SINGULAR_RTOL):
        y = as_event(x)
        for p in self.chain:
            y = p.apply(y, rtol=rtol)
        return y

    def jacobian(self, x, rtol=DEFAULT_SINGULAR_RTOL):
        y = as_event(x)
        J = np.eye(4)
        for p in self.chain:
            J = p.jacobian(y) @ J
            y = p.apply(y, rtol=rtol)
        return J

    def factor(self, x, rtol=DEFAULT_SINGULAR_RTOL):
        y = as_event(x)
        lam = 1.0
        for p in self.chain:
            lam *= p.factor(y)
            y = p.apply(y, rtol=rtol)
        return lam

    def pushforward(self, x, v):
        """Images and pushed tangents J v of rows x, v of shape (n, 4).

        The (y, dy) pair is carried through the chain.  Raises
        ``SingularPointError`` for the first row that meets a singular set,
        with ``index`` set to that row and the denominator of the first
        primitive that is singular there.
        """
        x = np.asarray(x, dtype=float)
        y, dy = x, np.asarray(v, dtype=float)
        singular = np.zeros(len(x), dtype=bool)
        residual = np.zeros(len(x))
        with np.errstate(divide="ignore", invalid="ignore"):
            for p in self.chain:
                y, dy, den = p.push(y, dy)
                if den is not None:
                    hit = ~singular & (np.abs(den) < DEFAULT_SINGULAR_RTOL * (1.0 + np.abs(den)))
                    residual[hit] = den[hit]
                    singular |= hit
        _guard_rows(singular, residual, x)
        return y, dy

    def inverse(self):
        inv = []
        for p in reversed(self.chain):
            if isinstance(p, Translation):
                inv.append(Translation(-p.offset))
            elif isinstance(p, LorentzTransform):
                inv.append(LorentzTransform(np.linalg.inv(p.matrix)))
            elif isinstance(p, Dilation):
                inv.append(Dilation(1.0 / p.scale))
            else:
                inv.append(p)  # inversions are involutions
        return ConformalMap(inv)


@dataclass(frozen=True, eq=False)
class AcceleratedFrameForm:
    """Canonical inversion -> translation(alpha) -> inversion(beta) composite.

    Closed forms: xbar = lambda(x) (x - x^2 alpha) with
    lambda(x) = beta / (1 - 2 alpha.x + alpha^2 x^2).  The composite formula
    extends continuously across the inner light cone x^2 = 0 where the raw
    three-primitive chain is undefined, so the only singular set kept here is
    the vanishing denominator.
    """

    alpha: np.ndarray
    beta: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "alpha", as_event(self.alpha))
        if self.beta == 0:
            raise ConstraintViolationError("beta must be nonzero")
        object.__setattr__(self, "beta", float(self.beta))

    @property
    def alpha_sq(self):
        return minkowski_dot(self.alpha, self.alpha)

    def denominator(self, x):
        x = np.asarray(x, dtype=float)
        return (1.0 - 2.0 * minkowski_dot(x, np.broadcast_to(self.alpha, x.shape))
                + self.alpha_sq * minkowski_dot(x, x))

    def factor(self, x, rtol=DEFAULT_SINGULAR_RTOL):
        den = self.denominator(x)
        _guard_denominator(den, self.alpha_sq * minkowski_dot(x, x), x, rtol)
        return self.beta / den

    def apply(self, x, rtol=DEFAULT_SINGULAR_RTOL):
        x = as_event(x)
        lam = self.factor(x, rtol=rtol)
        return lam * (x - minkowski_dot(x, x) * self.alpha)

    def phi(self, x):
        """phi_mu = d_mu ln(lambda), lower index; independent of beta."""
        den = self.denominator(x)
        return 2.0 * (lower_index(self.alpha) - self.alpha_sq * lower_index(x)) / den

    def phi2(self, x):
        """phi_{mu nu} = d_mu phi_nu = phi_mu phi_nu - (2 alpha^2 / D) eta."""
        ph = self.phi(x)
        return np.outer(ph, ph) - (2.0 * self.alpha_sq / self.denominator(x)) * ETA

    def jacobian(self, x, rtol=DEFAULT_SINGULAR_RTOL):
        x = as_event(x)
        lam = self.factor(x, rtol=rtol)
        ph = self.phi(x)
        xi = x - minkowski_dot(x, x) * self.alpha
        return lam * (np.eye(4) + np.outer(xi, ph) - 2.0 * np.outer(self.alpha, lower_index(x)))

    def pushforward(self, x, v):
        """Images and pushed tangents J v of rows x, v of shape (n, 4).

        Closed forms: xbar = lambda (x - x^2 alpha) and
        J v = lambda (v + xi (phi.v) - 2 alpha (x.v)) with xi = x - x^2 alpha.
        Raises ``SingularPointError`` for the first row on the singular set,
        with ``index`` set to that row.
        """
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        x2 = minkowski_dot(x, x)
        den = self.denominator(x)
        scale = 1.0 + np.abs(self.alpha_sq * x2)
        _guard_rows(np.abs(den) < DEFAULT_SINGULAR_RTOL * scale, den, x)
        lam = (self.beta / den)[..., None]
        xi = x - x2[..., None] * self.alpha
        xv = minkowski_dot(x, v)
        phi_v = 2.0 * (minkowski_dot(v, self.alpha) - self.alpha_sq * xv) / den
        jv = lam * (v + xi * phi_v[..., None] - 2.0 * np.multiply.outer(xv, self.alpha))
        return lam * xi, jv

    def as_chain(self) -> ConformalMap:
        return ConformalMap([Inversion(1.0), Translation(self.alpha), Inversion(self.beta)])

    def inverse(self) -> "AcceleratedFrameForm":
        return AcceleratedFrameForm(-self.alpha / self.beta, 1.0 / self.beta)

    def factor_field(self) -> "ConformalFactorField":
        return ConformalFactorField.from_form(self)


Mappable = ConformalMap | AcceleratedFrameForm


# ---------------------------------------------------------------------------
# operations

def conformal_factor(form: AcceleratedFrameForm, x, rtol=DEFAULT_SINGULAR_RTOL) -> float:
    """Signed conformal scale factor beta / (1 - 2 alpha.x + alpha^2 x^2)."""
    return form.factor(as_event(x), rtol=rtol)


def apply_map(m: Mappable, x, rtol=DEFAULT_SINGULAR_RTOL) -> np.ndarray:
    return m.apply(as_event(x), rtol=rtol)


def jacobian_tetrad(m: Mappable, x, rtol=DEFAULT_SINGULAR_RTOL):
    """(J, lambda, f): Jacobian, signed scale factor, tetrad f = J / lambda.

    J^T eta J = lambda^2 eta, so f is a (pointwise) Lorentz matrix off the
    singular sets.
    """
    x = as_event(x)
    J = m.jacobian(x) if isinstance(m, AcceleratedFrameForm) else m.jacobian(x, rtol=rtol)
    lam = m.factor(x, rtol=rtol)
    return J, lam, J / lam


def singular_residual(form: AcceleratedFrameForm, x) -> float:
    """Source-side singular-set equation value 1 - 2 alpha.x + alpha^2 x^2."""
    return float(form.denominator(as_event(x)))


def image_singular_residual(form: AcceleratedFrameForm, xbar) -> float:
    """Image-side singular-set equation value 1 + 2 alpha.xbar + alpha^2 xbar^2."""
    xbar = as_event(xbar)
    return float(1.0 + 2.0 * minkowski_dot(form.alpha, xbar)
                 + form.alpha_sq * minkowski_dot(xbar, xbar))


def compose(m1: Mappable, m2: Mappable) -> ConformalMap:
    """Map acting as m1 after m2: apply(compose(m1, m2), x) = m1(m2(x))."""
    c1 = m1.as_chain() if isinstance(m1, AcceleratedFrameForm) else m1
    c2 = m2.as_chain() if isinstance(m2, AcceleratedFrameForm) else m2
    return ConformalMap(list(c2.chain) + list(c1.chain))


def invert(m: Mappable) -> Mappable:
    return m.inverse()


def canonical_form(m: ConformalMap):
    """Extract (alpha, beta) when the chain is literally inversion, translation,
    inversion; returns None otherwise."""
    ch = m.chain
    if (len(ch) == 3 and isinstance(ch[0], Inversion)
            and isinstance(ch[1], Translation) and isinstance(ch[2], Inversion)):
        b1, t, b2 = ch[0].beta, ch[1].offset, ch[2].beta
        return AcceleratedFrameForm(t / b1, b2 / b1)
    return None


@dataclass(frozen=True)
class IntervalLawReport:
    lhs: float
    rhs: float
    residual: float


def verify_interval_law(m: Mappable, x, xp, rtol=DEFAULT_SINGULAR_RTOL) -> IntervalLawReport:
    """Check (xbar - xbar')^2 = lambda(x) lambda(x') (x - x')^2."""
    x = as_event(x)
    xp = as_event(xp)
    lhs = interval(apply_map(m, x, rtol=rtol), apply_map(m, xp, rtol=rtol))
    rhs = m.factor(x, rtol=rtol) * m.factor(xp, rtol=rtol) * interval(x, xp)
    residual = abs(lhs - rhs) / max(abs(lhs), 1.0)
    return IntervalLawReport(lhs=float(lhs), rhs=float(rhs), residual=float(residual))


# ---------------------------------------------------------------------------
# light rays

@dataclass(frozen=True, eq=False)
class LightRay:
    """x(dt) = origin + direction * dt with a null direction and v^0 = 1."""

    origin: np.ndarray
    direction: np.ndarray
    span: tuple = (-1.0, 1.0)
    tol: float = 1e-9

    def __post_init__(self):
        origin = as_event(self.origin)
        v = as_event(self.direction)
        if v[0] == 0:
            raise ConstraintViolationError("light-ray direction needs v^0 != 0")
        v = v / v[0]
        v[0] = 1.0
        if abs(minkowski_dot(v, v)) > self.tol:
            raise ConstraintViolationError(
                f"direction is not null: v.v = {minkowski_dot(v, v):.3e}")
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "direction", v)
        lo, hi = (float(self.span[0]), float(self.span[1]))
        if not lo < hi:
            raise ConstraintViolationError("span must be an increasing interval")
        object.__setattr__(self, "span", (lo, hi))

    def point(self, dt):
        dt = np.asarray(dt, dtype=float)
        return self.origin + np.multiply.outer(dt, self.direction)


@dataclass(frozen=True)
class LightRayReport:
    """Bookkeeping for the image of a ray: where the scale factor flips sign,
    and whether the sign law sgn(dt) = s * sgn(lambda(x)) sgn(lambda(x'))
    sgn(dtbar) holds with a single global sign s along the whole ray."""

    sign_crossings: tuple
    global_sign: float
    sign_law_ok: bool
    collinearity_residual: float
    time_formula_residual: float


def transform_light_ray(m: Mappable, ray: LightRay, samples=201,
                        rtol=DEFAULT_SINGULAR_RTOL, crossing_guard=1e-3):
    """Map a light ray; returns (image ray, report).

    The image direction is f(x') v / (f(x') v)^0 and image coordinate-time
    intervals are dtbar = (f(x') v)^0 lambda(x) dt.  Sampled points of the
    image must be collinear with that line; the report carries the maximum
    deviation, the parameter values where lambda changes sign, and the sign
    law verdict.
    """
    _, lam_origin, tet = jacobian_tetrad(m, ray.origin, rtol=rtol)
    fv = tet @ ray.direction
    if abs(fv[0]) < rtol:
        raise SingularPointError("image direction degenerate at the ray origin",
                                 residual=fv[0], point=ray.origin)
    vbar = fv / fv[0]
    vbar[0] = 1.0
    origin_bar = apply_map(m, ray.origin, rtol=rtol)

    lo, hi = ray.span
    dts = np.linspace(lo, hi, samples)

    def lam_at(dt):
        return m.factor(ray.point(dt), rtol=rtol)

    lams = np.empty(samples)
    ok = np.zeros(samples, dtype=bool)
    for i, dt in enumerate(dts):
        try:
            lams[i] = lam_at(dt)
            ok[i] = True
        except SingularPointError:
            lams[i] = np.nan

    def inv_lam(dt):
        # 1/lambda crosses zero exactly on the singular set
        try:
            return 1.0 / lam_at(dt)
        except SingularPointError:
            return 0.0

    # scan between consecutive valid samples (a sample landing exactly on the
    # singular set leaves a gap the flip must still be detected across)
    crossings = []
    last = None
    for i in range(samples):
        if not ok[i]:
            continue
        if last is not None and last[1] * lams[i] < 0:
            crossings.append(float(brentq(inv_lam, last[0], dts[i])))
        last = (dts[i], lams[i])

    # verify the time formula, the sign law, and collinearity away from
    # crossings and away from dt = 0
    global_sign = float(np.sign(fv[0] * lam_origin))
    col_res = 0.0
    time_res = 0.0
    law_ok = True
    for i, dt in enumerate(dts):
        if not ok[i] or abs(dt) < crossing_guard:
            continue
        if any(abs(dt - c) < crossing_guard for c in crossings):
            continue
        dtbar = fv[0] * lams[i] * dt
        y = apply_map(m, ray.point(dt), rtol=rtol)
        predicted = origin_bar + vbar * dtbar
        scale = 1.0 + float(np.max(np.abs(y)))
        col_res = max(col_res, float(np.max(np.abs(y - predicted))) / scale)
        time_res = max(time_res, abs((y[0] - origin_bar[0]) - dtbar) / scale)
        if np.sign(dt) != global_sign * np.sign(lams[i]) * np.sign(lam_origin) * np.sign(dtbar):
            law_ok = False

    try:
        image_span_ends = [fv[0] * lam_at(lo) * lo, fv[0] * lam_at(hi) * hi] \
            if not crossings else [-1.0, 1.0]
    except SingularPointError:
        image_span_ends = [-1.0, 1.0]
    image = LightRay(origin_bar, vbar,
                     span=(min(image_span_ends), max(image_span_ends)))
    report = LightRayReport(
        sign_crossings=tuple(crossings),
        global_sign=global_sign,
        sign_law_ok=law_ok,
        collinearity_residual=col_res,
        time_formula_residual=time_res,
    )
    return image, report


# ---------------------------------------------------------------------------
# conformal factor fields and Ricci curvature

@dataclass(frozen=True, eq=False)
class ConformalFactorField:
    """A conformal scale factor with its log-gradient phi_mu and phi_{mu nu}.

    Closed forms are used when constructed from an accelerated-frame map;
    otherwise both derivative fields fall back to 4th-order finite
    differences of ln|lambda|.
    """

    lam: object                 # Callable[[event], float]
    phi: object = None          # Callable[[event], (4,)] or None
    phi2: object = None         # Callable[[event], (4,4)] or None
    step: float = 1e-3

    @classmethod
    def from_form(cls, form: AcceleratedFrameForm, step=1e-3):
        return cls(lam=form.factor, phi=form.phi, phi2=form.phi2, step=step)

    @classmethod
    def from_scalar(cls, lam, step=1e-3):
        return cls(lam=lam, phi=None, phi2=None, step=step)

    def _log_lam(self, x):
        return float(np.log(abs(self.lam(x))))

    def phi_at(self, x):
        if self.phi is not None:
            return np.asarray(self.phi(x), dtype=float)
        return gradient(self._log_lam, x, step=self.step)

    def phi2_at(self, x):
        if self.phi2 is not None:
            return np.asarray(self.phi2(x), dtype=float)
        return hessian(self._log_lam, x, step=self.step)


def ricci_conformal(field: ConformalFactorField, x) -> np.ndarray:
    """Ricci tensor of the metric lambda(x)^2 eta:

    R_{mu nu} = -eta_{mu nu} eta^{ab} (phi_{ab} + 2 phi_a phi_b)
                - 2 (phi_{mu nu} - phi_mu phi_nu)

    Vanishes identically for factors of the accelerated-frame family.
    """
    x = as_event(x)
    ph = field.phi_at(x)
    ph2 = field.phi2_at(x)
    trace = float(np.sum(SIGNATURE * (np.diag(ph2) + 2.0 * ph * ph)))
    return -ETA * trace - 2.0 * (ph2 - np.outer(ph, ph))


# ---------------------------------------------------------------------------
# helpers for building Lorentz primitives

def lorentz_boost(velocity3) -> LorentzTransform:
    """Pure boost with 3-velocity u (|u| < 1)."""
    u = np.asarray(velocity3, dtype=float)
    u2 = float(u @ u)
    if u2 >= 1.0:
        raise ConstraintViolationError("boost speed must be < 1")
    if u2 == 0.0:
        return LorentzTransform(np.eye(4))
    g = 1.0 / np.sqrt(1.0 - u2)
    L = np.eye(4)
    L[0, 0] = g
    L[0, 1:] = L[1:, 0] = -g * u
    L[1:, 1:] = np.eye(3) + (g - 1.0) * np.outer(u, u) / u2
    return LorentzTransform(L)


def spatial_rotation(axis, angle) -> LorentzTransform:
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    K = np.array([[0, -axis[2], axis[1]],
                  [axis[2], 0, -axis[0]],
                  [-axis[1], axis[0], 0]])
    R3 = np.eye(3) + np.sin(angle) * K + (1 - np.cos(angle)) * (K @ K)
    L = np.eye(4)
    L[1:, 1:] = R3
    return LorentzTransform(L)


# ---------------------------------------------------------------------------
# JSON serialization

def map_to_dict(m: Mappable) -> dict:
    if isinstance(m, AcceleratedFrameForm):
        return {"alpha": [float(a) for a in m.alpha], "beta": m.beta}
    out = []
    for p in m.chain:
        if isinstance(p, Translation):
            out.append({"kind": "translation", "b": [float(v) for v in p.offset]})
        elif isinstance(p, LorentzTransform):
            out.append({"kind": "lorentz", "matrix": [[float(v) for v in row]
                                                      for row in p.matrix]})
        elif isinstance(p, Dilation):
            out.append({"kind": "dilation", "s": p.scale})
        else:
            out.append({"kind": "inversion", "beta": p.beta})
    return {"chain": out}


def map_from_dict(d: dict) -> Mappable:
    if "alpha" in d:
        return AcceleratedFrameForm(np.asarray(d["alpha"], dtype=float),
                                    float(d["beta"]))
    chain = []
    for entry in d["chain"]:
        kind = entry["kind"]
        if kind == "translation":
            chain.append(Translation(np.asarray(entry["b"], dtype=float)))
        elif kind == "lorentz":
            chain.append(LorentzTransform(np.asarray(entry["matrix"], dtype=float)))
        elif kind == "dilation":
            chain.append(Dilation(float(entry["s"])))
        elif kind == "inversion":
            chain.append(Inversion(float(entry["beta"])))
        else:
            raise ValueError(f"unknown primitive kind {kind!r}")
    return ConformalMap(chain)


def map_to_json(m: Mappable) -> str:
    return json.dumps(map_to_dict(m))


def map_from_json(s: str) -> Mappable:
    return map_from_dict(json.loads(s))
