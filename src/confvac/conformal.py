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

Evaluation is batch-first: each map has one non-raising ``evaluate`` over
event rows (n, 4); ``apply``, ``factor`` and ``pushforward`` take one event
(a batch of one) or rows and are built on it, as is ``jacobian_tetrad``.
Singular sets (where the denominator above vanishes) are excluded: these
raise ``SingularPointError`` for the first singular row, carrying its
residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .errors import ConstraintViolationError, SingularPointError
from .minkowski import ETA, SIGNATURE, as_event, interval, lower_index, minkowski_dot

SINGULAR_RTOL = 1e-12   # a row is singular where |den| < SINGULAR_RTOL (1 + |scale|)


def _guard_rows(singular, residual, points):
    """Raise ``SingularPointError`` for the first row flagged singular."""
    if singular.any():
        i = int(np.argmax(singular))
        raise SingularPointError(
            f"event {points[i]} lies on a singular set (denominator {residual[i]:.3e})",
            residual=float(residual[i]), point=points[i], index=i)


def _checked(m, x, v=None):
    """``m.evaluate`` on one event (4,) or rows (n, 4), raising for the first
    singular row: (images, pushed tangents, signed factors), one event's as
    a (4,) image and a float factor."""
    rows = np.asarray(x, dtype=float)
    single = rows.shape == (4,)
    rows = rows[None] if single else rows
    if rows.ndim != 2 or rows.shape[1] != 4:
        raise ValueError(f"expected a 4-vector or rows of shape (n, 4), got shape {rows.shape}")
    if not np.isfinite(rows).all():
        raise ValueError("event components must be finite")
    images, jv, lam, residual, singular = m.evaluate(rows, v)
    _guard_rows(singular, residual, rows)
    return (images[0], jv, float(lam[0])) if single else (images, jv, lam)


# ---------------------------------------------------------------------------
# primitives

class _Primitive:
    """``push(y, dy)`` maps event rows y (n, 4) and tangent rows dy (None, or
    rows broadcasting against y) to (images, pushed tangents, signed step
    factor or None for 1, denominator or None if it divides by nothing)."""

    def apply(self, x):
        """Image of one event or of rows: a chain of this primitive alone."""
        return ConformalMap([self]).apply(x)


@dataclass(frozen=True, eq=False)
class Translation(_Primitive):
    offset: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "offset", as_event(self.offset))

    def push(self, y, dy):
        return y + self.offset, dy, None, None


@dataclass(frozen=True, eq=False)
class LorentzTransform(_Primitive):
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

    def push(self, y, dy):
        # einsum rounds each row as L @ y does; y @ L.T differs in the last bits
        L = self.matrix
        return (np.einsum("ij,nj->ni", L, y),
                None if dy is None else np.einsum("ij,nj->ni", L, dy), None, None)


@dataclass(frozen=True, eq=False)
class Dilation(_Primitive):
    scale: float

    def __post_init__(self):
        if self.scale == 0:
            raise ConstraintViolationError("dilation scale must be nonzero")
        object.__setattr__(self, "scale", float(self.scale))

    def push(self, y, dy):
        s = self.scale
        return s * y, None if dy is None else s * dy, s, None


@dataclass(frozen=True, eq=False)
class Inversion(_Primitive):
    """xbar = -beta x / x^2, an involution, singular on the light cone x^2 = 0.

    Its signed factor is beta / x^2, so the interval law holds with the
    plain product lambda(x) lambda(x')."""

    beta: float

    def __post_init__(self):
        if self.beta == 0:
            raise ConstraintViolationError("inversion scale beta must be nonzero")
        object.__setattr__(self, "beta", float(self.beta))

    def push(self, y, dy):
        y2 = minkowski_dot(y, y)
        if dy is not None:
            reflect = dy - 2.0 * y * (minkowski_dot(y, dy) / y2)[..., None]
            dy = (-self.beta / y2)[..., None] * reflect
        return -self.beta * y / y2[..., None], dy, self.beta / y2, y2


class ConformalMap:
    """Ordered chain of primitives, applied first-to-last."""

    def __init__(self, chain):
        chain = list(chain)
        if not chain:
            chain = [Translation(np.zeros(4))]
        for p in chain:
            if not isinstance(p, _Primitive):
                raise ConstraintViolationError(f"unknown primitive {p!r}")
        self.chain = chain

    @classmethod
    def identity(cls):
        return cls([Translation(np.zeros(4))])

    def evaluate(self, x, v=None):
        """(images, J v or None, signed factors, residuals, singular) of event
        rows x (n, 4) and tangent rows v, carried through the chain; never
        raises.  A row is singular where a primitive's denominator d has
        |d| < SINGULAR_RTOL (1 + |d|); its residual is the first such d (0 on
        regular rows), and its other values are meaningless.
        """
        y, dy = x, v
        lam = np.ones(len(x))
        residual = np.zeros(len(x))
        singular = np.zeros(len(x), dtype=bool)
        with np.errstate(divide="ignore", invalid="ignore"):
            for p in self.chain:
                y, dy, step, den = p.push(y, dy)
                if step is not None:
                    lam = lam * step
                if den is not None:
                    hit = np.abs(den) < SINGULAR_RTOL * (1.0 + np.abs(den))
                    if hit.any():
                        first = hit & ~singular
                        residual[first] = den[first]
                        singular |= hit
        return y, dy, lam, residual, singular

    def apply(self, x):
        return _checked(self, x)[0]

    def factor(self, x):
        return _checked(self, x)[2]

    def pushforward(self, x, v):
        """Images and pushed tangents J v of rows x, v of shape (n, 4)."""
        images, jv, _ = _checked(self, x, np.asarray(v, dtype=float))
        return images, jv

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

    ``alpha`` (n, 4) and ``beta`` (n,) stack n forms for batch checks.  They
    meet event rows cyclically, row j form j mod n, so rows made of whole
    blocks of n (the two events of n pairs, an event's four tangents) meet
    their form in every block; each row gets the bits of its own form.
    """

    alpha: np.ndarray
    beta: float | np.ndarray = 1.0
    alpha_sq: float | np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=float)
        if beta.ndim == 0:
            alpha = as_event(self.alpha)
        else:
            alpha = np.asarray(self.alpha, dtype=float)
            if beta.ndim != 1 or alpha.shape != (len(beta), 4):
                raise ValueError(f"stacked forms need alpha (n, 4) and beta (n,), "
                                 f"got shapes {alpha.shape} and {beta.shape}")
            if not np.isfinite(alpha).all():
                raise ValueError("alpha components must be finite")
        if np.any(beta == 0):
            raise ConstraintViolationError("beta must be nonzero")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", float(beta) if beta.ndim == 0 else beta)
        object.__setattr__(self, "alpha_sq", minkowski_dot(alpha, alpha))

    def _blocks(self, x):
        """Events x (..., 4) as (N / n, n, 4) for n forms (one form is a stack
        of one), so that they broadcast against alpha and beta."""
        return x.reshape(-1, np.size(self.beta), 4)

    def _rows(self, x, *arrays):
        """Arrays computed on ``_blocks(x)`` back on the events of x; one
        event's scalar comes back as a scalar."""
        return tuple(None if a is None else a.reshape(x.shape[:-1] + a.shape[2:])[()]
                     for a in arrays)

    def _denominator(self, y):
        return (1.0 - 2.0 * minkowski_dot(y, self.alpha)
                + self.alpha_sq * minkowski_dot(y, y))

    def denominator(self, x):
        x = np.asarray(x, dtype=float)
        return self._rows(x, self._denominator(self._blocks(x)))[0]

    def evaluate(self, x, v=None):
        """(images, J v or None, signed factors, denominators, singular) of
        event rows x (n, 4) and tangent rows v; never raises.  Closed forms
        xbar = lambda xi with xi = x - x^2 alpha and
        J v = lambda (v + xi (phi.v) - 2 alpha (x.v)); a row is singular where
        |D| < SINGULAR_RTOL (1 + |alpha^2 x^2|).  Stacked forms need v as
        full rows.
        """
        y = self._blocks(x)
        y2 = minkowski_dot(y, y)
        den = 1.0 - 2.0 * minkowski_dot(y, self.alpha) + self.alpha_sq * y2
        singular = np.abs(den) < SINGULAR_RTOL * (1.0 + np.abs(self.alpha_sq * y2))
        with np.errstate(divide="ignore", invalid="ignore"):
            lam = self.beta / den
            xi = y - y2[..., None] * self.alpha
            jv = None
            if v is not None:
                w = self._blocks(v)
                yw = minkowski_dot(y, w)
                phi_w = 2.0 * (minkowski_dot(w, self.alpha) - self.alpha_sq * yw) / den
                jv = lam[..., None] * (w + xi * phi_w[..., None]
                                       - 2.0 * yw[..., None] * self.alpha)
            return self._rows(x, lam[..., None] * xi, jv, lam, den, singular)

    def factor(self, x):
        return _checked(self, x)[2]

    def apply(self, x):
        return _checked(self, x)[0]

    def _phi(self, y, den):
        lowered = np.asarray(self.alpha_sq)[..., None] * lower_index(y)
        return 2.0 * (lower_index(self.alpha) - lowered) / den[..., None]

    def phi(self, x):
        """phi_mu = d_mu ln(lambda), lower index, at one event (4,) or rows
        (n, 4); independent of beta."""
        x = np.asarray(x, dtype=float)
        y = self._blocks(x)
        return self._rows(x, self._phi(y, self._denominator(y)))[0]

    def phi2(self, x):
        """phi_{mu nu} = d_mu phi_nu = phi_mu phi_nu - (2 alpha^2 / D) eta,
        (4, 4) at one event or (n, 4, 4) on rows."""
        x = np.asarray(x, dtype=float)
        y = self._blocks(x)
        den = self._denominator(y)
        ph = self._phi(y, den)
        scale = (2.0 * self.alpha_sq / den)[..., None, None]
        return self._rows(x, ph[..., :, None] * ph[..., None, :] - scale * ETA)[0]

    def pushforward(self, x, v):
        """Images and pushed tangents J v of rows x, v of shape (n, 4)."""
        images, jv, _ = _checked(self, x, np.asarray(v, dtype=float))
        return images, jv

    def as_chain(self) -> ConformalMap:
        return ConformalMap([Inversion(1.0), Translation(self.alpha), Inversion(self.beta)])

    def inverse(self) -> "AcceleratedFrameForm":
        return AcceleratedFrameForm(-self.alpha / self.beta, 1.0 / self.beta)


Mappable = ConformalMap | AcceleratedFrameForm


# ---------------------------------------------------------------------------
# operations

def apply_map(m: Mappable, x) -> np.ndarray:
    return m.apply(as_event(x))


def _frames(m: Mappable, rows):
    """(images (n, 4), signed factors (n,), Jacobians and tetrads f = J / lambda
    (n, 4, 4)) of finite event rows from one evaluation, raising for the
    first singular event.  The rows are pushed four times over, block nu
    with the identity row e_nu, which gives column nu of each J (so n stacked
    forms meet n rows); J is copied to C order, the layout later products
    round with."""
    n = len(rows)
    images, pushed, lam, residual, singular = m.evaluate(
        np.tile(rows, (4, 1)), np.repeat(np.eye(4), n, axis=0))
    _guard_rows(singular[:n], residual[:n], rows)
    J = np.ascontiguousarray(pushed.reshape(4, n, 4).transpose(1, 2, 0))
    lam = lam[:n]
    return images[:n], lam, J, J / lam[:, None, None]


def jacobian_tetrad(m: Mappable, x):
    """(J, lambda, f): Jacobian, signed scale factor, tetrad f = J / lambda.

    J^T eta J = lambda^2 eta, so f is a (pointwise) Lorentz matrix off the
    singular sets.  One evaluation gives all three.
    """
    _, lam, J, f = _frames(m, as_event(x)[None])
    return J[0], float(lam[0]), f[0]


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


def _pair_rows(x, xp):
    """Events x, x' of one pair (4,) or of pair rows (n, 4) as one batch of
    2n finite rows, x rows first, and whether they were one pair."""
    pairs = np.asarray([x, xp], dtype=float)
    if pairs.ndim not in (2, 3) or pairs.shape[-1] != 4 or not np.isfinite(pairs).all():
        raise ValueError(f"expected two finite 4-vectors or two (n, 4) row arrays, "
                         f"got shape {pairs.shape}")
    return pairs.reshape(-1, 4), pairs.ndim == 2


@dataclass(frozen=True)
class IntervalLawReport:
    """Floats for one pair, (n,) arrays for pair rows."""

    lhs: float | np.ndarray
    rhs: float | np.ndarray
    residual: float | np.ndarray
    lam: float | np.ndarray      # lambda(x)
    lam_p: float | np.ndarray    # lambda(x')


def verify_interval_law(m: Mappable, x, xp) -> IntervalLawReport:
    """Check (xbar - xbar')^2 = lambda(x) lambda(x') (x - x')^2 on one pair or
    on pair rows (n stacked forms: pair i by form i), all events evaluated as
    one batch; the report carries both factors."""
    rows, single = _pair_rows(x, xp)
    n = len(rows) // 2
    images, _, lam = _checked(m, rows)
    lhs = interval(images[:n], images[n:])
    rhs = lam[:n] * lam[n:] * interval(rows[:n], rows[n:])
    residual = np.abs(lhs - rhs) / np.maximum(np.abs(lhs), 1.0)
    fields = (lhs, rhs, residual, lam[:n], lam[n:])
    if single:
        fields = (float(a[0]) for a in fields)
    return IntervalLawReport(*fields)


# ---------------------------------------------------------------------------
# light rays

LIGHT_RAY_SAMPLES = 201       # lambda samples along the ray span
CROSSING_GUARD = 1e-3         # residuals skip samples this close to dt = 0 or a crossing
DEGENERATE_DIRECTION = 1e-12  # |(f v)^0| below this leaves no image direction


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


def transform_light_ray(m: Mappable, ray: LightRay):
    """Map a light ray; returns (image ray, report).

    The image direction is f(x') v / (f(x') v)^0 and image coordinate-time
    intervals are dtbar = (f(x') v)^0 lambda(x) dt.  The samples along the
    span are mapped in one batch; sampled points of the image must be
    collinear with that line.  The report carries the maximum deviation, the
    parameter values where lambda changes sign (refined by brentq), and the
    sign law verdict.
    """
    (origin_bar,), (lam_origin,), _, (tet,) = _frames(m, ray.origin[None])
    fv = tet @ ray.direction
    if abs(fv[0]) < DEGENERATE_DIRECTION:
        raise SingularPointError("image direction degenerate at the ray origin",
                                 residual=fv[0], point=ray.origin)
    vbar = fv / fv[0]
    vbar[0] = 1.0

    lo, hi = ray.span
    dts = np.linspace(lo, hi, LIGHT_RAY_SAMPLES)
    images, _, lams, _, singular = m.evaluate(ray.point(dts))

    def inv_lam(dt):
        # 1/lambda crosses zero exactly on the singular set
        try:
            return 1.0 / m.factor(ray.point(dt))
        except SingularPointError:
            return 0.0

    # sign flips between consecutive regular samples (a sample landing exactly
    # on the singular set leaves a gap the flip must still be detected across)
    regular = np.flatnonzero(~singular)
    a, b = regular[:-1], regular[1:]
    flips = lams[a] * lams[b] < 0
    crossings = [float(brentq(inv_lam, dts[i], dts[j])) for i, j in zip(a[flips], b[flips])]

    # the time formula, the sign law and collinearity, away from crossings
    # and from dt = 0
    global_sign = float(np.sign(fv[0] * lam_origin))
    near = np.abs(dts[:, None] - np.array([0.0, *crossings])) < CROSSING_GUARD
    keep = ~singular & ~near.any(axis=1)
    dt, lam, y = dts[keep], lams[keep], images[keep]
    dtbar = fv[0] * lam * dt
    predicted = origin_bar + vbar * dtbar[:, None]
    scale = 1.0 + np.max(np.abs(y), axis=1)
    col_res = float(np.max(np.max(np.abs(y - predicted), axis=1) / scale, initial=0.0))
    time_res = float(np.max(np.abs((y[:, 0] - origin_bar[0]) - dtbar) / scale, initial=0.0))
    law_ok = bool(np.all(np.sign(dt) == global_sign * np.sign(lam) * np.sign(lam_origin)
                         * np.sign(dtbar)))

    ends = ([-1.0, 1.0] if crossings or singular[0] or singular[-1]
            else [fv[0] * lams[0] * lo, fv[0] * lams[-1] * hi])
    image = LightRay(origin_bar, vbar, span=(min(ends), max(ends)))
    report = LightRayReport(
        sign_crossings=tuple(crossings),
        global_sign=global_sign,
        sign_law_ok=law_ok,
        collinearity_residual=col_res,
        time_formula_residual=time_res,
    )
    return image, report


# ---------------------------------------------------------------------------
# Ricci curvature

def ricci_conformal(phi, phi2) -> np.ndarray:
    """Ricci tensor of the metric lambda(x)^2 eta at one event, from
    phi_mu = d_mu ln|lambda| (4,) and phi_{mu nu} = d_mu phi_nu (4, 4) there:

    R_{mu nu} = -eta_{mu nu} eta^{ab} (phi_{ab} + 2 phi_a phi_b)
                - 2 (phi_{mu nu} - phi_mu phi_nu)

    Vanishes identically for factors of the accelerated-frame family.  The
    derivatives come from the closed forms (``form.phi``, ``form.phi2``) or
    from finite differences of ln|lambda| alone
    (``numdiff.gradient_hessian``).
    """
    ph = np.asarray(phi, dtype=float)
    ph2 = np.asarray(phi2, dtype=float)
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
