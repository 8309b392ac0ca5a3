"""The conformal group of 4D Minkowski spacetime.

A map is a ``ConformalMap``: m chains of slots, each slot of one of the
five kinds in the table ``KINDS``.  Four are the primitives (translations,
Lorentz transformations, dilations, inversions); the fifth is the
accelerated-frame form ``AcceleratedFrameForm``, the composite
inversion -> translation -> inversion with closed forms for the image, the
conformal scale factor

    lambda(x) = beta / (1 - 2 alpha.x + alpha^2 x^2),

its Jacobian and the log-derivatives phi, phi2.  A form is itself a map, m
chains of one frame slot, and the primitive that pushes that slot.  The
scale factor is kept *signed* (continuous from the identity on each side of
the singular set); only lambda^2 is fixed by the metric pullback, and the
sign bookkeeping is what makes the light-ray sign law checkable.

Evaluation is batch-first: ``ConformalMap.evaluate`` is the one
non-raising evaluation, over event rows (n, 4); ``apply``, ``factor`` and
``pushforward`` take one event (a batch of one) or rows and are built on
it, as is ``jacobian_tetrad``.  Event rows meet the chains cyclically, and
at each slot the rows of each kind go through one primitive with stacked
parameters, so every row gets the bits of its own chain alone.
Singular sets (where a denominator vanishes) are excluded: these raise
``SingularPointError`` for the first singular row, carrying its residual.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConstraintViolationError, SingularPointError
from .minkowski import ETA, SIGNATURE, as_event, interval, lower_index, minkowski_dot

SINGULAR_RTOL = 1e-12   # a row is singular where |den| < SINGULAR_RTOL (1 + |scale|)
LORENTZ_TOL = 1e-9      # largest max |L^T eta L - eta| of a Lorentz matrix


def _near_zero(den, scale):
    """Where a denominator counts as vanishing: |den| < SINGULAR_RTOL (1 + |scale|)."""
    return np.abs(den) < SINGULAR_RTOL * (1.0 + np.abs(scale))


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
#
# A primitive holds its parameters, one or a stack of m (a leading axis) that
# meet m event rows one by one: ``push(y, dy)`` maps event rows y (n, 4) and
# tangent rows dy (None, or rows like y) to (images, pushed tangents, signed
# step factor or None for 1, denominator or None if it divides by nothing,
# where that denominator counts as vanishing), broadcasting the parameters
# row by row.

def _scales(value, what):
    """A finite nonzero scale as a float, or a stack of them as an array (m,)."""
    a = np.asarray(value, dtype=float)
    if a.ndim > 1:
        raise ValueError(f"{what} must be a scalar or a stack (m,), got shape {a.shape}")
    if np.any((a == 0) | ~np.isfinite(a)):
        raise ConstraintViolationError(f"{what} must be finite and nonzero")
    return float(a) if a.ndim == 0 else a


def _alone(p, x):
    """Image of one event or of rows under the chain of primitive p alone."""
    return ConformalMap([p]).apply(x)


@dataclass(frozen=True, eq=False)
class Translation:
    offset: np.ndarray      # (4,), or (m, 4) stacked
    apply = _alone

    def __post_init__(self):
        offset = np.asarray(self.offset, dtype=float)
        if offset.ndim != 2:
            offset = as_event(offset)
        elif offset.shape[1] != 4 or not np.isfinite(offset).all():
            raise ValueError(f"stacked offsets must be finite rows (m, 4), "
                             f"got shape {offset.shape}")
        object.__setattr__(self, "offset", offset)

    def push(self, y, dy):
        return y + self.offset, dy, None, None, None


@dataclass(frozen=True, eq=False)
class LorentzTransform:
    matrix: np.ndarray      # (4, 4), or (m, 4, 4) stacked
    apply = _alone

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim not in (2, 3) or m.shape[-2:] != (4, 4):
            raise ConstraintViolationError("Lorentz matrix must be 4x4")
        defect = np.max(np.abs(np.swapaxes(m, -1, -2) @ ETA @ m - ETA), axis=(-2, -1))
        bad = np.flatnonzero(~(defect <= LORENTZ_TOL))   # a NaN defect is bad too
        if bad.size:
            which = "matrix" if m.ndim == 2 else f"matrix {bad[0]} of the stack"
            raise ConstraintViolationError(
                f"{which} is not Lorentz: max |L^T eta L - eta| = {defect.flat[bad[0]]:.3e}")
        object.__setattr__(self, "matrix", m)

    def push(self, y, dy):
        # einsum rounds each row as L @ y does; y @ L.T differs in the last bits
        L = self.matrix
        return (np.einsum("...ij,...j->...i", L, y),
                None if dy is None else np.einsum("...ij,...j->...i", L, dy),
                None, None, None)


@dataclass(frozen=True, eq=False)
class Dilation:
    scale: float | np.ndarray   # or (m,) stacked
    apply = _alone

    def __post_init__(self):
        object.__setattr__(self, "scale", _scales(self.scale, "dilation scale"))

    def push(self, y, dy):
        s = np.asarray(self.scale)[..., None]
        return s * y, None if dy is None else s * dy, self.scale, None, None


@dataclass(frozen=True, eq=False)
class Inversion:
    """xbar = -beta x / x^2, an involution, singular on the light cone x^2 = 0.

    Its signed factor is beta / x^2, so the interval law holds with the
    plain product lambda(x) lambda(x')."""

    beta: float | np.ndarray    # or (m,) stacked
    apply = _alone

    def __post_init__(self):
        object.__setattr__(self, "beta", _scales(self.beta, "inversion scale beta"))

    def push(self, y, dy):
        beta = np.asarray(self.beta)[..., None]
        y2 = minkowski_dot(y, y)
        if dy is not None:
            reflect = dy - 2.0 * y * (minkowski_dot(y, dy) / y2)[..., None]
            dy = (-beta / y2[..., None]) * reflect
        return -beta * y / y2[..., None], dy, self.beta / y2, y2, _near_zero(y2, y2)


class ConformalMap:
    """m chains of slots, each applied first to last, held as arrays: slot s
    of chain i is of kind c = kinds[i, s] (-1 past the chain's end) with
    parameters params[c][j][i, s], one array per key j of ``KINDS[c]``.
    The chains meet event rows cyclically, row j chain j mod m.  A map built
    from a list of primitives is a stack of one."""

    def __init__(self, chain):
        """A stack of one: the primitives of ``chain``, first to last (the
        identity translation if there are none), one per slot."""
        chain = list(chain) or [Translation(np.zeros(4))]
        for p in chain:
            if type(p) not in KIND_OF:
                raise ConstraintViolationError(f"unknown primitive {p!r}")
        self.kinds = np.array([[KIND_OF[type(p)] for p in chain]])
        # a primitive's positional fields are its parameters, in key order
        self._drawn = [[[getattr(p, name) for p in chain if type(p) is k.primitive]
                        for name in k.primitive.__match_args__] for k in KINDS]
        self._steps = [[(p, slice(None))] for p in chain]

    @classmethod
    def stack(cls, kinds, drawn) -> "ConformalMap":
        """m chains from their slot kinds (m, slots) and ``drawn``, for each
        kind one sequence per key of its parameters in slot order, chain by
        chain.  At each slot, one primitive per kind is stacked from the
        parameters of its chains, sliced where it serves all of them."""
        self = object.__new__(cls)
        self.kinds, self._drawn = kinds, drawn
        self._steps = []
        for s, column in enumerate(kinds.T):
            self._steps.append([])
            for c in range(len(KINDS)):
                at = np.flatnonzero(column == c)
                if len(at):
                    at = slice(None) if len(at) == len(kinds) else at
                    self._steps[-1].append((self._slot(c, at, s), at))
        return self

    @cached_property
    def params(self):
        """The drawn parameters as zero-filled arrays (m, slots, *shape),
        built on first use."""
        params = tuple(tuple(np.zeros(self.kinds.shape + shape) for shape in k.shapes)
                       for k in KINDS)
        for c, (k, values) in enumerate(zip(KINDS, self._drawn)):
            at = self.kinds == c
            for a, shape, value in zip(params[c], k.shapes, values):
                a[at] = np.reshape(value, (-1,) + shape)
        return params

    def _slot(self, c, at, s):
        """The primitive of kind c at slot s of chains ``at``, stacked; a bad
        parameter is named by its chain and slot."""
        k = KINDS[c]
        try:
            return k.primitive(*(p[at, s] for p in self.params[c]))
        except ConstraintViolationError:
            for i in np.arange(len(self.kinds))[at]:
                try:
                    k.primitive(*(p[i, s] for p in self.params[c]))
                except ConstraintViolationError as exc:
                    raise ConstraintViolationError(f"chain {i} slot {s}: {exc}") from None
            raise

    @classmethod
    def identity(cls):
        return cls([])

    def _primitives(self, i):
        return [KINDS[c].primitive(*(p[i, s] for p in self.params[c]))
                for s, c in enumerate(self.kinds[i]) if c >= 0]

    def take(self, i) -> "ConformalMap":
        """Chain i as a stack of one."""
        return ConformalMap(self._primitives(i))

    @property
    def chain(self):
        """The primitives of a stack of one, first to last."""
        if len(self.kinds) != 1:
            raise ValueError(f"a stack of {len(self.kinds)} chains is not one chain; "
                             f"take(i) gives chain i")
        return self._primitives(0)

    def evaluate(self, x, v=None):
        """(images, J v or None, signed factors, residuals, singular) of event
        rows x (n, 4) and tangent rows v, row j through chain j mod m; never
        raises for a singular row, where a slot's denominator counts as
        vanishing: its residual is the first such denominator (0 on regular
        rows), and its other values are meaningless."""
        n, m = len(x), len(self.kinds)
        blocks = n // max(m, 1)
        if n != blocks * m:
            raise ValueError(f"{n} event rows are not whole blocks of the stack's {m} chains")
        rows = (blocks, m, 4)    # the rows of chain i are [:, i]
        y = np.array(x, dtype=float).reshape(rows)
        dy = None if v is None else np.array(np.broadcast_to(v, (n, 4)), dtype=float).reshape(rows)
        lam = np.ones(y.shape[:2])
        residual = np.zeros(y.shape[:2])
        singular = np.zeros(y.shape[:2], dtype=bool)
        with np.errstate(divide="ignore", invalid="ignore"):
            for step in self._steps:
                for p, at in step:
                    y[:, at], jv, factor, den, hit = p.push(
                        y[:, at], None if dy is None else dy[:, at])
                    if dy is not None:
                        dy[:, at] = jv
                    if factor is not None:
                        lam[:, at] *= factor
                    if den is not None and hit.any():
                        residual[:, at] = np.where(hit & ~singular[:, at], den, residual[:, at])
                        singular[:, at] |= hit
        return (y.reshape(n, 4), None if dy is None else dy.reshape(n, 4),
                lam.ravel(), residual.ravel(), singular.ravel())

    def apply(self, x):
        return _checked(self, x)[0]

    def factor(self, x):
        return _checked(self, x)[2]

    def pushforward(self, x, v):
        """Images and pushed tangents J v of rows x, v of shape (n, 4)."""
        images, jv, _ = _checked(self, x, np.asarray(v, dtype=float))
        return images, jv

    def inverse(self) -> "ConformalMap":
        """Each chain backwards, each slot inverted."""
        kinds = self.kinds[:, ::-1]
        return ConformalMap.stack(kinds, [k.inverse(*(p[:, ::-1][kinds == c] for p in params))
                                          for c, (k, params) in enumerate(zip(KINDS, self.params))])


class AcceleratedFrameForm(ConformalMap):
    """Canonical inversion -> translation(alpha) -> inversion(beta) composite.

    Closed forms: xbar = lambda(x) (x - x^2 alpha) with
    lambda(x) = beta / (1 - 2 alpha.x + alpha^2 x^2).  The composite formula
    extends continuously across the inner light cone x^2 = 0 where the raw
    three-primitive chain is undefined, so the only singular set kept here is
    the vanishing denominator.

    A form is the map of m chains of one frame slot, and it pushes that
    slot itself: ``alpha`` (4,) and ``beta`` give one form, ``alpha`` (m, 4)
    and ``beta`` (m,) stack m, which meet event rows cyclically, row j form
    j mod m, as the chains of any stack do.  As a primitive it is the frame
    slot of other maps' chains.
    """

    __match_args__ = ("alpha", "beta")    # the frame slot's parameters

    def __init__(self, alpha, beta=1.0):
        beta = np.asarray(beta, dtype=float)
        if beta.ndim == 0:
            alpha = as_event(alpha)
        else:
            alpha = np.asarray(alpha, dtype=float)
            if beta.ndim != 1 or alpha.shape != (len(beta), 4):
                raise ValueError(f"stacked forms need alpha (n, 4) and beta (n,), "
                                 f"got shapes {alpha.shape} and {beta.shape}")
            if not np.isfinite(alpha).all():
                raise ValueError("alpha components must be finite")
        if np.any((beta == 0) | ~np.isfinite(beta)):
            raise ConstraintViolationError("beta must be finite and nonzero")
        self.alpha = alpha
        self.beta = float(beta) if beta.ndim == 0 else beta
        self.alpha_sq = minkowski_dot(alpha, alpha)
        self.kinds = np.full((beta.size, 1), FRAME)
        self._drawn = [()] * FRAME + [(alpha, beta)]
        self._steps = [[(self, slice(None))]]

    apply = ConformalMap.apply    # in the form's own dict, where bench/test_bench.py traces it

    def push(self, y, dy):
        """xbar = lambda xi with xi = x - x^2 alpha and
        J v = lambda (v + xi (phi.v) - 2 alpha (x.v)); the denominator D
        vanishes where |D| < SINGULAR_RTOL (1 + |alpha^2 x^2|)."""
        y2 = minkowski_dot(y, y)
        den = 1.0 - 2.0 * minkowski_dot(y, self.alpha) + self.alpha_sq * y2
        lam = self.beta / den
        xi = y - y2[..., None] * self.alpha
        if dy is not None:
            yw = minkowski_dot(y, dy)
            phi_w = 2.0 * (minkowski_dot(dy, self.alpha) - self.alpha_sq * yw) / den
            dy = lam[..., None] * (dy + xi * phi_w[..., None] - 2.0 * yw[..., None] * self.alpha)
        return lam[..., None] * xi, dy, lam, den, _near_zero(den, self.alpha_sq * y2)

    def _blocks(self, x):
        """Events x (..., 4) as (N / m, m, 4) for m forms (one form is a stack
        of one), so that they broadcast against alpha and beta; no events
        are (0, m, 4), also for m = 0."""
        return x.reshape(-1 if x.size else 0, len(self.kinds), 4)

    def _rows(self, x, a):
        """An array computed on ``_blocks(x)`` back on the events of x; one
        event's scalar comes back as a scalar."""
        return a.reshape(x.shape[:-1] + a.shape[2:])[()]

    def _denominator(self, y):
        return (1.0 - 2.0 * minkowski_dot(y, self.alpha)
                + self.alpha_sq * minkowski_dot(y, y))

    def denominator(self, x):
        x = np.asarray(x, dtype=float)
        return self._rows(x, self._denominator(self._blocks(x)))

    def _phi(self, y, den):
        lowered = np.asarray(self.alpha_sq)[..., None] * lower_index(y)
        return 2.0 * (lower_index(self.alpha) - lowered) / den[..., None]

    def phi(self, x):
        """phi_mu = d_mu ln(lambda), lower index, at one event (4,) or rows
        (n, 4); independent of beta."""
        x = np.asarray(x, dtype=float)
        y = self._blocks(x)
        return self._rows(x, self._phi(y, self._denominator(y)))

    def phi2(self, x):
        """phi_{mu nu} = d_mu phi_nu = phi_mu phi_nu - (2 alpha^2 / D) eta,
        (4, 4) at one event or (n, 4, 4) on rows."""
        x = np.asarray(x, dtype=float)
        y = self._blocks(x)
        den = self._denominator(y)
        ph = self._phi(y, den)
        scale = (2.0 * self.alpha_sq / den)[..., None, None]
        return self._rows(x, ph[..., :, None] * ph[..., None, :] - scale * ETA)


# kind c of a chain slot: its primitive, its name in the map JSON, the JSON key
# and shape of each of its parameters, and the inverse's parameters from
# stacked ones
Kind = namedtuple("Kind", "primitive name keys shapes inverse")
KINDS = (Kind(Translation, "translation", ("b",), ((4,),), lambda b: (-b,)),
         Kind(LorentzTransform, "lorentz", ("matrix",), ((4, 4),), lambda L: (np.linalg.inv(L),)),
         Kind(Dilation, "dilation", ("s",), ((),), lambda s: (1.0 / s,)),
         Kind(Inversion, "inversion", ("beta",), ((),), lambda beta: (beta,)),  # an involution
         Kind(AcceleratedFrameForm, "accelerated-frame", ("alpha", "beta"), ((4,), ()),
              lambda alpha, beta: (-alpha / beta[:, None], 1.0 / beta)))
KIND_OF = {k.primitive: c for c, k in enumerate(KINDS)}
FRAME = KIND_OF[AcceleratedFrameForm]


# ---------------------------------------------------------------------------
# operations

def apply_map(m: ConformalMap, x) -> np.ndarray:
    return m.apply(as_event(x))


def _frames(m: ConformalMap, rows):
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


def jacobian_tetrad(m: ConformalMap, x):
    """(J, lambda, f): Jacobian, signed scale factor, tetrad f = J / lambda.

    J^T eta J = lambda^2 eta, so f is a (pointwise) Lorentz matrix off the
    singular sets.  One evaluation gives all three.
    """
    _, lam, J, f = _frames(m, as_event(x)[None])
    return J[0], float(lam[0]), f[0]


def compose(m1: ConformalMap, m2: ConformalMap) -> ConformalMap:
    """Map acting as m1 after m2: apply(compose(m1, m2), x) = m1(m2(x))."""
    return ConformalMap(m2.chain + m1.chain)


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

    @classmethod
    def from_images(cls, rows, images, lam) -> "IntervalLawReport":
        """The law on 2n pair rows (x rows first), from their images and
        signed factors."""
        n = len(rows) // 2
        lhs = interval(images[:n], images[n:])
        rhs = lam[:n] * lam[n:] * interval(rows[:n], rows[n:])
        residual = np.abs(lhs - rhs) / np.maximum(np.abs(lhs), 1.0)
        return cls(lhs, rhs, residual, lam[:n], lam[n:])


def verify_interval_law(m: ConformalMap, x, xp) -> IntervalLawReport:
    """Check (xbar - xbar')^2 = lambda(x) lambda(x') (x - x')^2 on one pair or
    on pair rows (n stacked forms: pair i by form i), all events evaluated as
    one batch; the report carries both factors."""
    rows, single = _pair_rows(x, xp)
    images, _, lam = _checked(m, rows)
    report = IntervalLawReport.from_images(rows, images, lam)
    return IntervalLawReport(*(float(a[0]) for a in vars(report).values())) if single else report


# ---------------------------------------------------------------------------
# light rays

LIGHT_RAY_SAMPLES = 201       # lambda samples along the ray span
CROSSING_GUARD = 1e-3         # residuals skip samples this close to dt = 0 or a crossing
DEGENERATE_DIRECTION = 1e-12  # |(f v)^0| below this leaves no image direction
NULL_TOL = 1e-9               # largest |v.v| of a null direction with v^0 = 1


@dataclass(frozen=True, eq=False)
class LightRay:
    """x(dt) = origin + direction * dt with a null direction and v^0 = 1."""

    origin: np.ndarray
    direction: np.ndarray
    span: tuple = (-1.0, 1.0)

    def __post_init__(self):
        origin = as_event(self.origin)
        v = as_event(self.direction)
        if v[0] == 0:
            raise ConstraintViolationError("light-ray direction needs v^0 != 0")
        v = v / v[0]
        v[0] = 1.0
        if abs(minkowski_dot(v, v)) > NULL_TOL:
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


def transform_light_ray(m: ConformalMap, ray: LightRay):
    """Map a light ray; returns (image ray, report).

    The image direction is f(x') v / (f(x') v)^0 and image coordinate-time
    intervals are dtbar = (f(x') v)^0 lambda(x) dt.  The samples along the
    span are mapped in one batch; sampled points of the image must be
    collinear with that line.  The report carries the maximum deviation, the
    parameter values where lambda changes sign (the root of the affine
    1/lambda between bracketing samples), and the sign law verdict.  An
    image direction that is not null raises ``ConstraintViolationError``
    naming the ray origin and the tetrad's defect max |f^T eta f - eta|.
    """
    (origin_bar,), (lam_origin,), _, (tet,) = _frames(m, ray.origin[None])
    fv = tet @ ray.direction
    if abs(fv[0]) < DEGENERATE_DIRECTION:
        raise SingularPointError("image direction degenerate at the ray origin",
                                 residual=fv[0], point=ray.origin)
    vbar = fv / fv[0]
    vbar[0] = 1.0
    if abs(minkowski_dot(vbar, vbar)) > NULL_TOL:
        defect = np.max(np.abs(tet.T @ ETA @ tet - ETA))
        raise ConstraintViolationError(
            f"image of the ray at origin {ray.origin.tolist()} is not null: the "
            f"tetrad there misses f^T eta f = eta by {defect:.1e}")

    lo, hi = ray.span
    dts = np.linspace(lo, hi, LIGHT_RAY_SAMPLES)
    images, _, lams, _, singular = m.evaluate(ray.point(dts))

    # sign flips between consecutive regular samples (a sample landing exactly
    # on the singular set leaves a gap the flip must still be detected across);
    # 1/lambda = a + b.x + c x^2 is affine in dt along a null ray, so each
    # crossing is the root of the line through its two bracketing samples
    regular = np.flatnonzero(~singular)
    flip = np.flatnonzero(lams[regular[:-1]] * lams[regular[1:]] < 0)
    i, j = regular[flip], regular[flip + 1]
    crossings = ((dts[i] / lams[j] - dts[j] / lams[i]) / (1 / lams[j] - 1 / lams[i])).tolist()

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

def boost_matrix(velocity3) -> np.ndarray:
    """Matrix (4, 4) of the pure boost with 3-velocity u (|u| < 1), or a
    stack (m, 4, 4) of them for velocities (m, 3)."""
    u = np.asarray(velocity3, dtype=float)
    u2 = np.vecdot(u, u)[..., None, None]     # rounds as u @ u does
    if np.any(u2 >= 1.0):
        raise ConstraintViolationError("boost speed must be < 1")
    g = 1.0 / np.sqrt(1.0 - u2)
    L = np.empty(u.shape[:-1] + (4, 4))
    L[..., :1, :1] = g
    L[..., :1, 1:] = -g * u[..., None, :]
    L[..., 1:, :1] = -g * u[..., :, None]
    # at u = 0 the outer product 0 is divided by 1: the identity
    outer = (g - 1.0) * (u[..., :, None] * u[..., None, :])
    L[..., 1:, 1:] = np.eye(3) + outer / np.where(u2 == 0.0, 1.0, u2)
    return L


def lorentz_boost(velocity3) -> LorentzTransform:
    """Pure boost with 3-velocity u (|u| < 1)."""
    return LorentzTransform(boost_matrix(velocity3))


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

def map_to_dict(m: ConformalMap) -> dict:
    """The JSON of a stack of one: ``{"alpha", "beta"}`` for a map that is one
    frame slot, else its chain of entries."""
    if len(m.kinds) != 1:
        raise ValueError(f"a stack of {len(m.kinds)} chains is not one map; take(i) gives chain i")
    chain = [{"kind": KINDS[c].name, **{key: p[0, s].tolist()
                                        for key, p in zip(KINDS[c].keys, m.params[c])}}
             for s, c in enumerate(m.kinds[0]) if c >= 0]
    if [entry["kind"] for entry in chain] == [KINDS[FRAME].name]:
        return {key: chain[0][key] for key in KINDS[FRAME].keys}
    return {"chain": chain}


def _entry(d, where):
    if not isinstance(d, dict):
        raise ValueError(f"{where} is not a JSON object: {d!r}")
    return d


def _key(d, key, where):
    if key not in _entry(d, where):
        raise ValueError(f"{where} lacks key {key!r}")
    return d[key]


SHAPE_WORDS = {(): "a number", (4,): "a list of 4 numbers", (4, 4): "a 4x4 list of numbers"}


def _param(d, key, shape, where):
    """d[key] as a float array of ``shape``."""
    value = _key(d, key, where)
    try:
        a = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        a = None
    if a is None or a.shape != shape:
        raise ValueError(f"{where} key {key!r} must be {SHAPE_WORDS[shape]}, got {value!r}")
    return a


def _made(k, d, where):
    """The primitive of kind k from the JSON object d."""
    return k.primitive(*(_param(d, key, shape, where) for key, shape in zip(k.keys, k.shapes)))


def map_from_dict(d) -> ConformalMap:
    """The map of ``map_to_dict``; an entry that is not a JSON object, a
    missing key or a parameter of the wrong shape raises ``ValueError``
    naming the entry and the key."""
    if "alpha" in _entry(d, "map"):
        return _made(KINDS[FRAME], d, "accelerated-frame map")
    chain = _key(d, "chain", "map without 'alpha'")
    if not isinstance(chain, list):
        raise ValueError(f"map key 'chain' is not a list: {chain!r}")
    primitives = []
    for i, entry in enumerate(chain):
        kind = _key(entry, "kind", f"chain entry {i}")
        k = next((k for k in KINDS if k.name == kind), None)
        if k is None:
            raise ValueError(f"chain entry {i}: unknown primitive kind {kind!r}")
        primitives.append(_made(k, entry, f"chain entry {i} ({kind})"))
    return ConformalMap(primitives)
