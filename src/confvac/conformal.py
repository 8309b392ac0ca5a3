"""The conformal group of 4D Minkowski spacetime.

A map is a ``ConformalMap``: m chains of slots, each of one of the five
kinds in the table ``KINDS``: the four primitives (translations, Lorentz
transformations, dilations, inversions) and the accelerated-frame form
``AcceleratedFrameForm``, inversion -> translation -> inversion, with the
signed conformal factor lambda(x) = beta / (1 - 2 alpha.x + alpha^2 x^2).

The group acts linearly on the projective null cone (Dirac, Ann. Math. 37
(1936) 429).  An event x lifts to X = (1, x^mu, x^2), a slot is a 6x6
matrix with a signed scale, and a chain is their product M with the
product s of their scales.  With Y = M X the image is Y^mu / Y^+ and
lambda = s / Y^+, where Y^+ = Y_0 is the product of the slots' denominators
(x^2 for an inversion, 1 - 2 alpha.x + alpha^2 x^2 for a form); J v, the
log-derivatives phi and the tetrad are closed forms of the same Y.  Only
lambda^2 is fixed by the metric pullback: the sign, continuous from the
identity on each side of the singular set Y^+ = 0, is what makes the
light-ray sign law checkable.

The terms of Y^+ cancel next to a singular set, so the slot matrices, M, X
and Y = M X are extended precision (``EXTENDED``); Y is then rounded once.

``ConformalMap.evaluate`` is the one non-raising evaluation, over event
rows (n, 4), row j through chain j mod m with the bits of that chain alone
(every contraction is ``np.vecdot``); ``apply``, ``factor``, ``pushforward``,
``phi``, ``phi2``, ``tetrad`` and ``jacobian_tetrad`` take one event (a batch of
one) or rows and raise ``SingularPointError`` for the first singular one.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConstraintViolationError, SingularPointError
from .minkowski import ETA, SIGNATURE, as_event, interval, lower_index, minkowski_dot

SINGULAR_RTOL = 1e-12   # a row is singular where |Y^+| < SINGULAR_RTOL (1 + |M^+_{x^2} x^2|)
LORENTZ_TOL = 1e-9      # largest max |L^T eta L - eta| of a Lorentz matrix
# x87 extended on x86-64; np.vecdot adds one product after another, so a row
# rounds alike in any stack (in double, images missed by up to 4x a slot walk's)
EXTENDED = np.longdouble


def _rows(x, finite=True):
    """One event (4,) or rows (n, 4) as rows (n, 4), and whether it was one; a
    bad shape, or (if ``finite``) a component that is not finite, raises."""
    rows = np.asarray(x, dtype=float)
    single = rows.shape == (4,)
    rows = rows[None] if single else rows
    if rows.ndim != 2 or rows.shape[1] != 4:
        raise ValueError(f"expected a 4-vector or rows of shape (n, 4), got shape {rows.shape}")
    if finite and not np.isfinite(rows).all():
        raise ValueError("event components must be finite")
    return rows, single


def _checked(m, x, v=None):
    """``m.evaluate`` on one event (4,) or rows (n, 4), raising for the first
    singular row: (images, pushed tangents, signed factors), one event's as
    a (4,) image and a float factor."""
    rows, single = _rows(x)
    images, jv, lam, den, singular = m.evaluate(rows, v)
    _raise_first_singular(rows, den, singular)
    return (images[0], jv, float(lam[0])) if single else (images, jv, lam)


def singular_rows(den, plus_x2, x2):
    """Where |Y^+| < SINGULAR_RTOL (1 + |M^+_{x^2} x^2|): the singular rows."""
    return np.abs(den) < SINGULAR_RTOL * (1.0 + np.abs(plus_x2 * x2))


def _raise_first_singular(rows, den, singular):
    if singular.any():
        i = int(np.argmax(singular))
        raise SingularPointError(
            f"event {rows[i]} lies on a singular set (denominator {den[i]:.3e})",
            residual=float(den[i]), point=rows[i], index=i)


# ---------------------------------------------------------------------------
# primitives
#
# A primitive holds its parameters, one or a stack of m (a leading axis).

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


@dataclass(frozen=True, eq=False)
class Dilation:
    scale: float | np.ndarray   # or (m,) stacked
    apply = _alone

    def __post_init__(self):
        object.__setattr__(self, "scale", _scales(self.scale, "dilation scale"))


@dataclass(frozen=True, eq=False)
class Inversion:
    """xbar = -beta x / x^2, an involution, singular on the light cone x^2 = 0.

    Its signed factor is beta / x^2, so the interval law holds with the
    plain product lambda(x) lambda(x')."""

    beta: float | np.ndarray    # or (m,) stacked
    apply = _alone

    def __post_init__(self):
        object.__setattr__(self, "beta", _scales(self.beta, "inversion scale beta"))


class ConformalMap:
    """m chains of slots, each applied first to last, held as arrays: slot s
    of chain i is of kind c = kinds[i, s] (-1 past the chain's end; every
    chain has a slot 0) with parameters params[c][j][i, s], one array per
    key j of ``KINDS[c]``.  The chains meet event rows cyclically, row j
    chain j mod m.  A map built from a list of primitives is a stack of
    one."""

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

    @classmethod
    def stack(cls, kinds, drawn) -> "ConformalMap":
        """m chains from their slot kinds (m, slots) and ``drawn``, per kind one
        sequence per key of its parameters, chain by chain and slot by slot;
        a bad parameter is named by its chain and slot."""
        self = object.__new__(cls)
        self.kinds, self._drawn = kinds, drawn
        for c, (k, values) in enumerate(zip(KINDS, drawn)):
            try:
                if len(values) and len(values[0]):
                    k.primitive(*values)
            except ConstraintViolationError:
                for j, (i, s) in enumerate(np.argwhere(kinds == c)):
                    try:
                        k.primitive(*(np.asarray(v)[j] for v in values))
                    except ConstraintViolationError as exc:
                        raise ConstraintViolationError(f"chain {i} slot {s}: {exc}") from None
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

    @cached_property
    def cone(self):
        """(M, s): each chain's matrix (m, 6, 6) on X = (1, x, x^2), in extended
        precision, and signed scale (m,): the slot matrices, kind by kind,
        folded first to last, M <- M_slot @ M."""
        m, slots = self.kinds.shape
        mats, scales = np.zeros((m, slots, 6, 6), EXTENDED), np.ones((m, slots))
        for c, (k, values) in enumerate(zip(KINDS, self._drawn)):
            if len(values) and len(values[0]):
                at = self.kinds == c
                mats[at], scales[at] = k.matrix(*(np.reshape(v, (-1,) + shape)
                                                  for v, shape in zip(values, k.shapes)))
        M, s = mats[:, 0], scales[:, 0]
        for j in range(1, slots):
            at = np.flatnonzero(self.kinds[:, j] >= 0)
            # M_slot @ M
            M[at] = np.vecdot(mats[at, j][:, :, None], np.swapaxes(M[at], 1, 2)[:, None])
            s = s * scales[:, j]
        return M, s

    @classmethod
    def identity(cls):
        return cls([])

    def _primitives(self, i):
        return [KINDS[c].primitive(*(p[i, s] for p in self.params[c]))
                for s, c in enumerate(self.kinds[i]) if c >= 0]

    def take(self, i) -> "ConformalMap":
        """Chain i as a stack of one."""
        return ConformalMap(self._primitives(i))

    def _one_chain(self):
        """Raise unless this is a stack of one."""
        if len(self.kinds) != 1:
            raise ValueError(f"a stack of {len(self.kinds)} chains is not one chain; "
                             f"take(i) gives chain i")

    @property
    def chain(self):
        """The primitives of a stack of one, first to last."""
        self._one_chain()
        return self._primitives(0)

    def _lift(self, x, k=5):
        """Event rows (n, 4) as blocks (n / m, m, 4), chain i's at [:, i], with x^2
        and the first k components of Y = M X (Y^+, then Y^mu), rounded once."""
        n, m = len(x), len(self.kinds)
        blocks = n // max(m, 1)
        if n != blocks * m:
            raise ValueError(f"{n} event rows are not whole blocks of the stack's {m} chains")
        x = np.asarray(x, dtype=float).reshape(blocks, m, 4)
        X = np.empty(x.shape[:-1] + (6,), EXTENDED)
        X[..., 0], X[..., 1:5] = 1.0, x
        X[..., 5] = np.vecdot(X[..., 1:5], SIGNATURE * x)
        Y = np.vecdot(self.cone[0][:, :k], X[..., None, :])
        return x, X[..., 5].astype(float), Y.astype(float)

    def _projected(self, x2, Y):
        """(images, signed factors, Y^+, singular) of lifted blocks."""
        den = Y[..., 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            images = Y[..., 1:5] / den[..., None]
            lam = self.cone[1] / den
        return images, lam, den, singular_rows(den, self.cone[0][:, 0, 5], x2)

    def evaluate(self, x, v=None):
        """(images, J v or None, signed factors, Y^+, singular) of event rows x
        (n, 4) and tangent rows v, row j through chain j mod m; never raises.  A
        row is singular as ``singular_rows`` says, and its other values are
        meaningless.  J v = (dY - Y dY^+ / Y^+) / Y^+, dY = M (0, v, 2 x.v)."""
        n = len(x)
        y, x2, Y = self._lift(x)
        images, lam, den, singular = self._projected(x2, Y)
        jv = None
        if v is not None:
            v = np.broadcast_to(np.asarray(v, dtype=float), (n, 4)).reshape(y.shape)
            dX = np.zeros(Y.shape[:-1] + (6,), EXTENDED)
            dX[..., 1:5], dX[..., 5] = v, 2.0 * _mdot(y, v)
            dY = np.vecdot(self.cone[0][:, :5], dX[..., None, :]).astype(float)
            d = Y[..., :1]
            with np.errstate(divide="ignore", invalid="ignore"):
                jv = ((dY[..., 1:5] - Y[..., 1:5] * (dY[..., :1] / d)) / d).reshape(n, 4)
        return images.reshape(n, 4), jv, lam.ravel(), den.ravel(), singular.ravel()

    def apply(self, x):
        return _checked(self, x)[0]

    def factor(self, x):
        return _checked(self, x)[2]

    def pushforward(self, x, v):
        """Images and pushed tangents J v of rows x, v of shape (n, 4)."""
        return _checked(self, x, v)[:2]

    def _closed(self, x, closed_form, k=1, check=True):
        """``closed_form(x, Y)``, Y's first k components, on the blocks of one event
        (4,) or of rows (n, 4), back on the events of x (a scalar for one's).  With
        ``check`` it raises as ``apply`` does, else only for a bad shape."""
        rows = _rows(x, finite=check)[0]
        y, x2, Y = self._lift(rows, k)
        if check:
            singular = singular_rows(Y[..., 0], self.cone[0][:, 0, 5], x2)
            _raise_first_singular(rows, Y[..., 0].ravel(), singular.ravel())
        a = closed_form(y, Y)
        return a.reshape(np.shape(x)[:-1] + a.shape[2:])[()]

    def denominator(self, x):
        """Y^+ = s / lambda, the product of the slots' denominators, even where it is 0."""
        return self._closed(x, lambda x, Y: Y[..., 0], check=False)

    def _phi(self, x, Y):
        M = self.cone[0][:, 0].astype(float)
        return -(M[:, 1:5] + 2.0 * M[:, 5, None] * lower_index(x)) / Y[..., :1]

    def _phi2(self, x, Y):
        ph = self._phi(x, Y)
        scale = 2.0 * self.cone[0][:, 0, 5].astype(float) / Y[..., 0]
        return ph[..., :, None] * ph[..., None, :] - scale[..., None, None] * ETA

    def _tetrad(self, x, Y):
        M, s = self.cone[0][:, 1:5].astype(float), self.cone[1]
        dY = M[:, :, 1:5] + 2.0 * M[:, :, 5, None] * lower_index(x)[..., None, :]
        return (dY + Y[..., 1:5, None] * self._phi(x, Y)[..., None, :]) / s[:, None, None]

    def phi(self, x):
        """phi_mu = d_mu ln|lambda| = -d_mu Y^+ / Y^+, lower index, (4,) or (n, 4)."""
        return self._closed(x, self._phi)

    def _phi_rows(self, rows):
        """``phi`` of rows already checked finite and off the singular sets."""
        return self._closed(rows, self._phi, check=False)

    def phi2(self, x):
        """phi_{mu nu} = d_mu phi_nu = phi_mu phi_nu - 2 M^+_{x^2} eta_{mu nu} / Y^+."""
        return self._closed(x, self._phi2)

    def tetrad(self, x):
        """f = J / lambda = (d_nu Y^mu + Y^mu phi_nu) / s, (4, 4) or (n, 4, 4)."""
        return self._closed(x, self._tetrad, k=5)

    def inverse(self) -> "ConformalMap":
        """Each chain backwards, each slot inverted, its slots first again."""
        kinds = self.kinds[:, ::-1]
        drawn = [k.inverse(*(p[:, ::-1][kinds == c] for p in params))
                 for c, (k, params) in enumerate(zip(KINDS, self.params))]
        first = np.argsort(kinds < 0, axis=1, kind="stable")
        return ConformalMap.stack(np.take_along_axis(kinds, first, axis=1), drawn)


class AcceleratedFrameForm(ConformalMap):
    """Canonical inversion -> translation(alpha) -> inversion(beta) composite:
    xbar = lambda(x) (x - x^2 alpha) with lambda(x) = beta / D and
    D = 1 - 2 alpha.x + alpha^2 x^2, singular only where D vanishes.

    ``alpha`` (4,) and ``beta`` give one form, ``alpha`` (m, 4) and ``beta``
    (m,) stack m, which meet event rows cyclically as the chains of any
    stack do.  As a primitive it is the frame slot of other maps' chains.
    """

    __match_args__ = ("alpha", "beta")    # the frame slot's parameters

    def __init__(self, alpha, beta=1.0):
        self.beta = beta = _scales(beta, "beta")
        if np.ndim(beta) == 0:
            alpha = as_event(alpha)
        else:
            alpha = np.asarray(alpha, dtype=float)
            if alpha.shape != (len(beta), 4):
                raise ValueError(f"stacked forms need alpha (n, 4) and beta (n,), "
                                 f"got shapes {alpha.shape} and {beta.shape}")
            if not np.isfinite(alpha).all():
                raise ValueError("alpha components must be finite")
        self.alpha = alpha
        self.alpha_sq = minkowski_dot(alpha, alpha)
        self.kinds = np.full((np.size(beta), 1), FRAME)
        self._drawn = [()] * FRAME + [(alpha, beta)]

    apply = ConformalMap.apply    # in the form's own dict, where bench/test_bench.py traces it


# ---------------------------------------------------------------------------
# the kinds: matrices (k, 6, 6) and signed scales (k,) from k stacked
# parameters, acting on X = (1, x, x^2) as
#   translation b    (1, x + b, x^2 + 2 b.x + b^2)
#   Lorentz L        (1, L x, x^2)
#   dilation s       (1, s x, s^2 x^2), scale s
#   inversion beta   (x^2, -beta x, beta^2), scale beta

def _blank(k):
    """k zero matrices (k, 6, 6), extended, and a view (k, 6) of their diagonals."""
    M = np.zeros((k, 6, 6), EXTENDED)
    return M, M.reshape(k, 36)[:, ::7]


def _mdot(a, b):
    """a.b of rows (..., 4), in extended precision."""
    return np.vecdot(a.astype(EXTENDED), SIGNATURE * b)


def _translation(b):
    M, diagonal = _blank(len(b))
    diagonal[:] = 1.0
    M[:, 1:5, 0] = b
    M[:, 5, 0] = _mdot(b, b)
    M[:, 5, 1:5] = 2.0 * lower_index(b)
    return M, 1.0


def _lorentz(L):
    M, _ = _blank(len(L))
    M[:, 0, 0] = M[:, 5, 5] = 1.0
    M[:, 1:5, 1:5] = L
    return M, 1.0


def _dilation(s):
    M, diagonal = _blank(len(s))
    diagonal[:, 0] = 1.0
    diagonal[:, 1:5] = s[:, None]
    diagonal[:, 5] = np.square(s.astype(EXTENDED))
    return M, s


def _inversion(beta):
    M, diagonal = _blank(len(beta))
    M[:, 0, 5] = 1.0
    diagonal[:, 1:5] = -beta[:, None]
    M[:, 5, 0] = np.square(beta.astype(EXTENDED))
    return M, beta


def _frame(alpha, beta):
    """inversion(1) -> translation(alpha) -> inversion(beta), scale beta:
    (1 - 2 alpha.x + alpha^2 x^2, beta (x - x^2 alpha), beta^2 x^2)."""
    M, diagonal = _blank(len(beta))
    M[:, 0, 0] = 1.0
    M[:, 0, 1:5] = -2.0 * lower_index(alpha)
    M[:, 0, 5] = _mdot(alpha, alpha)
    diagonal[:, 1:5] = beta[:, None]
    M[:, 1:5, 5] = -beta.astype(EXTENDED)[:, None] * alpha
    M[:, 5, 5] = np.square(beta.astype(EXTENDED))
    return M, beta


# kind c of a chain slot: its primitive, JSON name, JSON key and shape of each parameter,
# and, from stacked parameters, the inverse's parameters and the matrices and scales
Kind = namedtuple("Kind", "primitive name keys shapes inverse matrix")
KINDS = (Kind(Translation, "translation", ("b",), ((4,),), lambda b: (-b,), _translation),
         Kind(LorentzTransform, "lorentz", ("matrix",), ((4, 4),),
              lambda L: (np.linalg.inv(L),), _lorentz),
         Kind(Dilation, "dilation", ("s",), ((),), lambda s: (1.0 / s,), _dilation),
         Kind(Inversion, "inversion", ("beta",), ((),), lambda beta: (beta,),  # an involution
              _inversion),
         Kind(AcceleratedFrameForm, "accelerated-frame", ("alpha", "beta"), ((4,), ()),
              lambda alpha, beta: (-alpha / beta[:, None], 1.0 / beta), _frame))
KIND_OF = {k.primitive: c for c, k in enumerate(KINDS)}
FRAME = KIND_OF[AcceleratedFrameForm]


# ---------------------------------------------------------------------------
# operations

def apply_map(m: ConformalMap, x) -> np.ndarray:
    return m.apply(as_event(x))


def _frames(m: ConformalMap, rows):
    """(images (n, 4), signed factors (n,), Jacobians J = lambda f and
    tetrads f (n, 4, 4)) of event rows, raising for the first singular one;
    all from one lift."""
    y, x2, Y = m._lift(rows)
    images, lam, den, singular = (a.reshape((len(rows),) + a.shape[2:])
                                  for a in m._projected(x2, Y))
    _raise_first_singular(rows, den, singular)
    f = m._tetrad(y, Y).reshape(-1, 4, 4)
    return images, lam, lam[:, None, None] * f, f


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
    span_is_default: bool   # a crossing or a singular end sample: the image span is (-1, 1)


def transform_light_ray(m: ConformalMap, ray: LightRay):
    """Map a light ray; returns (image ray, report).

    The image direction is f v / (f v)^0 with f v = J v / lambda at the
    origin x', and image coordinate-time intervals are
    dtbar = (f(x') v)^0 lambda(x) dt.  The samples along the span are mapped
    in one batch; sampled points of the image must be collinear with that
    line.  The report carries the maximum deviation, the parameter values
    where lambda changes sign (the root of the affine 1/lambda between
    bracketing samples), the sign law verdict, and whether a crossing or a
    singular end sample left the image span at its default (-1, 1).  An
    image direction that is not null raises ``ConstraintViolationError``
    naming the ray origin and the tetrad's defect max |f^T eta f - eta|.
    """
    (origin_bar,), (jv,), (lam_origin,) = _checked(m, ray.origin[None], ray.direction[None])
    fv = jv / lam_origin
    if abs(fv[0]) < DEGENERATE_DIRECTION:
        raise SingularPointError("image direction degenerate at the ray origin",
                                 residual=fv[0], point=ray.origin)
    vbar = fv / fv[0]
    vbar[0] = 1.0
    if abs(minkowski_dot(vbar, vbar)) > NULL_TOL:
        _, _, tet = jacobian_tetrad(m, ray.origin)
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

    default_span = bool(crossings or singular[0] or singular[-1])
    ends = [-1.0, 1.0] if default_span else [fv[0] * lams[0] * lo, fv[0] * lams[-1] * hi]
    image = LightRay(origin_bar, vbar, span=(min(ends), max(ends)))
    report = LightRayReport(
        sign_crossings=tuple(crossings),
        global_sign=global_sign,
        sign_law_ok=law_ok,
        collinearity_residual=col_res,
        time_formula_residual=time_res,
        span_is_default=default_span,
    )
    return image, report


# ---------------------------------------------------------------------------
# Ricci curvature

def ricci_conformal(phi, phi2) -> np.ndarray:
    """Ricci tensor of the metric lambda(x)^2 eta at one event, from
    phi_mu = d_mu ln|lambda| (4,) and phi_{mu nu} = d_mu phi_nu (4, 4) there:

    R_{mu nu} = -eta_{mu nu} eta^{ab} (phi_{ab} + 2 phi_a phi_b)
                - 2 (phi_{mu nu} - phi_mu phi_nu)

    Vanishes identically for conformal factors.  The derivatives come from
    the closed forms (``m.phi``, ``m.phi2``) or from finite differences of
    ln|lambda| alone (``numdiff.gradient_hessian``).
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
