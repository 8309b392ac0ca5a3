"""Two-dimensional light-cone machinery and mirror scattering.

In 2D the massless wave equation survives arbitrary increasing
reparametrizations u_pm -> f_pm(u_pm) of the light-cone variables
u_pm = t +- x, but only fractional-linear (homographic, unit determinant)
maps preserve the vacuum anticommutator.  The Schwarzian derivative

    S[f] = f'''/f' - (3/2) (f''/f')^2

vanishes exactly on homographies and is used as the numerical membership
detector.  Reflection off a mirror at rest at x = 0 is the exchange
u_+ <-> u_-; scattering off a moving mirror conjugates that exchange by the
frame map fitting the mirror's trajectory.

A ray component gives (f, f', f'', f''') at u through ``jet(u)``: a
``Homography2D`` in closed form or a ``RayRule`` holding a closed-form jet.
Inverses (Newton) and compositions (Faa di Bruno) are components again.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import ConstraintViolationError, PoleError

VERDICT_THRESHOLD = 1e-6   # max |Schwarzian| below this is a homography


# ---------------------------------------------------------------------------
# homographies

@dataclass(frozen=True)
class Homography2D:
    """Increasing fractional-linear map u -> (a u + b) / (c u + d), ad - bc = 1.

    Coefficients are normalized at construction: scaled by 1/sqrt(ad - bc)
    (which must be positive for an increasing map) and sign-fixed so that
    a + d >= 0 when nonzero.
    """

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        det = self.a * self.d - self.b * self.c
        if not det > 0:     # a NaN determinant is rejected too
            raise ConstraintViolationError(
                f"determinant {det} must be positive (increasing map)")
        s = 1.0 / np.sqrt(det)
        a, b, c, d = (self.a * s, self.b * s, self.c * s, self.d * s)
        tr = a + d
        if tr < 0 or (tr == 0 and (a < 0 or (a == 0 and b < 0))):
            a, b, c, d = -a, -b, -c, -d
        object.__setattr__(self, "a", float(a))
        object.__setattr__(self, "b", float(b))
        object.__setattr__(self, "c", float(c))
        object.__setattr__(self, "d", float(d))

    @classmethod
    def identity(cls):
        return cls(1.0, 0.0, 0.0, 1.0)

    @property
    def matrix(self):
        return np.array([[self.a, self.b], [self.c, self.d]])

    def pole(self):
        return -self.d / self.c if self.c != 0 else None

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        den = self.c * u + self.d
        if np.any(np.abs(den) < 1e-14 * (1.0 + np.abs(u))):
            raise PoleError(f"evaluation at the pole u = {self.pole()}")
        out = (self.a * u + self.b) / den
        return float(out) if out.ndim == 0 else out

    def jet(self, u):
        """(f, f', f'', f''') from closed forms (det = 1)."""
        u = np.asarray(u, dtype=float)
        den = self.c * u + self.d
        d1 = 1.0 / den**2
        d2 = -2.0 * self.c / den**3
        d3 = 6.0 * self.c**2 / den**4
        return self(u), d1, d2, d3

    def inverse(self) -> Homography2D:
        return Homography2D(self.d, -self.b, -self.c, self.a)


def homography_compose(h1: Homography2D, h2: Homography2D) -> Homography2D:
    """The map u -> h2(h1(u)) (apply h1 first, then h2)."""
    m = h2.matrix @ h1.matrix
    return Homography2D(m[0, 0], m[0, 1], m[1, 0], m[1, 1])


# ---------------------------------------------------------------------------
# closed-form rules

@dataclass(frozen=True)
class RayRule:
    """Increasing map given by its jet: ``jet(u)`` returns (f, f', f'', f''')
    at u, elementwise for an array u."""

    jet: Callable

    def __call__(self, u):
        return self.jet(u)[0]

    def pole(self):
        return None   # the verdict grid cuts only a homography's pole

    def inverse(self) -> RayRule:
        """f^-1: at the root w of f(w) = u its jet is
        (w, 1/f', -f''/f'^3, (3 f''^2 - f' f''')/f'^5), f's taken at w.

        Newton from w = u moves each point, on its own, until |f(w) - u| is
        within 4 ulp of max(|u|, 1) plus 4 f'(w) ulp(w), the step one ulp of
        w makes in f.  It converges for rules near the identity, as mirror
        maps are.  A w outside that bound, or not finite, raises
        ConstraintViolationError naming the first such u.
        """
        forward = self.jet

        def jet(u):
            u = np.asarray(u, dtype=float)
            with np.errstate(all="ignore"):    # a diverging Newton is caught below
                w = u
                for _ in range(60):
                    f, d1, d2, d3 = forward(w)
                    tol = 4 * (np.spacing(np.maximum(np.abs(u), 1.0))
                               + d1 * np.spacing(np.abs(w)))
                    far = np.abs(f - u) > tol    # NaN compares False
                    if not np.any(far):
                        break
                    w = np.where(far, w - (f - u) / d1, w)
            missed = ~(np.isfinite(tol) & (np.abs(f - u) <= tol))
            if np.any(missed):
                raise ConstraintViolationError(
                    f"no root of f(w) = u for u = {float(u[missed].flat[0])}")
            return w, 1.0 / d1, -d2 / d1**3, (3.0 * d2**2 - d1 * d3) / d1**5

        return RayRule(jet)


RayComponent = Homography2D | RayRule


@dataclass(frozen=True)
class RayMap2D:
    """Pair of light-cone maps (f_plus acting on u_+, f_minus on u_-).

    A mirror-scattering composite reuses the same container with exchanged
    slots: f_plus then gives the outgoing u_+ as a function of the incoming
    u_-, and vice versa.
    """

    f_plus: RayComponent
    f_minus: RayComponent


# ---------------------------------------------------------------------------
# Schwarzian detector

def schwarzian(component: RayComponent, u):
    """S[f] = f'''/f' - (3/2)(f''/f')^2, zero exactly on homographies."""
    _, d1, d2, d3 = component.jet(u)
    if np.any(d1 <= 0):
        raise ConstraintViolationError("component is not increasing on the grid")
    return d3 / d1 - 1.5 * (d2 / d1) ** 2


@dataclass(frozen=True)
class SchwarzianReport:
    max_schwarzian: float
    homographic: bool


def is_homographic(component: RayComponent, grid) -> SchwarzianReport:
    """Membership test for the fractional-linear subgroup on a grid: max
    |Schwarzian| below VERDICT_THRESHOLD."""
    grid = np.asarray(grid, dtype=float)
    s = np.abs(schwarzian(component, grid))
    m = float(np.max(s))
    return SchwarzianReport(max_schwarzian=m, homographic=m < VERDICT_THRESHOLD)


# ---------------------------------------------------------------------------
# accelerated frames and mirror scattering in 2D

def accelerated_frame_maps_2d(alpha, beta) -> RayMap2D:
    """Light-cone form of the 2D inversion-translation-inversion map.

    With light-cone components a_pm = alpha^0 +- alpha^1 the denominator
    factorizes, 1 - 2 alpha.x + alpha^2 x^2 = (1 - a_+ u_-)(1 - a_- u_+),
    and the map splits into the pair of homographies

        u_+ -> beta u_+ / (1 - a_- u_+),   u_- -> beta u_- / (1 - a_+ u_-).

    beta must be positive for increasing components.
    """
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (2,):
        raise ValueError("alpha must be a 2-vector (time, space)")
    if not beta > 0:
        raise ConstraintViolationError(
            f"beta must be positive (a negative scale reverses light-cone order), got {beta}")
    a_plus = alpha[0] + alpha[1]
    a_minus = alpha[0] - alpha[1]
    rb = np.sqrt(beta)
    return RayMap2D(
        f_plus=Homography2D(rb, 0.0, -a_minus / rb, 1.0 / rb),
        f_minus=Homography2D(rb, 0.0, -a_plus / rb, 1.0 / rb),
    )


def _compose_components(first, then):
    """u -> then(first(u)): the matrix product for two homographies, else a
    rule whose jet is Faa di Bruno's formula to third order."""
    if isinstance(first, Homography2D) and isinstance(then, Homography2D):
        return homography_compose(first, then)

    def jet(u):
        f, f1, f2, f3 = first.jet(u)
        g, g1, g2, g3 = then.jet(f)
        return (g, g1 * f1, g2 * f1**2 + g1 * f2,
                g3 * f1**3 + 3.0 * g2 * f1 * f2 + g1 * f3)

    return RayRule(jet)


def mirror_scattering_map(frame: RayMap2D) -> RayMap2D:
    """Input -> output map for reflection off a mirror at rest in ``frame``.

    Transform to the mirror's rest frame, exchange u_+ <-> u_- (reflection at
    x = 0), transform back: outgoing u_+ = f_+^{-1}(f_-(incoming u_-)) and
    outgoing u_- = f_-^{-1}(f_+(incoming u_+)).  The returned components sit
    in exchanged slots (see RayMap2D).
    """
    g_plus = _compose_components(frame.f_minus, frame.f_plus.inverse())
    g_minus = _compose_components(frame.f_plus, frame.f_minus.inverse())
    return RayMap2D(f_plus=g_plus, f_minus=g_minus)


@dataclass(frozen=True)
class MirrorVerdict:
    verdict: str               # "invariant" | "modified"
    evidence: float            # max |Schwarzian| across both components
    ray_map: RayMap2D

    @property
    def invariant(self):
        return self.verdict == "invariant"


def vacuum_verdict(m: RayMap2D) -> MirrorVerdict:
    """Vacuum is preserved iff both light-cone components are homographic
    (max |Schwarzian| below VERDICT_THRESHOLD).

    Evidence is the larger max |Schwarzian| of the two components, on 801
    points of [-1, 1] less those within 0.05 of the component's pole.
    """
    reports = []
    for comp in (m.f_plus, m.f_minus):
        g = np.linspace(-1.0, 1.0, 801)
        pole = comp.pole()
        if pole is not None:
            g = g[np.abs(g - pole) > 0.05]
        reports.append(is_homographic(comp, g))
    evidence = max(r.max_schwarzian for r in reports)
    verdict = "invariant" if all(r.homographic for r in reports) else "modified"
    return MirrorVerdict(verdict=verdict, evidence=evidence, ray_map=m)


# ---------------------------------------------------------------------------
# serialization

def raymap_to_dict(m: RayMap2D) -> dict:
    """JSON form of a pair of homographies; any other component has none and
    raises TypeError naming its type."""
    def comp(c):
        if not isinstance(c, Homography2D):
            raise TypeError(f"only homographies serialise, not {type(c).__name__}")
        return {"kind": "homography", "coeffs": [c.a, c.b, c.c, c.d]}
    return {"f_plus": comp(m.f_plus), "f_minus": comp(m.f_minus)}
