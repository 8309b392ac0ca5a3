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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.interpolate import make_interp_spline

from .errors import ConstraintViolationError, PoleError


class LightConeEvent(NamedTuple):
    u_plus: float
    u_minus: float


def to_lightcone(t, x) -> LightConeEvent:
    """u_pm = t +- x."""
    return LightConeEvent(u_plus=float(t) + float(x), u_minus=float(t) - float(x))


def from_lightcone(u: LightConeEvent):
    """(t, x) from light-cone variables; round-trips exactly."""
    return (0.5 * (u.u_plus + u.u_minus), 0.5 * (u.u_plus - u.u_minus))


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
        if det <= 0:
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

    def derivatives(self, u):
        """(f', f'', f''') from closed forms (det = 1)."""
        u = np.asarray(u, dtype=float)
        den = self.c * u + self.d
        d1 = 1.0 / den**2
        d2 = -2.0 * self.c / den**3
        d3 = 6.0 * self.c**2 / den**4
        return d1, d2, d3

    @property
    def domain(self):
        return None  # entire line minus the pole


def homography_compose(h1: Homography2D, h2: Homography2D) -> Homography2D:
    """The map u -> h2(h1(u)) (apply h1 first, then h2)."""
    m = h2.matrix @ h1.matrix
    return Homography2D(m[0, 0], m[0, 1], m[1, 0], m[1, 1])


def homography_invert(h: Homography2D) -> Homography2D:
    return Homography2D(h.d, -h.b, -h.c, h.a)


# ---------------------------------------------------------------------------
# sampled increasing rules

@dataclass(frozen=True, eq=False)
class SampledRule:
    """Strictly increasing map given by (u, f(u)) samples, interpolated by a
    quintic spline (third derivatives enter the Schwarzian)."""

    u: np.ndarray
    f: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        f = np.asarray(self.f, dtype=float)
        if u.ndim != 1 or u.shape != f.shape or u.size < 4:
            raise ValueError("need matching 1-d sample arrays with >= 4 points")
        if np.any(np.diff(u) <= 0) or np.any(np.diff(f) <= 0):
            raise ConstraintViolationError("sampled rule must be strictly increasing")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "_spline", make_interp_spline(u, f, k=min(5, u.size - 1)))

    @classmethod
    def from_callable(cls, fn, lo, hi, n=2001):
        """Sample ``fn`` on n evenly spaced points of [lo, hi]; ``fn`` takes
        the whole grid array and returns the array of values."""
        u = np.linspace(lo, hi, n)
        return cls(u, np.asarray(fn(u), dtype=float))

    @property
    def domain(self):
        return float(self.u[0]), float(self.u[-1])

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        lo, hi = self.domain
        if np.any(u < lo) or np.any(u > hi):
            raise ValueError(f"argument outside sampled domain [{lo}, {hi}]")
        out = self._spline(u)
        return float(out) if out.ndim == 0 else out

    def derivatives(self, u):
        return (self._spline(u, 1), self._spline(u, 2), self._spline(u, 3))

    def inverse(self) -> "SampledRule":
        return SampledRule(self.f, self.u)


RayComponent = Homography2D | SampledRule


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
    d1, d2, d3 = component.derivatives(u)
    d1 = np.asarray(d1, dtype=float)
    if np.any(d1 <= 0):
        raise ConstraintViolationError("component is not increasing on the grid")
    return d3 / d1 - 1.5 * (d2 / d1) ** 2


@dataclass(frozen=True)
class SchwarzianReport:
    max_schwarzian: float
    homographic: bool
    threshold: float


def is_homographic(component: RayComponent, grid, threshold=1e-6) -> SchwarzianReport:
    """Membership test for the fractional-linear subgroup on a grid."""
    grid = np.asarray(grid, dtype=float)
    s = np.abs(schwarzian(component, grid))
    m = float(np.max(s))
    return SchwarzianReport(max_schwarzian=m, homographic=m < threshold,
                            threshold=threshold)


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
    if beta <= 0:
        raise ConstraintViolationError(
            "beta must be positive: negative scales reverse light-cone order")
    a_plus = alpha[0] + alpha[1]
    a_minus = alpha[0] - alpha[1]
    rb = np.sqrt(beta)
    return RayMap2D(
        f_plus=Homography2D(rb, 0.0, -a_minus / rb, 1.0 / rb),
        f_minus=Homography2D(rb, 0.0, -a_plus / rb, 1.0 / rb),
    )


def _compose_components(first, then):
    """u -> then(first(u)) for homographies or sampled rules."""
    if isinstance(first, Homography2D) and isinstance(then, Homography2D):
        return homography_compose(first, then)
    # numeric composition: pick a grid whose images stay inside domains
    if isinstance(first, SampledRule):
        u = first.u
    else:
        # first is a homography feeding a sampled rule: pull its grid back
        u = homography_invert(first)(then.u)
    return SampledRule(u, then(first(u)))


def _invert_component(component):
    if isinstance(component, Homography2D):
        return homography_invert(component)
    return component.inverse()


def mirror_scattering_map(frame: RayMap2D) -> RayMap2D:
    """Input -> output map for reflection off a mirror at rest in ``frame``.

    Transform to the mirror's rest frame, exchange u_+ <-> u_- (reflection at
    x = 0), transform back: outgoing u_+ = f_+^{-1}(f_-(incoming u_-)) and
    outgoing u_- = f_-^{-1}(f_+(incoming u_+)).  The returned components sit
    in exchanged slots (see RayMap2D).
    """
    g_plus = _compose_components(frame.f_minus, _invert_component(frame.f_plus))
    g_minus = _compose_components(frame.f_plus, _invert_component(frame.f_minus))
    return RayMap2D(f_plus=g_plus, f_minus=g_minus)


@dataclass(frozen=True)
class MirrorVerdict:
    verdict: str               # "invariant" | "modified"
    evidence: float            # max |Schwarzian| across both components
    ray_map: RayMap2D
    threshold: float

    @property
    def invariant(self):
        return self.verdict == "invariant"


def vacuum_verdict(m: RayMap2D, grid=None, threshold=1e-6) -> MirrorVerdict:
    """Vacuum is preserved iff both light-cone components are homographic.

    Evidence is the larger max |Schwarzian| of the two components; grids
    default to [-1, 1] (clipped into sampled domains).
    """
    reports = []
    for comp in (m.f_plus, m.f_minus):
        if grid is None:
            if isinstance(comp, SampledRule):
                lo, hi = comp.domain
                pad = 0.05 * (hi - lo)
                g = np.linspace(lo + pad, hi - pad, 801)
            else:
                g = np.linspace(-1.0, 1.0, 801)
                pole = comp.pole()
                if pole is not None:
                    g = g[np.abs(g - pole) > 0.05]
        else:
            g = np.asarray(grid, dtype=float)
        reports.append(is_homographic(comp, g, threshold=threshold))
    evidence = max(r.max_schwarzian for r in reports)
    verdict = "invariant" if all(r.homographic for r in reports) else "modified"
    return MirrorVerdict(verdict=verdict, evidence=evidence, ray_map=m,
                         threshold=threshold)


def cross_ratio(u1, u2, u3, u4) -> float:
    """(u1-u3)(u2-u4) / ((u1-u4)(u2-u3)); preserved exactly by homographies."""
    return ((u1 - u3) * (u2 - u4)) / ((u1 - u4) * (u2 - u3))


# ---------------------------------------------------------------------------
# serialization

def raymap_to_dict(m: RayMap2D) -> dict:
    def comp(c):
        if isinstance(c, Homography2D):
            return {"kind": "homography", "coeffs": [c.a, c.b, c.c, c.d]}
        return {"kind": "sampled", "u": [float(v) for v in c.u],
                "f": [float(v) for v in c.f]}
    return {"f_plus": comp(m.f_plus), "f_minus": comp(m.f_minus)}


def raymap_from_dict(d: dict) -> RayMap2D:
    def comp(entry):
        if entry["kind"] == "homography":
            return Homography2D(*entry["coeffs"])
        return SampledRule(np.asarray(entry["u"], dtype=float),
                           np.asarray(entry["f"], dtype=float))
    return RayMap2D(f_plus=comp(d["f_plus"]), f_minus=comp(d["f_minus"]))
