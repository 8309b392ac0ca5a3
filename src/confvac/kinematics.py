"""Radiation-reaction kinematics on kinematic states: the Abraham vector
w = vddot + v (vdot.vdot), motion classification, the image of a state under
a conformal map, and the transformation law of w.

Everything here takes a ``KinematicState`` at one proper time or at an array
of them.  Worldlines produce the states: ``HyperbolicWorldline.state`` in
closed form and ``SampledWorldline.state(tau, step)`` from 5-point stencils,
the one place a finite-difference step lives.

w vanishes identically on uniformly accelerated motion (vddot = a^2 v and
vdot.vdot = -a^2), and conformal maps preserve that property: ``image_state``
pushes a state's order-3 Taylor jets through the map's matrix on the null
cone as truncated power series, exact up to rounding, and the image of a
w = 0 state again has w = 0 in the image coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conformal import ConformalMap, jacobian_tetrad, singular_rows
from .conformal import apply_map  # noqa: F401 (re-export)
from .errors import SingularPointError
from .minkowski import ETA, SIGNATURE, KinematicState, minkowski_dot


@dataclass(frozen=True)
class AbrahamVector:
    w: np.ndarray
    residual_norm: float | np.ndarray  # Euclidean norm of w's components, one per state


def abraham_vector(state: KinematicState) -> AbrahamVector:
    """w = vddot + v (vdot.vdot) of one state, or of state rows (one w and
    one norm per proper time)."""
    vdot_sq = minkowski_dot(state.velocity_dot, state.velocity_dot)
    w = state.velocity_ddot + state.velocity * np.expand_dims(vdot_sq, -1)
    norm = np.linalg.norm(w, axis=-1)
    return AbrahamVector(w=w, residual_norm=float(norm) if norm.ndim == 0 else norm)


@dataclass(frozen=True)
class MotionClass:
    kind: str                 # "inertial" | "uniformly_accelerated" | "other"
    accel: float | None
    tol: float


def classify_motion(state: KinematicState, tol=1e-5) -> MotionClass:
    """Classify state rows by the weaker class first: inertial if sup|vdot| <
    tol, uniformly accelerated if sup|w| < tol (a = mean sqrt|vdot.vdot|),
    else other.

    Norms are Euclidean over components (Lorentz-invariant norms of w can
    vanish on null directions).
    """
    sup_vdot = np.max(np.linalg.norm(state.velocity_dot, axis=-1), initial=0.0)
    sup_w = np.max(abraham_vector(state).residual_norm, initial=0.0)
    if sup_vdot < tol:
        return MotionClass(kind="inertial", accel=0.0, tol=tol)
    if sup_w < tol:
        accel = np.sqrt(np.abs(minkowski_dot(state.velocity_dot, state.velocity_dot)))
        return MotionClass(kind="uniformly_accelerated", accel=float(np.mean(accel)), tol=tol)
    return MotionClass(kind="other", accel=None, tol=tol)


@dataclass(frozen=True)
class HillTransformResult:
    """Both evaluations of the image-frame Abraham vector.

    general : J (1/lambda^3) { w + (v v - eta)(phi' - phi phi) v }
    reduced : J (1/lambda^3) w

    They agree whenever the conformal factor belongs to the
    accelerated-frame family; a generic factor breaks the agreement.
    """

    general: np.ndarray
    reduced: np.ndarray

    @property
    def disagreement(self):
        return float(np.max(np.abs(self.general - self.reduced)))


def transform_abraham(m: ConformalMap, state: KinematicState,
                      derivatives=None) -> HillTransformResult:
    """Transformation law of the Abraham vector under a conformal map m.

    The correction term uses phi_mu = d_mu ln|lambda| and phi_{mu nu} =
    d_mu phi_nu at the state's position: the map's closed forms, or the pair
    ``derivatives = (phi, phi2)`` ((4,) and (4, 4)) in their place.
    Derivatives of a non-flat factor (e.g. lambda = exp(t), through
    ``numdiff.gradient_hessian``) demonstrate why the reduced law needs the
    accelerated-frame family.
    """
    x = state.position
    J, lam, _ = jacobian_tetrad(m, x)
    w = abraham_vector(state).w
    ph, ph2 = (m.phi(x), m.phi2(x)) if derivatives is None else derivatives
    v = state.velocity
    # correction_rho = v^sigma (phi_{rho sigma} - phi_rho phi_sigma), lower rho
    corr_lower = (ph2 - np.outer(ph, ph)) @ v
    # contract with (v^nu v^rho - eta^{nu rho}): raise rho via eta
    bracket = w + v * float(v @ corr_lower) - ETA @ corr_lower
    scale = 1.0 / lam**3
    return HillTransformResult(general=scale * (J @ bracket),
                               reduced=scale * (J @ w))


# ---------------------------------------------------------------------------
# truncated power series in s, coefficient-major: c[k] multiplies s^k; vectors
# are (K, ..., 4), scalars (K, ..., 1); a result has as many coefficients as
# the shorter input (one fewer for d/ds)

def _smul(a, b):
    """a b."""
    return np.stack([sum(a[i] * b[k - i] for i in range(k + 1))
                     for k in range(min(len(a), len(b)))])


def _sdot(a, b):
    """Minkowski a.b."""
    return np.vecdot(_smul(a, b), SIGNATURE)[..., None]


def _sdiv(a, b):
    """a / b, for b[0] != 0 and len(b) >= len(a)."""
    q = []
    for k in range(len(a)):
        q.append((a[k] - sum(b[i] * q[k - i] for i in range(1, k + 1))) / b[0])
    return np.stack(q)


def _ssqrt(a):
    """sqrt(a), for a[0] > 0."""
    r = [np.sqrt(a[0])]
    for k in range(1, len(a)):
        r.append((a[k] - sum(r[i] * r[k - i] for i in range(1, k))) / (2.0 * r[0]))
    return np.stack(r)


def _sder(a):
    """da/ds."""
    return np.stack([k * a[k] for k in range(1, len(a))])


def image_state(m: ConformalMap, state: KinematicState) -> KinematicState:
    """The image of a state (one proper time or rows) under a map m of one
    chain: its events, four-velocity, acceleration and the acceleration's
    derivative in image proper time, exact up to rounding, at the source's
    proper times ``tau`` (the image's own proper time is not accumulated).

    The source's order-3 Taylor jet x + v s + vdot s^2 / 2 + vddot s^3 / 6
    in its proper time s lifts to X = (1, x, x^2) as truncated power series,
    Y = M X, and the image Y^mu / Y^+ is one series division; dividing by
    the image speed sqrt(xbar'.xbar') turns s-derivatives into image
    proper-time ones.  No image is sampled, splined or differenced.  A row
    is singular as ``conformal.singular_rows`` says; the
    ``SingularPointError`` names the first, with the Y^+ that the jets would
    divide by as its residual.
    """
    m._one_chain()
    M = m.cone[0][0]
    x = np.stack([state.position, state.velocity, state.velocity_dot / 2.0,
                  state.velocity_ddot / 6.0])
    one = np.zeros(x.shape[:-1] + (1,))
    one[0] = 1.0
    x2 = _sdot(x, x)
    Y = np.concatenate([one, x, x2], axis=-1) @ M.astype(float).T
    den = np.atleast_1d(Y[0, ..., 0])
    singular = singular_rows(den, float(M[0, 5]), x2[0, ..., 0])
    if singular.any():
        i = int(np.argmax(singular))
        raise SingularPointError(
            f"grid point {i} (tau = {np.atleast_1d(state.tau)[i]}) maps through a singular set",
            residual=float(den[i]), point=np.atleast_2d(state.position)[i], index=i)
    dxbar = _sder(_sdiv(Y[..., 1:5], Y[..., :1]))
    speed = _ssqrt(_sdot(dxbar, dxbar))
    u = _sdiv(dxbar, speed)
    a = _sdiv(_sder(u), speed)
    # the leading coefficients as new arrays: a kept state keeps no series alive
    return KinematicState(position=Y[0, ..., 1:5] / Y[0, ..., :1], velocity=u[0].copy(),
                          velocity_dot=a[0].copy(), velocity_ddot=_sder(a)[0] / speed[0],
                          tau=state.tau)
