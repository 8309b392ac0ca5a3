"""Radiation-reaction kinematics: the Abraham vector w = vddot + v (vdot.vdot),
motion classification, pushforward of worldlines through conformal maps, and
the transformation law of w under an accelerated-frame map.

w vanishes identically on uniformly accelerated motion (vddot = a^2 v and
vdot.vdot = -a^2), and conformal maps preserve that property: the pushforward
of a w = 0 worldline again has w = 0 in the image coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conformal import (AcceleratedFrameForm, Mappable, apply_map,
                        jacobian_tetrad)  # noqa: F401  (apply_map re-exported)
from .errors import SingularPointError
from .minkowski import ETA, KinematicState, SampledWorldline, Worldline, minkowski_dot
from .numdiff import OFFSETS, W_D1, W_D2, W_D3


@dataclass(frozen=True)
class AbrahamVector:
    w: np.ndarray
    residual_norm: float  # Euclidean norm of components, used for classification


def abraham_vector(worldline: Worldline, tau, step=1e-3) -> AbrahamVector:
    """w = vddot + v (vdot.vdot) at proper time tau."""
    st = worldline.state(tau, step=step)
    w = _abraham_w(st.velocity, st.velocity_dot, st.velocity_ddot)
    return AbrahamVector(w=w, residual_norm=float(np.linalg.norm(w)))


def abraham_norms_on_grid(worldline: Worldline, taus, step=1e-3) -> np.ndarray:
    """Euclidean norms of w at many proper times, one vectorized sweep.

    Same 5-point stencils as ``SampledWorldline.state``; all stencil points
    must lie inside the worldline's domain.
    """
    taus = np.asarray(taus, dtype=float)
    pts = worldline.position((taus[:, None] + OFFSETS[None, :] * step).ravel())
    pts = pts.reshape(taus.size, 5, 4)
    v = np.einsum("s,nsk->nk", W_D1, pts) / step
    vdot = np.einsum("s,nsk->nk", W_D2, pts) / step**2
    vddot = np.einsum("s,nsk->nk", W_D3, pts) / step**3
    return np.linalg.norm(_abraham_w(v, vdot, vddot), axis=-1)


def _abraham_w(velocity, velocity_dot, velocity_ddot) -> np.ndarray:
    """w from the four-velocity and its derivatives, one row per proper time."""
    vdot_sq = minkowski_dot(velocity_dot, velocity_dot)
    return velocity_ddot + velocity * np.expand_dims(vdot_sq, -1)


@dataclass(frozen=True)
class MotionClass:
    kind: str                 # "inertial" | "uniformly_accelerated" | "other"
    accel: float | None
    tol: float

    @property
    def is_uniformly_accelerated(self):
        """Inertial motion is the a = 0 member of the uniformly accelerated family."""
        return self.kind in ("inertial", "uniformly_accelerated")


def classify_motion(worldline: Worldline, grid, step=1e-3, tol=1e-5) -> MotionClass:
    """Classify by the weaker class first: inertial if sup|vdot| < tol,
    uniformly accelerated if sup|w| < tol (a = mean sqrt|vdot.vdot|), else other.

    Norms are Euclidean over components (Lorentz-invariant norms of w can
    vanish on null directions).  Grid endpoints are excluded.
    """
    grid = np.asarray(grid, dtype=float)
    interior = grid[1:-1] if grid.size > 2 else grid
    st = worldline.state(interior, step=step)
    sup_vdot = np.max(np.linalg.norm(st.velocity_dot, axis=-1), initial=0.0)
    w = _abraham_w(st.velocity, st.velocity_dot, st.velocity_ddot)
    sup_w = np.max(np.linalg.norm(w, axis=-1), initial=0.0)
    if sup_vdot < tol:
        return MotionClass(kind="inertial", accel=0.0, tol=tol)
    if sup_w < tol:
        accel = np.sqrt(np.abs(minkowski_dot(st.velocity_dot, st.velocity_dot)))
        return MotionClass(kind="uniformly_accelerated", accel=float(np.mean(accel)), tol=tol)
    return MotionClass(kind="other", accel=None, tol=tol)


def pushforward_worldline(m: Mappable, worldline: Worldline, grid,
                          step=1e-3) -> SampledWorldline:
    """Image worldline, reparametrized by its own proper time.

    One batched pass over the grid: the source positions and four-velocities
    (closed forms, or the 5-point stencil of a sampled worldline, which must
    stay inside its sampled range) go through ``m.pushforward`` to give the
    image events and the pushed tangents J v.  Image proper time accumulates
    by trapezoidal integration of sqrt(dxbar.dxbar) = |J v| d tau along the
    grid.  If the grid meets a singular set of ``m``, the
    ``SingularPointError`` names the first grid point that does.
    """
    grid = np.asarray(grid, dtype=float)
    st = worldline.state(grid, step=step)
    try:
        images, jv = m.pushforward(st.position, st.velocity)
    except SingularPointError as exc:
        i = exc.index
        raise SingularPointError(
            f"grid point {i} (tau = {grid[i]}) maps through a singular set",
            residual=exc.residual, point=st.position[i], index=i) from exc
    speed = np.sqrt(np.maximum(minkowski_dot(jv, jv), 0.0))
    dtau = np.diff(grid)
    taubar = np.concatenate([[0.0], np.cumsum(0.5 * (speed[1:] + speed[:-1]) * dtau)])
    return SampledWorldline(taubar, images)


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


def transform_abraham(form: AcceleratedFrameForm, state: KinematicState,
                      derivatives=None) -> HillTransformResult:
    """Transformation law of the Abraham vector under an accelerated-frame map.

    The correction term uses phi_mu = d_mu ln|lambda| and phi_{mu nu} =
    d_mu phi_nu at the state's position: the map's closed forms, or the pair
    ``derivatives = (phi, phi2)`` ((4,) and (4, 4)) in their place.
    Derivatives of a non-flat factor (e.g. lambda = exp(t), through
    ``numdiff.gradient_hessian``) demonstrate why the reduced law needs the
    accelerated-frame family.
    """
    x = state.position
    J, lam, _ = jacobian_tetrad(form, x)
    w = _abraham_w(state.velocity, state.velocity_dot, state.velocity_ddot)
    ph, ph2 = (form.phi(x), form.phi2(x)) if derivatives is None else derivatives
    v = state.velocity
    # correction_rho = v^sigma (phi_{rho sigma} - phi_rho phi_sigma), lower rho
    corr_lower = (ph2 - np.outer(ph, ph)) @ v
    # contract with (v^nu v^rho - eta^{nu rho}): raise rho via eta
    bracket = w + v * float(v @ corr_lower) - ETA @ corr_lower
    scale = 1.0 / lam**3
    return HillTransformResult(general=scale * (J @ bracket),
                               reduced=scale * (J @ w))


@dataclass(frozen=True)
class RigidityReport:
    ok: bool
    ratio: float
    threshold: float


def rigidity_check(accel, size, threshold=1e-2) -> RigidityReport:
    """Approximate-rigidity condition a * delta << c^2 (= 1 here) for treating
    a finite body as rigid in an accelerated conformal frame."""
    a = float(accel)
    delta = float(size)
    if a < 0 or delta < 0:
        raise ValueError("acceleration and size must be nonnegative")
    ratio = a * delta
    return RigidityReport(ok=ratio < threshold, ratio=ratio, threshold=threshold)
