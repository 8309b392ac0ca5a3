"""Minkowski four-vector algebra and proper-time worldlines.

Conventions used everywhere in this package: natural units (c = 1), metric
signature (+, -, -, -), events stored as float arrays ``(t, x1, x2, x3)``.
Four-velocities are normalized to v.v = 1 with respect to proper time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConstraintViolationError
from .numdiff import OFFSETS, W_D1, W_D2, W_D3, local_quintic

SIGNATURE = np.array([1.0, -1.0, -1.0, -1.0])
ETA = np.diag(SIGNATURE)
INITIAL_DATA_TOL = 1e-9   # largest violation of a constraint on worldline initial data


def as_event(x) -> np.ndarray:
    """Validate and convert to a flat float64 4-vector."""
    arr = np.asarray(x, dtype=float)
    if arr.shape != (4,):
        raise ValueError(f"expected a 4-vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("event components must be finite")
    return arr


def minkowski_dot(x, y) -> float:
    """x.y = x0 y0 - x1 y1 - x2 y2 - x3 y3 (supports trailing-axis batches)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = np.sum(SIGNATURE * x * y, axis=-1)
    return float(out) if out.ndim == 0 else out


def lower_index(x):
    """Lower the index of a contravariant 4-vector: x_mu = eta_{mu nu} x^nu."""
    return SIGNATURE * np.asarray(x, dtype=float)


def interval(x, xp) -> float:
    """Squared Minkowski distance (x - x')^2; sign unconstrained."""
    d = np.asarray(x, dtype=float) - np.asarray(xp, dtype=float)
    return minkowski_dot(d, d)


@dataclass(frozen=True, eq=False)
class KinematicState:
    """Position, four-velocity and its first two proper-time derivatives.

    At one proper time every field is a 4-vector; at an array of proper
    times (shape (n,)) ``tau`` is that array and each field has shape (n, 4).
    """

    position: np.ndarray
    velocity: np.ndarray
    velocity_dot: np.ndarray
    velocity_ddot: np.ndarray
    tau: float | np.ndarray

    def constraint_residuals(self):
        """(|v.v - 1|, |v.vdot|): both vanish for exact proper-time data."""
        return (abs(minkowski_dot(self.velocity, self.velocity) - 1.0),
                abs(minkowski_dot(self.velocity, self.velocity_dot)))


class HyperbolicWorldline:
    """Uniformly accelerated (for a > 0) or uniform (a = 0) motion.

    The four-velocity is v(tau) = v0 cosh(a tau) + (vdot0 / a) sinh(a tau),
    which keeps v.v = 1 for every proper acceleration a; at a = 1 this is the
    familiar cosh/sinh pair of the initial data themselves.  Initial data must
    satisfy v0.v0 = 1, v0.vdot0 = 0 and vdot0.vdot0 = -a^2 (spacelike
    acceleration).
    """

    def __init__(self, v0, vdot0, accel, x0=None):
        v0 = as_event(v0)
        vdot0 = as_event(vdot0)
        x0 = np.zeros(4) if x0 is None else as_event(x0)
        a = float(accel)
        if a < 0:
            raise ConstraintViolationError(f"acceleration must be >= 0, got {a}")
        r1 = minkowski_dot(v0, v0) - 1.0
        if abs(r1) > INITIAL_DATA_TOL:
            raise ConstraintViolationError(
                f"v0.v0 = {1.0 + r1} violates the unit-norm constraint v0.v0 = 1")
        r2 = minkowski_dot(v0, vdot0)
        if abs(r2) > INITIAL_DATA_TOL:
            raise ConstraintViolationError(
                f"v0.vdot0 = {r2} violates the orthogonality constraint v0.vdot0 = 0")
        r3 = minkowski_dot(vdot0, vdot0) + a * a
        if abs(r3) > INITIAL_DATA_TOL:
            raise ConstraintViolationError(
                f"vdot0.vdot0 = {minkowski_dot(vdot0, vdot0)} violates "
                f"vdot0.vdot0 = -a^2 = {-a * a}")
        self.v0 = v0
        self.vdot0 = vdot0
        self.accel = a
        self.x0 = x0

    def state(self, tau, step=None) -> KinematicState:
        """Closed-form state at a proper time or an array of them (vddot = a^2 v)."""
        tau = float(tau) if np.ndim(tau) == 0 else np.asarray(tau, dtype=float)
        a, v0, vdot0 = self.accel, self.v0, self.vdot0
        if a == 0.0:
            velocity = np.broadcast_to(v0, np.shape(tau) + (4,)).copy()
            return KinematicState(position=self.x0 + np.multiply.outer(tau, v0),
                                  velocity=velocity, velocity_dot=np.zeros_like(velocity),
                                  velocity_ddot=a**2 * velocity, tau=tau)
        ch, sh = np.cosh(a * tau), np.sinh(a * tau)
        velocity = np.multiply.outer(ch, v0) + np.multiply.outer(sh / a, vdot0)
        return KinematicState(
            position=(self.x0 + np.multiply.outer(sh / a, v0)
                      + np.multiply.outer((ch - 1.0) / a**2, vdot0)),
            velocity=velocity,
            velocity_dot=np.multiply.outer(a * sh, v0) + np.multiply.outer(ch, vdot0),
            velocity_ddot=a**2 * velocity,
            tau=tau,
        )


class SampledWorldline:
    """Worldline given by (tau, event) samples, interpolated by local quintics
    of the event vector through six neighbouring samples, so that third
    derivatives of the position (needed for the radiation-reaction
    combination) remain accurate; cubics lose three orders of magnitude there.
    """

    def __init__(self, tau, events):
        tau = np.asarray(tau, dtype=float)
        events = np.asarray(events, dtype=float)
        if tau.ndim != 1 or events.shape != (tau.size, 4):
            raise ValueError("expected tau of shape (n,) and events of shape (n, 4)")
        if not tau.size:
            raise ValueError("a sampled worldline needs at least one sample")
        if np.any(np.diff(tau) <= 0):
            raise ConstraintViolationError("sample proper times must be strictly increasing")
        if not (np.all(np.isfinite(tau)) and np.all(np.isfinite(events))):
            raise ValueError("samples must be finite")
        self.tau = tau
        self.events = events

    @property
    def tau_range(self):
        return float(self.tau[0]), float(self.tau[-1])

    def position(self, tau):
        return local_quintic(self.tau, self.events, tau)

    def state(self, tau, step=1e-3) -> KinematicState:
        """5-point stencil state at a proper time or an array of them.

        Every stencil must lie inside the sampled range; the error names the
        first proper time whose stencil does not.
        """
        tau = float(tau) if np.ndim(tau) == 0 else np.asarray(tau, dtype=float)
        step = float(step)
        if step <= 0:
            raise ValueError("step must be positive")
        lo, hi = self.tau_range
        taus = np.atleast_1d(tau)
        outside = (taus < lo) | (taus > hi)
        if outside.any():
            raise ValueError(f"tau = {taus[outside][0]} outside sampled range [{lo}, {hi}]")
        leaves = (taus - 2 * step < lo) | (taus + 2 * step > hi)
        if leaves.any():
            raise ValueError(
                f"step {step} too large: 5-point stencil at tau = {taus[leaves][0]} "
                f"leaves the sampled range [{lo}, {hi}]")
        # (5,) @ (..., 5, 4): one stencil per proper time
        pts = self.position(np.add.outer(tau, OFFSETS * step))
        return KinematicState(
            position=pts[..., 2, :],     # OFFSETS[2] == 0: the stencil's centre is tau
            velocity=W_D1 @ pts / step,
            velocity_dot=W_D2 @ pts / step**2,
            velocity_ddot=W_D3 @ pts / step**3,
            tau=tau,
        )


def rest_worldline(x0=None) -> HyperbolicWorldline:
    return HyperbolicWorldline([1.0, 0, 0, 0], np.zeros(4), 0.0, x0=x0)
