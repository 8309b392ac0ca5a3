import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confvac import (ConstraintViolationError, HyperbolicWorldline,
                     KinematicState, SampledWorldline, interval, minkowski_dot,
                     rest_worldline, suites)
from confvac.minkowski import as_event


def test_dot_timelike_unit():
    assert minkowski_dot([1, 0, 0, 0], [1, 0, 0, 0]) == 1.0


def test_dot_null():
    assert minkowski_dot([1, 1, 0, 0], [1, 1, 0, 0]) == 0.0


def test_dot_spacelike_unit():
    assert minkowski_dot([0, 1, 0, 0], [0, 1, 0, 0]) == -1.0


def test_interval_examples():
    assert interval([2, 0, 0, 0], [1, 0, 0, 0]) == 1.0
    assert interval([0, 1, 0, 0], [0, 0, 0, 0]) == -1.0
    assert interval([1, 1, 0, 0], [0, 0, 0, 0]) == 0.0


@given(st.lists(st.floats(-10, 10), min_size=4, max_size=4),
       st.lists(st.floats(-10, 10), min_size=4, max_size=4))
def test_dot_symmetric(xs, ys):
    assert minkowski_dot(xs, ys) == pytest.approx(minkowski_dot(ys, xs), abs=1e-12)


def test_as_event_rejects_nonfinite():
    with pytest.raises(ValueError):
        as_event([1.0, np.inf, 0.0, 0.0])
    with pytest.raises(ValueError):
        as_event([1.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# hyperbolic worldlines

def test_hyperbolic_position_closed_form():
    # independent oracle: cumulative quadrature of the velocity formula
    wl = HyperbolicWorldline([1, 0, 0, 0], [0, 1, 0, 0], 1.0)
    taus = np.linspace(-1.0, 1.0, 2001)
    vel = wl.state(taus).velocity
    pos_oracle = np.concatenate(
        [np.zeros((1, 4)), np.cumsum(np.diff(taus)[:, None] * (vel[1:] + vel[:-1]) / 2.0, axis=0)])
    pos_oracle += wl.state(taus[0]).position
    assert np.max(np.abs(wl.state(taus).position - pos_oracle)) < 5e-7
    # frozen closed form at tau = 0.7: (sinh, cosh - 1, 0, 0)
    np.testing.assert_allclose(
        wl.state(0.7).position,
        [math.sinh(0.7), math.cosh(0.7) - 1.0, 0.0, 0.0], atol=1e-15)


def test_zero_acceleration_is_rest():
    wl = rest_worldline()
    np.testing.assert_allclose(wl.state(3.7).position, [3.7, 0, 0, 0], atol=0)
    st0 = wl.state(1.0)
    np.testing.assert_allclose(st0.velocity, [1, 0, 0, 0])
    assert np.all(st0.velocity_dot == 0)
    assert np.all(st0.velocity_ddot == 0)


def test_constraint_rejection_names_violation():
    with pytest.raises(ConstraintViolationError, match="vdot0.vdot0"):
        HyperbolicWorldline([1, 0, 0, 0], [0, 1, 0, 0], 2.0)
    with pytest.raises(ConstraintViolationError, match="unit-norm"):
        HyperbolicWorldline([2, 0, 0, 0], [0, 2, 0, 0], 2.0)
    with pytest.raises(ConstraintViolationError, match="orthogonality"):
        HyperbolicWorldline([math.cosh(0.3), math.sinh(0.3), 0, 0],
                             [0, 1, 0, 0], 1.0)


def test_kinematic_state_analytic_values():
    wl = HyperbolicWorldline([1, 0, 0, 0], [0, 1, 0, 0], 1.0)
    st0 = wl.state(0.0)
    np.testing.assert_allclose(st0.velocity, [1, 0, 0, 0], atol=1e-15)
    np.testing.assert_allclose(st0.velocity_dot, [0, 1, 0, 0], atol=1e-15)
    np.testing.assert_allclose(st0.velocity_ddot, [1, 0, 0, 0], atol=1e-15)


@given(st.floats(0.1, 2.0), st.floats(-0.6, 0.6), st.floats(-1.5, 1.5))
@settings(max_examples=60, deadline=None)
def test_hyperbolic_identities(a, rapidity, tau):
    # boosted initial data still satisfies the constraints exactly enough
    v0 = np.array([math.cosh(rapidity), math.sinh(rapidity), 0, 0])
    vdot0 = a * np.array([math.sinh(rapidity), math.cosh(rapidity), 0, 0])
    wl = HyperbolicWorldline(v0, vdot0, a)
    stt = wl.state(tau)
    r1, r2 = stt.constraint_residuals()
    assert r1 < 1e-12 and r2 < 1e-12
    # vdot.vdot = -a^2 exactly in the analytic variant
    assert minkowski_dot(stt.velocity_dot, stt.velocity_dot) == pytest.approx(
        -a * a, rel=1e-12)
    # vddot = a^2 v
    np.testing.assert_allclose(stt.velocity_ddot, a * a * stt.velocity, rtol=1e-12)


def test_state_rows_are_the_states_at_each_proper_time():
    # a state at an array of proper times holds, bit for bit, the states at
    # each one, for a = 0 (here moving, off the origin) and for a > 0
    rng = np.random.default_rng(8)
    v0 = np.array([math.cosh(0.4), math.sinh(0.4), 0.0, 0.0])
    worldlines = [HyperbolicWorldline(v0, np.zeros(4), 0.0, x0=[0.1, -0.2, 0.3, 0.0]),
                  *(suites.random_hyperbolic(rng) for _ in range(20))]
    taus = np.concatenate([[0.0, -0.0], rng.uniform(-1.5, 1.5, 30)])
    for wl in worldlines:
        rows = wl.state(taus)
        for i, tau in enumerate(taus):
            one = wl.state(tau)
            for field in ("position", "velocity", "velocity_dot", "velocity_ddot"):
                a, b = getattr(rows, field)[i], getattr(one, field)
                assert a.shape == b.shape == (4,) and a.tobytes() == b.tobytes(), (tau, field)


# ---------------------------------------------------------------------------
# sampled worldlines

def _sampled_copy(wl, lo=-1.0, hi=1.0, h=1e-3):
    taus = np.arange(lo, hi + 1e-12, h)
    return SampledWorldline(taus, wl.state(taus).position)


def test_sampled_matches_analytic_state():
    wl = HyperbolicWorldline([1, 0, 0, 0], [0, 1, 0, 0], 1.0)
    sampled = _sampled_copy(wl)
    for tau in (-0.4, 0.0, 0.3, 0.55):
        st_s = sampled.state(tau, step=1e-3)
        st_a = wl.state(tau)
        np.testing.assert_allclose(st_s.position, st_a.position, atol=1e-6)
        np.testing.assert_allclose(st_s.velocity, st_a.velocity, atol=1e-6)
        np.testing.assert_allclose(st_s.velocity_dot, st_a.velocity_dot, atol=1e-6)
        np.testing.assert_allclose(st_s.velocity_ddot, st_a.velocity_ddot, atol=1e-6)


def test_sampled_state_convergence_order():
    # velocity error from the 5-point stencil is O(step^4): use a dense spline
    # so interpolation error stays below the differencing error
    wl = HyperbolicWorldline([1, 0, 0, 0], [0, 1, 0, 0], 1.0)
    sampled = _sampled_copy(wl, h=2e-4)
    errs = []
    for step in (8e-3, 4e-3):
        st_s = sampled.state(0.2, step=step)
        errs.append(np.max(np.abs(st_s.velocity - wl.state(0.2).velocity)))
    assert errs[0] / errs[1] > 8.0  # ~16 for clean 4th order


def test_sampled_positions_reproduce_the_samples_exactly():
    sampled = _sampled_copy(HyperbolicWorldline([1, 0, 0, 0], [0, 1, 0, 0], 1.0), h=1e-2)
    assert np.array_equal(sampled.position(sampled.tau), sampled.events)
    # a state's position is its stencil's centre: the interpolant at tau itself
    taus = np.linspace(-0.9, 0.9, 37)
    assert np.array_equal(sampled.state(taus, step=1e-3).position, sampled.position(taus))
    # fewer than six samples: the one polynomial through all of them
    nodes = np.array([0.0, 0.4, 0.7, 1.0])
    cubic = SampledWorldline(nodes, np.outer(nodes**3 + 1, [1.0, 0.0, 0.0, 0.0]))
    assert cubic.position(0.5) == pytest.approx([1.125, 0.0, 0.0, 0.0], abs=1e-14)


def test_sampled_domain_and_step_errors():
    wl = HyperbolicWorldline([1, 0, 0, 0], [0, 1, 0, 0], 1.0)
    sampled = _sampled_copy(wl)
    with pytest.raises(ValueError, match="outside sampled range"):
        sampled.state(2.0)
    with pytest.raises(ValueError, match=r"^2\.0 outside sampled range"):
        sampled.position(np.array([0.0, 2.0, 3.0]))
    with pytest.raises(ValueError, match="too large"):
        sampled.state(0.999, step=1e-3)
    with pytest.raises(ValueError, match="positive"):
        sampled.state(0.0, step=-1.0)


def test_sampled_requires_increasing_tau():
    with pytest.raises(ConstraintViolationError, match="strictly increasing"):
        SampledWorldline(np.array([0.0, 0.0, 1.0, 2.0]), np.zeros((4, 4)))
    with pytest.raises(ValueError, match="at least one sample"):
        SampledWorldline(np.zeros(0), np.zeros((0, 4)))


def test_state_is_frozen_record():
    wl = rest_worldline()
    st0 = wl.state(0.0)
    assert isinstance(st0, KinematicState)
    with pytest.raises(AttributeError):
        st0.tau = 1.0
