import numpy as np
import pytest

from confvac import (AcceleratedFrameForm, ConformalMap, Dilation,
                     HyperbolicWorldline, Inversion, KinematicState, SampledWorldline,
                     SingularPointError, Translation, abraham_norms_on_grid,
                     abraham_vector, apply_map, classify_motion,
                     jacobian_tetrad, lorentz_boost,
                     minkowski_dot, pushforward_worldline, rest_worldline,
                     transform_abraham)
from confvac import suites
from confvac.kinematics import _image_abraham_jets
from confvac.numdiff import gradient_hessian

HYP = HyperbolicWorldline([1, 0, 0, 0], [0, 1, 0, 0], 1.0)


def cumulative_trapezoid(y, x):
    """Trapezoidal integral of y over x from x[0], at every x (0 first)."""
    return np.concatenate([[0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)])


def sinusoidal_rapidity_worldline(span=1.5, h=5e-4, amplitude=0.1):
    """Proper-time-parametrized motion with rapidity tau + amplitude sin(tau):
    v = (cosh s, sinh s, 0, 0) keeps v.v = 1, but the acceleration is not
    uniform, so the radiation-reaction combination w does not vanish."""
    taus = np.arange(-span, span + 1e-12, h)
    s = taus + amplitude * np.sin(taus)
    t = cumulative_trapezoid(np.cosh(s), taus)
    x = cumulative_trapezoid(np.sinh(s), taus)
    events = np.stack([t, x, np.zeros_like(t), np.zeros_like(t)], axis=1)
    return SampledWorldline(taus, events)


# ---------------------------------------------------------------------------
# Abraham vector

def test_abraham_zero_on_hyperbolic_any_accel():
    for a in (0.3, 1.0, 2.5):
        wl = HyperbolicWorldline([1, 0, 0, 0], [0, 0, a, 0], a)
        for tau in (-0.7, 0.0, 1.3):
            assert abraham_vector(wl, tau).residual_norm < 1e-12


def test_abraham_zero_on_rest():
    assert abraham_vector(rest_worldline(), 0.4).residual_norm == 0.0


def test_abraham_nonzero_on_sinusoidal_rapidity():
    wl = sinusoidal_rapidity_worldline()
    # independent oracle: w = s''(tau) (sinh s, cosh s, 0, 0) by hand, so
    # |w| = |s''| hypot(sinh s, cosh s)
    tau = 0.5
    s = tau + 0.1 * np.sin(tau)
    expected = abs(-0.1 * np.sin(tau)) * np.hypot(np.sinh(s), np.cosh(s))
    got = abraham_vector(wl, tau).residual_norm
    assert got == pytest.approx(expected, abs=1e-4)
    assert got > 0.01
    # the same combination vanishes at tau = 0 where s'' = 0
    assert abraham_vector(wl, 0.0).residual_norm < 1e-5


# ---------------------------------------------------------------------------
# classification

def test_classify_rest_is_inertial():
    cls = classify_motion(rest_worldline(), np.linspace(-1, 1, 21))
    assert cls.kind == "inertial"
    assert cls.is_uniformly_accelerated  # a = 0 member of the family


def test_classify_hyperbolic():
    cls = classify_motion(HYP, np.linspace(-1, 1, 21))
    assert cls.kind == "uniformly_accelerated"
    assert cls.accel == pytest.approx(1.0, abs=1e-5)


def test_classify_sinusoidal_is_other():
    wl = sinusoidal_rapidity_worldline()
    cls = classify_motion(wl, np.linspace(-1.2, 1.2, 41))
    assert cls.kind == "other"


# ---------------------------------------------------------------------------
# pushforwards

def test_pushforward_identity_map_resamples():
    grid = np.arange(-0.5, 0.5 + 1e-12, 1e-3)
    image = pushforward_worldline(ConformalMap.identity(), HYP, grid)
    # same worldline up to resampling: proper time is shifted to start at 0
    mid = len(grid) // 2
    np.testing.assert_allclose(image.events[mid], HYP.position(grid[mid]),
                               atol=1e-14)
    np.testing.assert_allclose(np.diff(image.tau), np.diff(grid), atol=1e-9)


def test_pushforward_rest_becomes_uniformly_accelerated():
    # geodesics of the conformal frame map to uniformly accelerated motion
    form = AcceleratedFrameForm(np.array([0.0, 0.5, 0.0, 0.0]), 1.0)
    grid = np.arange(-0.5, 0.5 + 1e-12, 1e-3)
    image = pushforward_worldline(form, rest_worldline(), grid)
    lo, hi = image.tau_range
    margin = 2e-3 + 5 * float(np.max(np.diff(image.tau)))
    taus = image.tau[(image.tau > lo + margin) & (image.tau < hi - margin)]
    norms = abraham_norms_on_grid(image, taus, step=1e-3)
    assert float(np.max(norms)) < 1e-6
    st = image.state(0.5 * (lo + hi), step=1e-3)
    accel = np.sqrt(abs(minkowski_dot(st.velocity_dot, st.velocity_dot)))
    assert accel > 0.5  # genuinely accelerated, not inertial


def test_pushforward_hyperbolic_stays_uniformly_accelerated():
    form = AcceleratedFrameForm(np.array([0.1, 0.15, -0.1, 0.0]), 1.2)
    grid = np.arange(-0.6, 0.6 + 1e-12, 1e-3)
    image = pushforward_worldline(form, HYP, grid)
    lo, hi = image.tau_range
    margin = 2e-3 + 5 * float(np.max(np.diff(image.tau)))
    interior = image.tau[(image.tau > lo + margin) & (image.tau < hi - margin)]
    cls = classify_motion(image, interior[::40], tol=1e-5)
    assert cls.kind == "uniformly_accelerated"


def test_pushforward_preserves_motion_family():
    # class labels agree at the level of the w = 0 family (the map changes a)
    form = AcceleratedFrameForm(np.array([0.05, 0.1, 0.0, 0.1]), 0.9)
    grid = np.arange(-0.6, 0.6 + 1e-12, 1e-3)
    for wl in (rest_worldline(), HYP):
        src = classify_motion(wl, grid[::40])
        image = pushforward_worldline(form, wl, grid)
        lo, hi = image.tau_range
        margin = 2e-3 + 5 * float(np.max(np.diff(image.tau)))
        interior = image.tau[(image.tau > lo + margin) & (image.tau < hi - margin)]
        img_cls = classify_motion(image, interior[::40], tol=1e-4)
        assert src.is_uniformly_accelerated == img_cls.is_uniformly_accelerated
    sin_wl = sinusoidal_rapidity_worldline(span=0.9)
    sin_grid = np.arange(-0.7, 0.7 + 1e-12, 1e-3)
    image = pushforward_worldline(form, sin_wl, sin_grid)
    lo, hi = image.tau_range
    margin = 2e-3 + 5 * float(np.max(np.diff(image.tau)))
    interior = image.tau[(image.tau > lo + margin) & (image.tau < hi - margin)]
    assert classify_motion(image, interior[::40], tol=1e-4).kind == "other"


def test_pushforward_singularity_reports_grid_point():
    form = AcceleratedFrameForm(np.array([0.5, 0.0, 0.0, 0.0]), 1.0)
    grid = np.arange(0.0, 2.5, 1e-2)  # rest worldline hits the set at t = 2
    with pytest.raises(SingularPointError, match="grid point"):
        pushforward_worldline(form, rest_worldline(), grid)


def per_point_pushforward(m, wl, grid, step=1e-3):
    """Reference: image events and proper times one grid point at a time."""
    images = np.empty((grid.size, 4))
    speed = np.empty(grid.size)
    for i, tau in enumerate(grid):
        st = wl.state(tau, step=step)
        images[i] = apply_map(m, st.position)
        J, _, _ = jacobian_tetrad(m, st.position)
        jv = J @ st.velocity
        speed[i] = np.sqrt(max(minkowski_dot(jv, jv), 0.0))
    taubar = np.concatenate([[0.0], np.cumsum(0.5 * (speed[1:] + speed[:-1]) * np.diff(grid))])
    return images, taubar


def first_singular_point(m, wl, grid):
    """Reference: the first grid point where per-point evaluation raises."""
    for i, tau in enumerate(grid):
        x = wl.state(tau).position
        try:
            apply_map(m, x)
            jacobian_tetrad(m, x)
        except SingularPointError as exc:
            return i, exc.residual, x
    return None


PUSH_MAPS = {
    "form": AcceleratedFrameForm(np.array([0.1, 0.15, -0.1, 0.05]), 1.2),
    # the translation keeps the inversion's input y^2 >= 1 on every source
    "chain": ConformalMap([Translation(np.array([2.0, 0.1, -0.2, 0.0])), Inversion(0.8),
                           Dilation(1.3), lorentz_boost([0.2, 0.1, 0.0]),
                           Translation(np.array([0.1, 0.0, 0.0, 0.4]))]),
}
PUSH_SOURCES = {
    "hyperbolic": lambda: HYP,
    "rest": lambda: rest_worldline(np.array([0.1, 0.2, 0.0, -0.1])),
    "sampled": lambda: sinusoidal_rapidity_worldline(span=0.9),
}


@pytest.mark.parametrize("source", sorted(PUSH_SOURCES))
@pytest.mark.parametrize("map_name", sorted(PUSH_MAPS))
def test_batched_pushforward_matches_per_point(map_name, source):
    m, wl = PUSH_MAPS[map_name], PUSH_SOURCES[source]()
    grid = np.arange(-0.6, 0.6 + 1e-12, 1e-3)
    image = pushforward_worldline(m, wl, grid)
    events, taubar = per_point_pushforward(m, wl, grid)
    np.testing.assert_allclose(image.events, events, rtol=0,
                               atol=1e-13 * np.max(np.abs(events)))
    np.testing.assert_allclose(image.tau, taubar, rtol=0, atol=1e-12)


@pytest.mark.parametrize("m, wl, grid", [
    # rest worldline at the origin: 1 - 2 alpha.x + alpha^2 x^2 = (1 - t/2)^2
    (AcceleratedFrameForm(np.array([0.5, 0.0, 0.0, 0.0]), 1.0), rest_worldline(),
     np.linspace(2.0 - 1e-5, 2.0 + 1e-5, 101)),
    # the inversion meets y^2 = (t - 1)^2 = 0 inside the chain
    (ConformalMap([Translation(np.array([-1.0, 0.0, 0.0, 0.0])), Inversion(1.0),
                   Dilation(2.0)]), rest_worldline(), np.linspace(1.0 - 1e-5, 1.0 + 1e-5, 101)),
], ids=["form", "chain"])
def test_pushforward_reports_first_singular_grid_point(m, wl, grid):
    i, residual, point = first_singular_point(m, wl, grid)
    assert 0 < i < grid.size - 1  # several grid points are singular; the first counts
    with pytest.raises(SingularPointError, match=rf"^grid point {i} \(tau = ") as info:
        pushforward_worldline(m, wl, grid)
    assert info.value.index == i
    assert info.value.residual == pytest.approx(residual, rel=1e-12, abs=1e-30)
    np.testing.assert_allclose(info.value.point, point, rtol=1e-15)


def test_pushforward_sampled_stencil_outside_range_raises():
    wl = sinusoidal_rapidity_worldline(span=0.9)
    form = PUSH_MAPS["form"]
    with pytest.raises(ValueError, match="5-point stencil at tau = 0.8995"):
        pushforward_worldline(form, wl, np.linspace(-0.5, 0.8995, 101))
    with pytest.raises(ValueError, match="outside sampled range"):
        pushforward_worldline(form, wl, np.linspace(-0.5, 0.95, 101))


@pytest.mark.parametrize("source", sorted(PUSH_SOURCES))
def test_batched_state_matches_per_point_states(source):
    wl = PUSH_SOURCES[source]()
    taus = np.linspace(-0.5, 0.5, 7)
    batch = wl.state(taus, step=1e-3)
    for k, tau in enumerate(taus):
        st = wl.state(tau, step=1e-3)
        for name in ("position", "velocity", "velocity_dot", "velocity_ddot"):
            np.testing.assert_allclose(getattr(batch, name)[k], getattr(st, name),
                                       rtol=1e-12, atol=1e-9, err_msg=name)


# ---------------------------------------------------------------------------
# transformation law of w

def test_transform_abraham_identity_like_map():
    # alpha = 0 reduces the map to a dilation: w scales by J / lambda^3
    form = AcceleratedFrameForm(np.zeros(4), 1.0)
    st = HYP.state(0.3)
    res = transform_abraham(form, st)
    np.testing.assert_allclose(res.general, res.reduced, atol=1e-15)
    np.testing.assert_allclose(res.reduced, np.zeros(4), atol=1e-15)


def test_transform_abraham_zero_maps_to_zero():
    rng = np.random.default_rng(21)
    for _ in range(10):
        alpha = rng.uniform(-0.4, 0.4, 4)
        form = AcceleratedFrameForm(alpha, rng.uniform(0.5, 2.0))
        st = HYP.state(rng.uniform(-0.5, 0.5))
        if abs(form.denominator(st.position)) < 0.2:
            continue
        res = transform_abraham(form, st)
        assert np.max(np.abs(res.reduced)) < 1e-12   # w itself is zero
        assert np.max(np.abs(res.general)) < 1e-8    # correction cancels on v.v = 1
        assert res.disagreement < 1e-8


def test_transform_abraham_matches_finite_difference_pushforward():
    # independent oracle: differentiate the image worldline directly
    form = AcceleratedFrameForm(np.array([0.1, 0.2, 0.0, -0.1]), 1.1)
    wl = sinusoidal_rapidity_worldline(span=1.2)
    grid = np.arange(-0.9, 0.9 + 1e-12, 5e-4)
    image = pushforward_worldline(form, wl, grid)

    tau0 = 0.2
    st = wl.state(tau0, step=1e-3)
    res = transform_abraham(form, st)

    # locate the image proper time of tau0 and measure w there
    k = int(np.argmin(np.abs(grid - tau0)))
    w_img = abraham_vector(image, float(image.tau[k]), step=1e-3).w
    np.testing.assert_allclose(res.general, w_img, atol=2e-4)
    # the factor is flat, so both laws agree; the residue is the correction
    # term picking up the finite-difference error of v.v = 1 in the state
    assert res.disagreement < 1e-8


def test_transform_abraham_nonflat_factor_disagrees():
    form = AcceleratedFrameForm(np.array([0.1, 0.0, 0.0, 0.0]), 1.0)
    st = HYP.state(0.4)
    exp_derivatives = gradient_hessian(lambda r: np.log(np.abs(np.exp(r[:, 0]))),
                                       st.position)
    res = transform_abraham(form, st, derivatives=exp_derivatives)
    assert res.disagreement > 1e-3


# ---------------------------------------------------------------------------
# image Abraham vector from exact jets

def jerked_state(taus):
    """States at proper times taus in [-0.5, 0.5] of motion in the t-x plane
    with rapidity eta = 0.2 + 0.7 tau + 0.2 tau^2: its Abraham vector is
    eta'' (sinh eta, cosh eta, 0, 0), non-zero everywhere.  Positions are a
    trapezoidal integral of v from tau = -0.5."""
    fine = np.linspace(-0.5, 0.5, 1001)
    eta = 0.2 + 0.7 * fine + 0.2 * fine**2
    pos = np.stack([cumulative_trapezoid(np.cosh(eta), fine) + 0.1,
                    cumulative_trapezoid(np.sinh(eta), fine) - 0.2,
                    np.full_like(fine, 0.05), np.full_like(fine, -0.1)], axis=1)
    eta = 0.2 + 0.7 * taus + 0.2 * taus**2
    d1, d2 = 0.7 + 0.4 * taus, 0.4
    ch, sh, z = np.cosh(eta), np.sinh(eta), np.zeros_like(taus)
    return KinematicState(
        position=pos[np.rint((taus + 0.5) * 1000).astype(int)],
        velocity=np.stack([ch, sh, z, z], axis=1),
        velocity_dot=np.stack([d1 * sh, d1 * ch, z, z], axis=1),
        velocity_ddot=np.stack([d2 * sh + d1**2 * ch, d2 * ch + d1**2 * sh, z, z], axis=1),
        tau=taus)


def test_image_abraham_jets_equal_hills_law_on_a_jerked_source():
    # negative control: a source with w != 0 has an image with wbar != 0,
    # and wbar is Hill's transformation law J w / lambda^3 plus its
    # correction, evaluated one proper time at a time
    form = AcceleratedFrameForm(np.array([0.15, -0.1, 0.05, 0.08]), 1.3)
    st = jerked_state(np.linspace(-0.5, 0.5, 11))
    assert np.min(form.denominator(st.position)) > 0.5
    wbar, _ = _image_abraham_jets(form, st)
    assert np.min(np.linalg.norm(wbar, axis=1)) > 0.1
    for j, tau in enumerate(st.tau):
        one = KinematicState(st.position[j], st.velocity[j], st.velocity_dot[j],
                             st.velocity_ddot[j], float(tau))
        hill = transform_abraham(form, one).general
        assert np.max(np.abs(wbar[j] - hill)) <= 1e-12 * np.max(np.abs(hill))


def test_image_abraham_jets_vanish_on_hyperbolic_and_rest_sources():
    grid = np.linspace(-0.6, 0.6, 121)
    forms = (AcceleratedFrameForm(np.array([0.1, 0.15, -0.1, 0.0]), 1.2),
             AcceleratedFrameForm(np.array([-0.2, 0.05, 0.1, 0.15]), 0.7))
    sources = (HYP, HyperbolicWorldline([1, 0, 0, 0], [0, 0, 0.4, 0], 0.4, x0=[0.1, 0, 0.2, 0]),
               rest_worldline(x0=[0.0, 0.1, -0.1, 0.2]))
    for form in forms:
        for wl in sources:
            st = wl.state(grid)
            assert np.min(np.abs(form.denominator(st.position))) > 0.3
            wbar, abar = _image_abraham_jets(form, st)
            assert np.max(np.linalg.norm(wbar, axis=1)) < 1e-12
            assert np.max(np.linalg.norm(abar, axis=1)) > 0.05   # the image accelerates


def test_spline_pushforward_agrees_with_the_jets_on_the_suite_sampler():
    # confvac abraham's path on CSV worldlines (pushforward, quintic spline,
    # 5-point stencils), which no suite runs, on four draws of the abraham
    # suite's sampler: w stays under the suite's 1e-5 in the image's
    # interior, and the stencil acceleration at mid-grid is the jets' one
    rng = np.random.default_rng(20250)
    for i in range(4):
        form, wl, grid, wbar = suites._conditioned_abraham_sample(rng, hyperbolic=(i % 4 != 3))
        image = pushforward_worldline(form, wl, grid)
        lo, hi = image.tau_range
        margin = 2e-3 + 5 * float(np.max(np.diff(image.tau)))
        interior = image.tau[(image.tau > lo + margin) & (image.tau < hi - margin)]
        assert np.max(abraham_norms_on_grid(image, interior)) < 1e-5
        assert np.max(np.linalg.norm(wbar, axis=1)) < 1e-13
        k = len(grid) // 2
        _, abar = _image_abraham_jets(form, wl.state(grid))
        stencil = image.state(image.tau[k], step=1e-3).velocity_dot
        assert np.max(np.abs(stencil - abar[k])) < 1e-6


def test_jets_through_a_chain_with_a_frame_slot_agree_with_the_spline_pushforward():
    # the abraham suite's sampler, with its form as the frame slot of a
    # chain: the jets give wbar = 0 and, on the spline route that confvac
    # abraham takes, w stays under the suite's 1e-5 in the image's interior
    rng = np.random.default_rng(20250)
    for i in range(4):
        form, wl, grid, _ = suites._conditioned_abraham_sample(rng, hyperbolic=(i % 4 != 3))
        chain = ConformalMap([form, Dilation(1.3), Translation(np.array([0.1, 0.0, -0.2, 0.05])),
                              lorentz_boost([0.2, 0.0, 0.1])])
        wbar, abar = _image_abraham_jets(chain, wl.state(grid))
        assert np.max(np.linalg.norm(wbar, axis=1)) < 1e-13
        image = pushforward_worldline(chain, wl, grid)
        lo, hi = image.tau_range
        margin = 2e-3 + 5 * float(np.max(np.diff(image.tau)))
        interior = image.tau[(image.tau > lo + margin) & (image.tau < hi - margin)]
        assert np.max(abraham_norms_on_grid(image, interior)) < 1e-5
        k = len(grid) // 2
        stencil = image.state(image.tau[k], step=1e-3).velocity_dot
        assert np.max(np.abs(stencil - abar[k])) < 1e-6
