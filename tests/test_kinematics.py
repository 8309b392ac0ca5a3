import numpy as np
import pytest

from confvac import (AcceleratedFrameForm, ConformalMap, Dilation,
                     HyperbolicWorldline, Inversion, KinematicState, LorentzTransform,
                     SampledWorldline, SingularPointError, Translation, abraham_vector,
                     apply_map, classify_motion, image_state, jacobian_tetrad,
                     minkowski_dot, rest_worldline, transform_abraham)
from confvac import suites
from confvac.conformal import boost_matrix
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
            assert abraham_vector(wl.state(tau)).residual_norm < 1e-12


def test_abraham_zero_on_rest():
    assert abraham_vector(rest_worldline().state(0.4)).residual_norm == 0.0


def test_abraham_nonzero_on_sinusoidal_rapidity():
    wl = sinusoidal_rapidity_worldline()
    # independent oracle: w = s''(tau) (sinh s, cosh s, 0, 0) by hand, so
    # |w| = |s''| hypot(sinh s, cosh s)
    tau = 0.5
    s = tau + 0.1 * np.sin(tau)
    expected = abs(-0.1 * np.sin(tau)) * np.hypot(np.sinh(s), np.cosh(s))
    got = abraham_vector(wl.state(tau, step=1e-3)).residual_norm
    assert got == pytest.approx(expected, abs=1e-4)
    assert got > 0.01
    # the same combination vanishes at tau = 0 where s'' = 0
    at_zero = abraham_vector(wl.state(0.0, step=1e-3)).residual_norm
    assert at_zero < 1e-5
    # state rows give one w and one norm per proper time
    rows = abraham_vector(wl.state(np.array([tau, 0.0]), step=1e-3))
    assert rows.w.shape == (2, 4)
    np.testing.assert_allclose(rows.residual_norm, [got, at_zero], rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# classification

def test_classify_rest_is_inertial():
    cls = classify_motion(rest_worldline().state(np.linspace(-1, 1, 21)))
    assert cls.kind == "inertial"
    assert cls.is_uniformly_accelerated  # a = 0 member of the family


def test_classify_hyperbolic():
    cls = classify_motion(HYP.state(np.linspace(-1, 1, 21)))
    assert cls.kind == "uniformly_accelerated"
    assert cls.accel == pytest.approx(1.0, abs=1e-5)


def test_classify_sinusoidal_is_other():
    wl = sinusoidal_rapidity_worldline()
    cls = classify_motion(wl.state(np.linspace(-1.2, 1.2, 41), step=1e-3))
    assert cls.kind == "other"


# ---------------------------------------------------------------------------
# images of states

def test_pushforward_identity_map_resamples():
    # the identity map gives the source's own state back, at its own proper times
    grid = np.arange(-0.5, 0.5 + 1e-12, 1e-3)
    st = HYP.state(grid)
    image = image_state(ConformalMap.identity(), st)
    for name in ("position", "velocity", "velocity_dot", "velocity_ddot"):
        np.testing.assert_allclose(getattr(image, name), getattr(st, name),
                                   rtol=0, atol=1e-13, err_msg=name)
    assert image.tau is st.tau


def test_pushforward_rest_becomes_uniformly_accelerated():
    # geodesics of the conformal frame map to uniformly accelerated motion
    form = AcceleratedFrameForm(np.array([0.0, 0.5, 0.0, 0.0]), 1.0)
    grid = np.arange(-0.5, 0.5 + 1e-12, 1e-3)
    image = image_state(form, rest_worldline().state(grid))
    assert float(np.max(abraham_vector(image).residual_norm)) < 1e-12
    accel = image.velocity_dot[len(grid) // 2]
    assert np.sqrt(abs(minkowski_dot(accel, accel))) > 0.5  # genuinely accelerated


def test_pushforward_hyperbolic_stays_uniformly_accelerated():
    form = AcceleratedFrameForm(np.array([0.1, 0.15, -0.1, 0.0]), 1.2)
    grid = np.arange(-0.6, 0.6 + 1e-12, 1e-3)
    cls = classify_motion(image_state(form, HYP.state(grid)), tol=1e-5)
    assert cls.kind == "uniformly_accelerated"


def test_pushforward_preserves_motion_family():
    # class labels agree at the level of the w = 0 family (the map changes a)
    form = AcceleratedFrameForm(np.array([0.05, 0.1, 0.0, 0.1]), 0.9)
    grid = np.arange(-0.6, 0.6 + 1e-12, 1e-3)
    for wl in (rest_worldline(), HYP):
        st = wl.state(grid)
        img_cls = classify_motion(image_state(form, st), tol=1e-4)
        assert classify_motion(st).is_uniformly_accelerated == img_cls.is_uniformly_accelerated
    sin_st = sinusoidal_rapidity_worldline(span=0.9).state(
        np.arange(-0.7, 0.7 + 1e-12, 1e-3), step=1e-3)
    assert classify_motion(image_state(form, sin_st), tol=1e-4).kind == "other"


def test_pushforward_singularity_reports_grid_point():
    form = AcceleratedFrameForm(np.array([0.5, 0.0, 0.0, 0.0]), 1.0)
    grid = np.arange(0.0, 2.5, 1e-2)  # rest worldline hits the set at t = 2
    with pytest.raises(SingularPointError, match="grid point"):
        image_state(form, rest_worldline().state(grid))
    # one state is a grid of one
    with pytest.raises(SingularPointError, match=r"^grid point 0 \(tau = 2.0\)") as info:
        image_state(form, rest_worldline().state(2.0))
    assert info.value.index == 0


def test_image_state_rejects_a_stack_of_several_chains():
    # chain 0 alone would be a silent wrong answer for every other chain
    stack = AcceleratedFrameForm(np.array([[0.1, 0.15, -0.1, 0.05], [0.0, 0.2, 0.0, 0.0],
                                           [-0.1, 0.0, 0.1, 0.0]]), np.array([1.2, 1.0, 0.8]))
    with pytest.raises(ValueError) as chain_error:
        stack.chain
    with pytest.raises(ValueError, match=r"^a stack of 3 chains is not one chain") as info:
        image_state(stack, HYP.state(np.linspace(-0.5, 0.5, 11)))
    assert str(info.value) == str(chain_error.value)


def per_point_pushforward(m, wl, grid, step=1e-3):
    """Reference: image events, four-velocities J v / |J v| and image proper
    times (trapezoidal in |J v|), one grid point at a time."""
    images = np.empty((grid.size, 4))
    velocities = np.empty((grid.size, 4))
    speed = np.empty(grid.size)
    for i, tau in enumerate(grid):
        st = wl.state(tau, step=step)
        images[i] = apply_map(m, st.position)
        J, _, _ = jacobian_tetrad(m, st.position)
        jv = J @ st.velocity
        speed[i] = np.sqrt(max(minkowski_dot(jv, jv), 0.0))
        velocities[i] = jv / speed[i]
    taubar = np.concatenate([[0.0], np.cumsum(0.5 * (speed[1:] + speed[:-1]) * np.diff(grid))])
    return images, velocities, taubar


def sampled_image(m, wl, grid):
    """Reference: the image worldline sampled one grid point at a time,
    interpolated by local quintics and parametrized by its own proper time."""
    images, _, taubar = per_point_pushforward(m, wl, grid)
    return SampledWorldline(taubar, images)


def interior_state(image, step=1e-3):
    """State rows of a sampled image far enough inside its range for the
    stencils and their quintic windows."""
    lo, hi = image.tau_range
    margin = 2 * step + 5 * float(np.max(np.diff(image.tau)))
    return image.state(image.tau[(image.tau > lo + margin) & (image.tau < hi - margin)], step)


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
                           Dilation(1.3), LorentzTransform(boost_matrix([0.2, 0.1, 0.0])),
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
    # image_state on a whole grid: the per-point images and J v / |J v|
    m, wl = PUSH_MAPS[map_name], PUSH_SOURCES[source]()
    grid = np.arange(-0.6, 0.6 + 1e-12, 1e-3)
    image = image_state(m, wl.state(grid, step=1e-3))
    events, velocities, _ = per_point_pushforward(m, wl, grid)
    np.testing.assert_allclose(image.position, events, rtol=0,
                               atol=1e-13 * np.max(np.abs(events)))
    np.testing.assert_allclose(image.velocity, velocities, rtol=0,
                               atol=1e-13 * np.max(np.abs(velocities)))


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
        image_state(m, wl.state(grid))
    assert info.value.index == i
    # the jets' Y^+ is a double-precision sum of terms of order one that cancel
    # here, so it meets the extended-precision one to a few ulps of 1
    assert info.value.residual == pytest.approx(residual, rel=0, abs=8 * np.finfo(float).eps)
    np.testing.assert_allclose(info.value.point, point, rtol=1e-15)


def test_pushforward_sampled_stencil_outside_range_raises():
    # the source's state holds the step, so its stencil is what leaves the range
    wl = sinusoidal_rapidity_worldline(span=0.9)
    form = PUSH_MAPS["form"]
    with pytest.raises(ValueError, match="5-point stencil at tau = 0.8995"):
        image_state(form, wl.state(np.linspace(-0.5, 0.8995, 101), step=1e-3))
    with pytest.raises(ValueError, match="outside sampled range"):
        image_state(form, wl.state(np.linspace(-0.5, 0.95, 101), step=1e-3))


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
    image = sampled_image(form, wl, grid)

    tau0 = 0.2
    st = wl.state(tau0, step=1e-3)
    res = transform_abraham(form, st)

    # locate the image proper time of tau0 and measure w there
    k = int(np.argmin(np.abs(grid - tau0)))
    w_img = abraham_vector(image.state(float(image.tau[k]), step=1e-3)).w
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
    wbar = abraham_vector(image_state(form, st)).w
    assert np.min(np.linalg.norm(wbar, axis=1)) > 0.1
    for j, tau in enumerate(st.tau):
        one = KinematicState(st.position[j], st.velocity[j], st.velocity_dot[j],
                             st.velocity_ddot[j], float(tau))
        hill = transform_abraham(form, one).general
        assert np.max(np.abs(wbar[j] - hill)) <= 1e-12 * np.max(np.abs(hill))
        # one state is a row of one
        np.testing.assert_array_equal(abraham_vector(image_state(form, one)).w, wbar[j])


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
            image = image_state(form, st)
            assert np.max(abraham_vector(image).residual_norm) < 1e-12
            # the image accelerates
            assert np.max(np.linalg.norm(image.velocity_dot, axis=1)) > 0.05


def test_spline_pushforward_agrees_with_the_jets_on_the_suite_sampler():
    # the image sampled one point at a time, interpolated by local quintics
    # and differenced by 5-point stencils (confvac abraham's path on CSV
    # worldlines), on four draws of the abraham suite's sampler: w stays
    # under the suite's 1e-5 in the image's interior, and the stencil
    # acceleration at mid-grid is the jets' one
    rng = np.random.default_rng(20250)
    for i in range(4):
        form, wl, grid, jets = suites._conditioned_abraham_sample(rng, hyperbolic=(i % 4 != 3))
        image = sampled_image(form, wl, grid)
        assert np.max(abraham_vector(interior_state(image)).residual_norm) < 1e-5
        assert np.max(abraham_vector(jets).residual_norm) < 1e-13
        k = len(grid) // 2
        stencil = image.state(image.tau[k], step=1e-3).velocity_dot
        assert np.max(np.abs(stencil - jets.velocity_dot[k])) < 1e-6


def test_jets_through_a_chain_with_a_frame_slot_agree_with_the_spline_pushforward():
    # the abraham suite's sampler, with its form as the frame slot of a
    # chain: the jets give wbar = 0 and, on the sampled and interpolated
    # image, w stays under the suite's 1e-5 in the image's interior
    rng = np.random.default_rng(20250)
    for i in range(4):
        form, wl, grid, _ = suites._conditioned_abraham_sample(rng, hyperbolic=(i % 4 != 3))
        chain = ConformalMap([form, Dilation(1.3), Translation(np.array([0.1, 0.0, -0.2, 0.05])),
                              LorentzTransform(boost_matrix([0.2, 0.0, 0.1]))])
        jets = image_state(chain, wl.state(grid))
        assert np.max(abraham_vector(jets).residual_norm) < 1e-13
        image = sampled_image(chain, wl, grid)
        assert np.max(abraham_vector(interior_state(image)).residual_norm) < 1e-5
        k = len(grid) // 2
        stencil = image.state(image.tau[k], step=1e-3).velocity_dot
        assert np.max(np.abs(stencil - jets.velocity_dot[k])) < 1e-6
