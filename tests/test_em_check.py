"""The one-pair em field-tensor check, pinned three ways.

- The residual bits of the benchmark-shaped traffic (one pair per call, a
  freshly built form every call) are hashed, and the digest must not move.
- The four-term formula, the closed-form Minkowski field tensor and the
  finite-difference stencil are compared with the formulations they
  replaced, copied here as oracles, on one pair and on a stack of 100.
- One ``verify_em_invariance`` call lifts its events once, calls the kernel
  once, evaluates the Minkowski closed form and the four-term formula once
  each and builds its form's cone once, for a pair and for a stack.
"""

import functools
import hashlib
import math

import numpy as np
import pytest

from confvac import (AcceleratedFrameForm, PoleError, correlations,
                     minkowski_field_tensor_correlation, transformed_em_correlation,
                     verify_em_invariance)
from confvac.conformal import ConformalMap
from confvac.correlations import (LADDER, LAST_TERM_MODES, _em_rows, _fd_field_tensor,
                                  _field_tensor_rows, _kernel_rows)
from confvac.minkowski import ETA, interval, lower_index, minkowski_dot

MIN_DENOMINATOR = 0.25   # both events on the positive side of the form's singular set
MAX_INTERVAL = -0.4      # (x - x')^2 <= this: well spacelike
ABLATED = 20             # draws also run with last_term="omit"


def _denominator(alpha, x):
    """1 - 2 alpha.x + alpha^2 x^2 of rows x (n, 4)."""
    return 1.0 - 2.0 * minkowski_dot(x, alpha) + minkowski_dot(alpha, alpha) * minkowski_dot(x, x)


def em_draws(seed, n=100):
    """n draws (alpha, beta, x, x') as the em-invariance suite conditions its
    own: alpha in the ball |alpha| <= 0.5, beta in [0.5, 2], x and x' in the
    unit ball with both denominators >= 0.25 and (x - x')^2 <= -0.4."""
    rng = np.random.default_rng(seed)
    draws = []
    while len(draws) < n:
        alpha = rng.uniform(-0.5, 0.5, 4)
        if np.linalg.norm(alpha) > 0.5:
            continue
        beta = float(rng.uniform(0.5, 2.0))
        while True:
            pts = rng.uniform(-1.0, 1.0, (4, 4))
            pair = pts[np.linalg.norm(pts, axis=1) <= 1.0][:2]
            if (len(pair) == 2 and np.all(_denominator(alpha, pair) >= MIN_DENOMINATOR)
                    and interval(pair[0], pair[1]) <= MAX_INTERVAL):
                break
        draws.append((alpha, beta, pair[0], pair[1]))
    return draws


def _stack(draws):
    alpha, beta, x, xp = (np.array(c) for c in zip(*draws))
    return AcceleratedFrameForm(alpha, beta), x, xp


# ---------------------------------------------------------------------------
# the residual bits of one-pair calls, each with a fresh form

# seed -> sha256 of the float64 bits of (field, transport) of the 100 exact
# calls, then the transport of the 20 ablated ones
EM_TRAFFIC = {
    7: "be8f87da9bc2fe1ed83bc8bc0122d5b88267132e69d7c1c325ef2592bbf4ea0a",
    20250: "294fbbaf4efbe0df0ce6dfa5ee34aea3034a774fc4c54925631574af32843e0f",
}


@pytest.mark.parametrize("seed", sorted(EM_TRAFFIC))
def test_one_pair_calls_with_fresh_forms_keep_their_bits(seed):
    exact, ablated = [], []
    for i, (alpha, beta, x, xp) in enumerate(em_draws(seed)):
        form = AcceleratedFrameForm(alpha, beta)
        rep = verify_em_invariance(form, x, xp, epsilon=1e-2, h=1e-4)
        exact += [rep.field_residual, rep.transport_residual]
        if i < ABLATED:
            ablated.append(verify_em_invariance(form, x, xp, epsilon=1e-2, h=1e-4,
                                                last_term="omit").transport_residual)
    assert all(type(r) is float for r in exact + ablated)
    digest = hashlib.sha256(np.array(exact + ablated).tobytes()).hexdigest()
    assert digest == EM_TRAFFIC[seed]


# ---------------------------------------------------------------------------
# the formulations the check was built from, as oracles

def _outer_v1(a, b):
    return a[:, :, None] * b[:, None, :]


def _em_rows_v1(x, xp, phx, phy, c, last_term):
    if last_term not in LAST_TERM_MODES:
        raise ValueError(f"last_term must be one of {LAST_TERM_MODES}")
    c = c[..., None, None]
    xl, yl = lower_index(x), lower_index(xp)
    M = ETA * c + _outer_v1(phx, xl - yl) * c + _outer_v1(yl - xl, phy) * c
    if last_term == "exact":
        M = M - 0.5 * _outer_v1(phx, phy) * (interval(x, xp)[:, None, None] * c)
    return (1.0 / math.pi) * M


def _antisymmetrize_v1(A):
    A_nu = A.swapaxes(-4, -3)
    return A - A_nu - A.swapaxes(-2, -1) + A_nu.swapaxes(-2, -1)


def _fd_field_tensor_v1(C, h):
    C = np.moveaxis(C.reshape(*C.shape[:-3], 2, 4, 2, 4, -1, 4, 4), (-7, -6, -5, -4), range(4))
    mixed = (C[0, :, 0] - C[0, :, 1] - C[1, :, 0] + C[1, :, 1]) / (4.0 * h * h)
    return _antisymmetrize_v1(np.moveaxis(mixed, (0, 1), (-4, -2)))


def _field_tensor_rows_v1(x, xp, epsilon):
    s = x - xp
    eps = np.multiply.outer(epsilon, np.ones(len(s)))
    a = minkowski_dot(s, s)
    b = 0.0 - eps * s[:, 0]
    p, q = a * a - b * b, a * b + b * a
    D2 = (p + 1j * q)[..., None, None]
    D3 = (a * p - b * q + 1j * (a * q + b * p))[..., None, None]
    g = np.zeros(eps.shape + (4,), dtype=complex)
    g.real = 2.0 * lower_index(s)
    g.imag[..., 0] = 0.0 - eps
    with np.errstate(divide="ignore", invalid="ignore"):
        Kmix = -2.0 * (g[..., :, None] * g[..., None, :]) / D3 + 2.0 * ETA.astype(complex) / D2
    pole = ~np.isfinite(Kmix).all(axis=(-2, -1))
    if pole.any():
        raise PoleError("field-tensor pole")
    return (1.0 / math.pi) * _antisymmetrize_v1(ETA[None, :, None, :] * Kmix[..., :, None, :, None])


def _equal(a, b):
    """The same shape and values, +0 equal to -0 (and no NaN)."""
    assert a.shape == b.shape and a.dtype == b.dtype
    assert np.all(a == b)


RUNGS = {"one regulator": 1e-2, "three-rung ladder": 1e-2 * LADDER}


@pytest.mark.parametrize("rungs", RUNGS)
@pytest.mark.parametrize("last_term", LAST_TERM_MODES)
@pytest.mark.parametrize("n", [1, 100])
def test_em_formulas_equal_the_formulations_they_replace(n, last_term, rungs):
    forms, x, xp = _stack(em_draws(20250, n))
    epsilon, h = RUNGS[rungs], 1e-4
    ph = forms.phi(np.concatenate([x, xp]))
    c = _kernel_rows(x, xp, epsilon)
    _equal(_em_rows(x, xp, ph[:n], ph[n:], c, last_term),
           _em_rows_v1(x, xp, ph[:n], ph[n:], c, last_term))
    _equal(transformed_em_correlation(forms, x, xp, epsilon, last_term),
           _em_rows_v1(x, xp, ph[:n], ph[n:], c, last_term))
    _equal(_field_tensor_rows(x, xp, epsilon), _field_tensor_rows_v1(x, xp, epsilon))
    _equal(minkowski_field_tensor_correlation(x, xp, epsilon),
           _field_tensor_rows_v1(x, xp, epsilon))
    # the stencil pairs (x + steps[a], x' + steps[b]) at row (8 a + b) n + i,
    # pair i's through a copy of form i
    steps = np.concatenate([h * np.eye(4), -h * np.eye(4)])
    sx = (np.repeat(steps, 8, axis=0)[:, None] + x).reshape(-1, 4)
    sxp = (np.tile(steps, (8, 1))[:, None] + xp).reshape(-1, 4)
    tiled = AcceleratedFrameForm(np.tile(forms.alpha, (64, 1)), np.tile(forms.beta, 64))
    C = transformed_em_correlation(tiled, sx, sxp, epsilon, last_term)
    _equal(C, _em_rows_v1(sx, sxp, *np.split(tiled.phi(np.concatenate([sx, sxp])), 2),
                          _kernel_rows(sx, sxp, epsilon), last_term))
    _equal(_fd_field_tensor(C, h), _fd_field_tensor_v1(C, h))
    if n == 1:
        one = transformed_em_correlation(forms.take(0), x[0], xp[0], float(np.ravel(epsilon)[0]),
                                         last_term)
        _equal(one, _em_rows_v1(x, xp, ph[:1], ph[1:], c, last_term).reshape(-1, 1, 4, 4)[0, 0])
        _equal(minkowski_field_tensor_correlation(x[0], xp[0], epsilon),
               _field_tensor_rows_v1(x, xp, epsilon)[..., 0, :, :, :, :])


# ---------------------------------------------------------------------------
# one lift, one kernel call, one closed form and one cone per check

def _counted(calls, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


@pytest.mark.parametrize("n", [1, 100])
def test_one_check_lifts_once_and_builds_one_cone(monkeypatch, n):
    calls = dict.fromkeys(("lift", "kernel", "closed form", "formula", "cone"), 0)
    monkeypatch.setattr(ConformalMap, "_lift", _counted(calls, "lift", ConformalMap._lift))
    for name, attr in (("kernel", "_kernel_rows"), ("closed form", "_field_tensor_rows"),
                       ("formula", "_em_rows")):
        monkeypatch.setattr(correlations, attr, _counted(calls, name, getattr(correlations, attr)))
    cone = functools.cached_property(_counted(calls, "cone", AcceleratedFrameForm.cone.func))
    cone.__set_name__(AcceleratedFrameForm, "cone")
    monkeypatch.setattr(AcceleratedFrameForm, "cone", cone)
    alpha, beta, x, xp = (np.array(c) for c in zip(*em_draws(7, n)))
    if n == 1:
        alpha, beta, x, xp = alpha[0], float(beta[0]), x[0], xp[0]
    for last_term in LAST_TERM_MODES:
        form = AcceleratedFrameForm(alpha, beta)
        verify_em_invariance(form, x, xp, last_term=last_term)
        assert calls == dict.fromkeys(calls, 1), calls
        calls.update(dict.fromkeys(calls, 0))
