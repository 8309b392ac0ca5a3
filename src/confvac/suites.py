"""Named verification sweeps over randomized maps, events and worldlines.

Each suite checks one invariance property at desk scale: it is a function
of (config, rng) that returns its checks, and ``run_suite`` seeds the
generator, times the call and builds the report.  A suite passes iff every
check meets its tolerance.  Reports are deterministic given (config, seed)
apart from the wall-time field.

Sampling is kept well-conditioned on purpose: maps with |alpha| <= 0.5,
events inside the unit ball with singular-set residual bounded away from
zero, and (for worldline images) image accelerations of order one.  The
tolerances are meaningless without such conditioning since residuals blow
up polynomially near the singular sets.

Every sampler with a rejection rule draws numpy rows through one idiom,
``_rows_until``, which redraws only the rows its rule rejects.  interval-law,
scalar-invariance and tetrad-identity draw a block of candidates as arrays,
evaluate the whole block in one pass (interval-law: its forms as one stack,
its chains as another) and keep the first n
accepted in order; only the worst sample's map is taken out of the stack,
for the report.  ricci-flat, light-rays, abraham and em-invariance draw a
batch of one per sample, which is the one-at-a-time rejection loop, so
their streams are those of drawing one sample at a time; abraham and
light-rays then skip a sample whose evaluated image is out of bounds (a
worldline image that is not tame, a singular ray) and draw the next.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import correlations as corr
from . import lightcone2d as lc2
from .conformal import (FRAME, AcceleratedFrameForm, ConformalMap, IntervalLawReport,
                        LightRay, boost_matrix, map_to_dict, ricci_conformal,
                        transform_light_ray)
from .errors import SingularPointError
from .kinematics import abraham_vector, image_state, transform_abraham
from .minkowski import HyperbolicWorldline, interval, minkowski_dot, rest_worldline
from .numdiff import gradient_hessian


def _json_plain(obj):
    if isinstance(obj, (np.floating, np.integer, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _is_int(value):
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass
class SuiteConfig:
    suite: str
    samples: int | None = None
    seed: int = 20250
    epsilon: float | None = None
    h: float | None = None
    step: float | None = None
    tol: float | None = None
    out: str | None = None
    fmt: str = "json"

    def __post_init__(self):
        if not _is_int(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.samples is not None and not _is_int(self.samples):
            raise ValueError(f"samples must be an integer, got {self.samples!r}")
        for name in ("samples", "epsilon", "h", "step", "tol"):
            value = getattr(self, name)
            if value is not None and not (isinstance(value, (int, float, np.number))
                                          and 0 < value < math.inf):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if self.fmt not in ("json", "csv"):
            raise ValueError("format must be json or csv")


@dataclass
class CheckResult:
    name: str
    statistic: float
    tolerance: float
    comparator: str = "<"          # statistic must be < or > tolerance
    mean: float | None = None
    extra: dict = field(default_factory=dict)
    values: np.ndarray | tuple = field(default=(), repr=False, compare=False)  # CSV rows

    @classmethod
    def over(cls, name, values, tolerance, **extra):
        """The '<' check of per-sample residuals: statistic their max, mean
        their mean, and the residuals themselves its CSV rows."""
        values = np.asarray(values, dtype=float)
        return cls(name, float(values.max()), tolerance, mean=float(values.mean()),
                   extra=extra, values=values)

    @property
    def passed(self) -> bool:
        return (self.statistic < self.tolerance if self.comparator == "<"
                else self.statistic > self.tolerance)

    def to_dict(self):
        d = {"name": self.name, "statistic": self.statistic,
             "tolerance": self.tolerance, "comparator": self.comparator,
             "passed": self.passed}
        if self.mean is not None:
            d["mean"] = self.mean
        if self.extra:
            d["extra"] = self.extra
        return d


@dataclass
class SuiteReport:
    suite: str
    checks: list
    config: dict
    seed: int
    wall_time_s: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self, include_wall_time=True):
        d = {
            "suite": self.suite,
            "passed": self.passed,
            "seed": self.seed,
            "config": self.config,
            "checks": [c.to_dict() for c in self.checks],
        }
        if include_wall_time:
            d["wall_time_s"] = self.wall_time_s
        return d

    def to_json(self, include_wall_time=True) -> str:
        return json.dumps(self.to_dict(include_wall_time=include_wall_time),
                          indent=2, sort_keys=True, default=_json_plain)

    def residual_rows(self):
        """The CSV rows: a header, then each check's values, in check order."""
        rows = [("suite", "check", "index", "residual")]
        for c in self.checks:
            rows.extend((self.suite, c.name, i, repr(float(v))) for i, v in enumerate(c.values))
        return rows


# ---------------------------------------------------------------------------
# random draws
#
# Every sampler draws numpy rows through ``_rows_until``: m rows at once,
# then only the rows its rule rejects, redrawn until none is.  Block suites
# draw a block of m candidates; per-sample suites draw a batch of one, for
# which ``_rows_until`` is the one-at-a-time rejection loop, so their streams
# are those of drawing one sample at a time (tests/test_sampling.py replays
# the numpy per-sample samplers against them).

CANDIDATE_BLOCK = 1024    # candidates drawn, then evaluated, per array pass


def _rows_until(draw, rejected, m):
    """draw(m) rows, then the rejected ones redrawn until none is."""
    v = draw(m)
    while len(out := rejected(v).nonzero()[0]):
        v[out] = draw(len(out))
    return v


def _ball_rows(rng, radius, m):
    """m rows uniform in the ball |v| <= radius, by cube rejection."""
    return _rows_until(lambda k: rng.uniform(-radius, radius, (k, 4)),
                       lambda v: (v * v).sum(axis=1) > radius * radius, m)


def _form_rows(rng, m) -> AcceleratedFrameForm:
    """m stacked forms: alpha rows in the ball |alpha| <= 0.5, then m betas
    U(0.5, 2)."""
    return AcceleratedFrameForm(_ball_rows(rng, 0.5, m), rng.uniform(0.5, 2.0, m))


def random_form(rng, alpha_max=0.5) -> AcceleratedFrameForm:
    return AcceleratedFrameForm(_ball_rows(rng, alpha_max, 1)[0], rng.uniform(0.5, 2.0))


def _off_singular_rows(rng, forms, min_residual, m):
    """m events in the unit ball with |forms.denominator(x)| >= min_residual;
    row i meets form i of a stack of m, or the one form."""
    return _rows_until(lambda k: _ball_rows(rng, 1.0, k),
                       lambda x: np.abs(forms.denominator(x)) < min_residual, m)


def _pair_rows(rng, m):
    """m event pairs (m, 2, 4) in the unit ball: the m first events, then
    the m second."""
    return np.stack([_ball_rows(rng, 1.0, m), _ball_rows(rng, 1.0, m)], axis=1)


def _pair_denominators(forms, p):
    """Denominators (2, m) of the first, then the second events of pairs p
    (m, 2, 4): pair i meets form i of a stack of m, or the one form."""
    return forms.denominator(np.concatenate([p[:, 0], p[:, 1]])).reshape(2, -1)


def _same_side_rows(rng, forms, min_interval, m):
    """m pairs (m, 2, 4) in the unit ball with both |denominator| >= 0.1, on
    one side of the singular set and |(x - x')^2| >= min_interval; a pair
    that fails is redrawn whole."""
    def rejected(p):
        den, den_p = _pair_denominators(forms, p)
        return ((np.minimum(np.abs(den), np.abs(den_p)) < 0.1) | (den * den_p <= 0)
                | (np.abs(interval(p[:, 0], p[:, 1])) < min_interval))
    return _rows_until(lambda k: _pair_rows(rng, k), rejected, m)


def _same_side_blocks(rng, n, min_interval):
    """(forms stacked, x rows, x' rows) for blocks of up to CANDIDATE_BLOCK
    samples: each block's alpha rows, then its betas, then its pairs."""
    for start in range(0, n, CANDIDATE_BLOCK):
        k = min(CANDIDATE_BLOCK, n - start)
        forms = _form_rows(rng, k)
        pairs = _same_side_rows(rng, forms, min_interval, k)
        yield forms, pairs[:, 0], pairs[:, 1]


def _chain_draws(rng, m):
    """Slot kinds (m, 4) and ``ConformalMap.stack`` parameters of m random
    chains: the lengths, integers(2, 5); each slot's kind, integers(0, 4);
    then each kind's parameters in slot order: translation U(-0.5, 0.5)^4,
    boost with velocity U(-0.4, 0.4)^3, dilation and inversion U(0.5, 2)."""
    kinds = np.full((m, 4), -1)
    used = np.arange(4) < rng.integers(2, 5, m)[:, None]
    kinds[used] = rng.integers(0, 4, np.count_nonzero(used))
    n = [np.count_nonzero(kinds == c) for c in range(4)]
    drawn = [(rng.uniform(-0.5, 0.5, (n[0], 4)),),
             (boost_matrix(rng.uniform(-0.4, 0.4, (n[1], 3))),),
             (rng.uniform(0.5, 2.0, n[2]),),
             (rng.uniform(0.5, 2.0, n[3]),)]
    return kinds, drawn


def _chain_stack(rng, m) -> ConformalMap:
    return ConformalMap.stack(*_chain_draws(rng, m))


def random_chain(rng) -> ConformalMap:
    return _chain_stack(rng, 1).take(0)


def random_hyperbolic(rng):
    a = rng.uniform(0.2, 0.8)
    u = rng.uniform(-0.3, 0.3, 3)
    g = 1.0 / np.sqrt(1.0 - u @ u)
    v0 = np.array([g, *(g * u)])

    def normals(k):     # spatial rows made orthogonal to v0 (v0.v0 = 1)
        n = np.zeros((k, 4))
        n[:, 1:] = rng.uniform(-1.0, 1.0, (k, 3))
        return n - minkowski_dot(n, v0)[:, None] * v0

    n, = _rows_until(normals, lambda n: minkowski_dot(n, n) >= -1e-6, 1)
    vdot0 = n / np.sqrt(-minkowski_dot(n, n)) * a
    x0 = rng.uniform(-0.2, 0.2, 4)
    return HyperbolicWorldline(v0, vdot0, a, x0=x0)


# ---------------------------------------------------------------------------
# suites: each is a function (config, rng) -> checks

def _interval_law_block(rng, k):
    """k interval-law candidates, drawn as arrays, then evaluated as two
    stacks, the forms' and the chains': (maps, points (k, 2, 4), values
    (5, k)).  Candidate i is the chain ``maps.take(i)``: an accelerated-frame
    form (probability 0.7), one frame slot, with two events in the unit ball
    off its singular set (|denominator| >= 0.1), or a primitive chain with two
    events in the unit ball.  values holds each candidate's residual, lhs,
    rhs, lambda and lambda', NaN for a singular candidate.  Draw order: the
    kinds; the forms' alpha, beta, x and x'; the chains, their x and x'."""
    is_form = rng.random(k) < 0.7
    at_form, at_chain = np.flatnonzero(is_form), np.flatnonzero(~is_form)
    forms = _form_rows(rng, len(at_form))
    points = np.empty((k, 2, 4))
    for j in range(2):
        points[at_form, j] = _off_singular_rows(rng, forms, 0.1, len(at_form))
    kinds = np.full((k, 4), -1)
    kinds[at_form, 0] = FRAME
    kinds[at_chain], drawn = _chain_draws(rng, len(at_chain))
    for j in range(2):
        points[at_chain, j] = _ball_rows(rng, 1.0, len(at_chain))

    values = np.empty((5, k))
    for at, stack in ((at_form, forms), (at_chain, ConformalMap.stack(kinds[at_chain], drawn))):
        rows = np.concatenate([points[at, 0], points[at, 1]])
        images, _, lam, _, singular = stack.evaluate(rows)
        rep = IntervalLawReport.from_images(rows, images, lam)
        values[:, at] = [rep.residual, rep.lhs, rep.rhs, rep.lam, rep.lam_p]
        values[:, at[singular[:len(at)] | singular[len(at):]]] = np.nan
    return ConformalMap.stack(kinds, [*drawn, (forms.alpha, forms.beta)]), points, values


def suite_interval_law(cfg: SuiteConfig, rng) -> list[CheckResult]:
    """(xbar - xbar')^2 = lambda lambda' (x - x')^2 over random maps and pairs.

    Candidates are drawn in blocks as arrays, evaluated in one pass per
    block (the forms as one stack, the chains as another) and kept
    in order while fewer than n are kept: a rejected candidate (singular, or
    |lambda| >= 1e3) only moves on to the next, so the draws do not depend
    on what is kept."""
    n = cfg.samples or 10_000
    residuals = np.empty(n)
    worst = None
    kept = 0
    while kept < n:
        maps, points, (res, lhs, rhs, lam, lam_p) = _interval_law_block(
            rng, min(CANDIDATE_BLOCK, n - kept))
        accepted = np.flatnonzero((np.abs(lam) < 1e3) & (np.abs(lam_p) < 1e3))
        residuals[kept:kept + len(accepted)] = res[accepted]
        kept += len(accepted)
        if not len(accepted):
            continue
        i = accepted[np.argmax(res[accepted])]   # the first maximum
        if worst is None or res[i] > worst["residual"]:
            worst = {"residual": float(res[i]), "map": map_to_dict(maps.take(i)),
                     "points": points[i].tolist(), "lhs": float(lhs[i]),
                     "rhs": float(rhs[i])}
    return [CheckResult.over("interval-law-residual", residuals, cfg.tol or 1e-9,
                             samples=n, worst=worst)]


def suite_ricci_flat(cfg: SuiteConfig, rng) -> list[CheckResult]:
    """Ricci tensor of random accelerated-frame factors vanishes, with the
    log-gradient fields obtained by finite differences of lambda alone: all
    170 stencil events of a sample go through the map in one batch."""
    n = cfg.samples or 50
    step = cfg.step or 1e-3
    vals = np.empty(n)
    for i in range(n):
        form = random_form(rng)
        x = _off_singular_rows(rng, form, 0.3, 1)[0]
        phi, phi2 = gradient_hessian(lambda r: np.log(np.abs(form.factor(r))), x, step)
        vals[i] = np.max(np.abs(ricci_conformal(phi, phi2)))
    return [CheckResult.over("ricci-max-component", vals, cfg.tol or 1e-7,
                             samples=n, fd_step=step)]


def _conditioned_abraham_sample(rng, hyperbolic=True):
    """Map + worldline pair whose image stays tame: denominator >= 0.5 along
    the trajectory and image proper acceleration of order one at mid-grid;
    with the grid and the image state on it, from exact jets."""
    while True:
        form = random_form(rng, alpha_max=0.25)
        wl = random_hyperbolic(rng) if hyperbolic else rest_worldline(
            x0=rng.uniform(-0.2, 0.2, 4))
        grid = np.arange(-0.8, 0.8 + 1e-12, 1e-3)
        st = wl.state(grid)
        den = form.denominator(st.position)
        if np.min(np.abs(den)) < 0.5 or np.min(den) * np.max(den) < 0:
            continue
        image = image_state(form, st)
        abar = image.velocity_dot[len(grid) // 2]
        if np.sqrt(abs(minkowski_dot(abar, abar))) > 1.0:
            continue
        return form, wl, grid, image


def suite_abraham(cfg: SuiteConfig, rng) -> list[CheckResult]:
    """Images of uniformly accelerated / rest worldlines keep w = 0, and the
    two transformation laws of w agree for flat conformal factors."""
    n = cfg.samples or 20
    sup_w = np.empty(n)
    hill = np.empty(n)
    for i in range(n):
        form, wl, _, image = _conditioned_abraham_sample(rng, hyperbolic=(i % 4 != 3))
        sup_w[i] = float(np.max(abraham_vector(image).residual_norm))
        # transformation law at a random interior proper time of the source
        st = wl.state(rng.uniform(-0.5, 0.5))
        res = transform_abraham(form, st)
        hill[i] = res.disagreement
    return [CheckResult.over("image-abraham-sup", sup_w, cfg.tol or 1e-5, samples=n),
            CheckResult.over("hill-general-vs-reduced", hill, 1e-8)]


def suite_light_rays(cfg: SuiteConfig, rng) -> list[CheckResult]:
    """Straight null rays map to straight null rays; coordinate-time spans
    transform homographically with the stated sign law across singular sets."""
    n = cfg.samples or 50
    tol = cfg.tol or 1e-9
    col = np.empty(n)
    tfr = np.empty(n)
    crossings = [0, 0]    # rays with one sign crossing; of them, obeying the sign law

    def ray_report(min_residual, span, aimed=None):
        """Draw a form and a null ray from an event off its singular set and
        transform the ray, tallying a single sign crossing: its report, or
        None if ``aimed(form, origin, v)`` turns the ray down or it meets a
        singular set."""
        form = random_form(rng)
        origin = _off_singular_rows(rng, form, min_residual, 1)[0]
        nvec = rng.normal(size=3)
        nvec /= np.linalg.norm(nvec)
        v = np.array([1.0, *nvec])
        if aimed is not None and not aimed(form, origin, v):
            return None
        try:
            _, rep = transform_light_ray(form, LightRay(origin, v, span=span))
        except SingularPointError:
            return None
        if len(rep.sign_crossings) == 1:
            crossings[0] += 1
            if rep.sign_law_ok and rep.global_sign == np.sign(form.beta):
                crossings[1] += 1
        return rep

    def crosses_inside(form, origin, v):
        # the denominator is affine along a null ray, so the single root
        # can be placed inside the span by construction
        slope = (minkowski_dot(form.alpha, v)
                 - form.alpha_sq * minkowski_dot(origin, v))
        return (abs(slope) >= 1e-6
                and 0.15 < abs(form.denominator(origin) / (2.0 * slope)) < 1.2)

    i = 0
    while i < n:
        rep = ray_report(0.2, (-0.6, 0.6))
        if rep is None:
            continue
        col[i] = rep.collinearity_residual
        tfr[i] = rep.time_formula_residual
        i += 1
    # dedicated crossing rays
    attempts = 0
    while crossings[0] < 5 and attempts < 2000:
        attempts += 1
        ray_report(0.05, (-1.5, 1.5), crosses_inside)
    crossing_checked, crossing_ok = crossings
    # failures, plus a shortfall penalty so the check cannot pass vacuously
    sign_failures = (crossing_checked - crossing_ok) + max(0, 5 - crossing_checked)
    return [
        CheckResult.over("image-collinearity", col, tol, samples=n),
        CheckResult.over("time-transform-formula", tfr, tol),
        CheckResult(name="sign-law-on-crossing-rays",
                    statistic=float(sign_failures),
                    tolerance=0.5, comparator="<",
                    extra={"rays_with_one_crossing": crossing_checked}),
    ]


def suite_scalar_invariance(cfg: SuiteConfig, rng) -> list[CheckResult]:
    """lambda lambda' c_image = c, extrapolated eps -> 0, over random maps and
    same-side pairs, drawn in blocks and evaluated one block at a time."""
    n = cfg.samples or 1000
    eps = cfg.epsilon or 1e-6
    residuals = np.empty(n)
    worst = None
    kept = 0
    for form, x, xp in _same_side_blocks(rng, n, min_interval=0.05):
        rep = corr.verify_scalar_invariance(form, x, xp, eps)
        residuals[kept:kept + len(x)] = rep.residual
        kept += len(x)
        i = int(np.argmax(rep.residual))   # the first maximum
        if worst is None or rep.residual[i] > worst["residual"]:
            worst = {"residual": float(rep.residual[i]), "map": map_to_dict(form.take(i)),
                     "points": [x[i].tolist(), xp[i].tolist()],
                     "lhs": [float(rep.lhs[i].real), float(rep.lhs[i].imag)],
                     "rhs": [float(rep.rhs[i].real), float(rep.rhs[i].imag)]}
    return [CheckResult.over("scalar-invariance-residual", residuals, cfg.tol or 1e-8,
                             samples=n, epsilon=eps, worst=worst)]


def suite_tetrad_identity(cfg: SuiteConfig, rng) -> list[CheckResult]:
    n = cfg.samples or 1000
    residuals = np.concatenate([corr.tetrad_contraction(form, x, xp).residual
                                for form, x, xp in _same_side_blocks(rng, n, 0.0)])
    return [CheckResult.over("tetrad-contraction-residual", residuals, cfg.tol or 1e-10,
                             samples=n)]


def _em_sample(rng):
    """A form, then a pair in the unit ball with both denominators >= 0.25
    and (x - x')^2 <= -0.4: a batch of one."""
    form = random_form(rng)
    (x, xp), = _rows_until(
        lambda k: _pair_rows(rng, k),
        lambda p: (_pair_denominators(form, p).min(axis=0) < 0.25)
                  | (interval(p[:, 0], p[:, 1]) > -0.4), 1)
    return form.alpha, form.beta, x, xp


def suite_em_invariance(cfg: SuiteConfig, rng) -> list[CheckResult]:
    """Field-tensor correlations from the transformed potential correlator
    match the Minkowski ones; the phi phi' term is required for transport
    consistency (ablation run fails the same threshold)."""
    n = cfg.samples or 100
    tol = cfg.tol or 1e-4
    eps = cfg.epsilon or 1e-2
    h = cfg.h or 1e-4
    alpha, beta, x, xp = (np.array(col) for col in zip(*(_em_sample(rng) for _ in range(n))))

    def first(k, **kw):
        return corr.verify_em_invariance(AcceleratedFrameForm(alpha[:k], beta[:k]),
                                         x[:k], xp[:k], epsilon=eps, **kw)

    rep = first(n, h=h)
    field_res, transport_res = rep.field_residual, rep.transport_residual
    n_h = min(10, n)
    halved = first(n_h, h=h / 2).field_residual
    ablated = first(min(20, n), h=h, last_term="omit").transport_residual
    return [
        CheckResult.over("field-tensor-invariance", field_res, tol,
                         samples=n, epsilon=eps, h=h),
        CheckResult.over("transport-consistency", transport_res, tol),
        CheckResult(name="residual-decreases-at-half-h",
                    statistic=float(halved.max()),
                    tolerance=float(field_res[:n_h].max()) * 1.05 + 1e-12,
                    extra={"h_halved": h / 2, "samples": n_h}),
        CheckResult(name="ablation-run-fails-threshold",
                    statistic=float(ablated.min()), tolerance=tol,
                    comparator=">",
                    extra={"dropped_term": "phi(x) phi(x') / 2",
                           "samples": int(ablated.size)},
                    values=ablated),
    ]


def suite_fdr(cfg: SuiteConfig, rng) -> list[CheckResult]:
    """Thermal spectra converge monotonically to the vacuum limit as T -> 0;
    negative frequencies carry exactly zero vacuum fluctuations."""
    xi = 0.7
    temps = [10.0 ** (-k) for k in range(1, 7)]
    max_final = 0.0
    monotone = True
    for hw in (1.0, -1.0, 2.0, -2.0):
        vac = corr.vacuum_spectra(xi, hw)
        devs = []
        for T in temps:
            pt = corr.thermal_spectra(xi, hw, T)
            devs.append(abs(pt.C - vac.C) + abs(pt.sigma - vac.sigma))
        if any(devs[k + 1] > devs[k] + 1e-15 for k in range(len(devs) - 1)):
            monotone = False
        max_final = max(max_final, devs[-1])
    neg_vac = corr.vacuum_spectra(xi, -1.0)
    return [
        CheckResult(name="vacuum-limit-deviation", statistic=max_final,
                    tolerance=1e-12,
                    extra={"temperatures": temps, "hbar_omega": [1, -1, 2, -2]}),
        CheckResult(name="monotone-in-temperature",
                    statistic=0.0 if monotone else 1.0, tolerance=0.5),
        CheckResult(name="zero-fluctuations-negative-frequency",
                    statistic=abs(neg_vac.C), tolerance=1e-300,
                    extra={"C": neg_vac.C}),
    ]


def suite_momentum_oracle(cfg: SuiteConfig, rng) -> list[CheckResult]:
    """The positive-frequency on-shell integral is proportional to the
    closed-form kernel; the fitted constant is reported, not asserted."""
    n = cfg.samples or 20
    eps = cfg.epsilon or 0.05
    ratios = np.empty(n, dtype=complex)
    for i in range(n):
        if i % 2 == 0:   # spacelike, well off the cone
            R = rng.uniform(0.9, 2.0)
            dt = rng.uniform(-0.4, 0.4)
            if dt * dt - R * R > -0.5:
                dt = 0.0
        else:            # timelike
            dt = rng.uniform(0.9, 2.0) * rng.choice([-1.0, 1.0])
            R = rng.uniform(0.0, 0.4)
            if dt * dt - R * R < 0.5:
                R = 0.0
        x = np.array([dt, R, 0.0, 0.0])
        xp = np.zeros(4)
        oracle = corr.momentum_space_oracle(x, xp, eps)
        ratios[i] = oracle / corr.scalar_vacuum_correlation(x, xp, 2.0 * eps)
    fitted = complex(np.mean(ratios))
    spread = np.abs(ratios - fitted)     # the CSV rows; the statistic is their max / |fitted|
    return [CheckResult(
        name="proportionality-deviation", statistic=float(np.max(spread) / abs(fitted)),
        tolerance=cfg.tol or 1e-2, values=spread,
        extra={"fitted_constant": [fitted.real, fitted.imag],
               "expected_order": -1.0 / (2.0 * np.pi**2),
               "samples": n, "epsilon": eps})]


def suite_mirror_2d(cfg: SuiteConfig, rng) -> list[CheckResult]:
    """Mirror verdicts: inertial -> invariant, uniformly accelerated ->
    invariant, sinusoidally perturbed -> modified, with Schwarzian evidence
    separated by orders of magnitude."""
    doppler = np.exp(0.3)
    inertial = lc2.RayMap2D(
        f_plus=lc2.Homography2D(1.0 / np.sqrt(doppler), 0, 0, np.sqrt(doppler)),
        f_minus=lc2.Homography2D(np.sqrt(doppler), 0, 0, 1.0 / np.sqrt(doppler)))
    accelerated = lc2.accelerated_frame_maps_2d(np.array([0.12, 0.27]), 1.4)
    sin_rule = lc2.RayRule(lambda u: (u + 0.1 * np.sin(u), 1 + 0.1 * np.cos(u),
                                      -0.1 * np.sin(u), -0.1 * np.cos(u)))
    sinusoidal = lc2.RayMap2D(f_plus=sin_rule,
                              f_minus=lc2.Homography2D.identity())
    cases = {
        "inertial": (inertial, "invariant"),
        "uniformly-accelerated": (accelerated, "invariant"),
        "sinusoidal": (sinusoidal, "modified"),
    }
    verdicts = {}
    invariant_evidence = []
    modified_evidence = []
    all_as_expected = True
    for name, (frame, expected) in cases.items():
        composite = lc2.mirror_scattering_map(frame)
        v = lc2.vacuum_verdict(composite)
        verdicts[name] = {"verdict": v.verdict, "evidence": v.evidence}
        if v.verdict != expected:
            all_as_expected = False
        (invariant_evidence if expected == "invariant"
         else modified_evidence).append(v.evidence)
    separation = min(modified_evidence) / max(max(invariant_evidence), 1e-300)
    return [
        CheckResult(name="verdict-labels",
                    statistic=0.0 if all_as_expected else 1.0, tolerance=0.5,
                    extra=verdicts),
        CheckResult(name="evidence-separation", statistic=separation,
                    tolerance=1e3, comparator=">",
                    extra={"invariant_max": max(invariant_evidence),
                           "modified_min": min(modified_evidence)}),
    ]


SUITES = {
    "interval-law": suite_interval_law,
    "ricci-flat": suite_ricci_flat,
    "abraham": suite_abraham,
    "light-rays": suite_light_rays,
    "scalar-invariance": suite_scalar_invariance,
    "tetrad-identity": suite_tetrad_identity,
    "em-invariance": suite_em_invariance,
    "fdr": suite_fdr,
    "momentum-oracle": suite_momentum_oracle,
    "mirror-2d": suite_mirror_2d,
}
SUITE_NAMES = tuple(SUITES)


def run_suite(config: SuiteConfig) -> SuiteReport:
    """Run one named suite on a generator seeded with config.seed, timing the
    call, and build its report; writes the report when config.out is set."""
    if config.suite not in SUITES:
        raise ValueError(f"unknown suite {config.suite!r}; "
                         f"known: {', '.join(SUITE_NAMES)}")
    rng = np.random.default_rng(config.seed)
    t0 = time.perf_counter()
    checks = SUITES[config.suite](config, rng)
    report = SuiteReport(
        suite=config.suite, checks=checks,
        config={k: v for k, v in dataclasses.asdict(config).items() if v is not None},
        seed=config.seed, wall_time_s=time.perf_counter() - t0)
    if config.out:
        with open(config.out, "w") as fh:
            if config.fmt == "json":
                fh.write(report.to_json() + "\n")
            else:
                fh.writelines(",".join(map(str, row)) + "\n" for row in report.residual_rows())
    return report
