"""Named verification sweeps over randomized maps, events and worldlines.

Each suite checks one invariance property at desk scale and reports residual
statistics; a suite passes iff every check meets its tolerance.  Reports are
deterministic given (config, seed) apart from the wall-time field.

Sampling is kept well-conditioned on purpose: maps with |alpha| <= 0.5,
events inside the unit ball with singular-set residual bounded away from
zero, and (where proper-time differencing is involved) image accelerations
of order one.  The tolerances are meaningless without such conditioning
since residuals blow up polynomially near the singular sets.

interval-law, scalar-invariance and tetrad-identity draw, then evaluate
once, then filter: a block of candidates is drawn in stream order (through
``DrawStream``, which replays the generator's doubles bit for bit), the
whole block is evaluated in one array pass (its forms as one stacked
``AcceleratedFrameForm``), and the first n accepted are kept in order.  No
draw depends on an evaluation, so the samples, and the reports, are those of
drawing and evaluating one sample at a time.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field

import numpy as np

from . import correlations as corr
from . import lightcone2d as lc2
from .conformal import (AcceleratedFrameForm, ConformalMap, Dilation, Inversion,
                        LightRay, Translation, lorentz_boost, map_to_dict,
                        ricci_conformal, transform_light_ray, verify_interval_law)
from .errors import SingularPointError
from .kinematics import (abraham_norms_on_grid, pushforward_worldline,
                         transform_abraham)
from .minkowski import HyperbolicWorldline, interval, minkowski_dot, rest_worldline
from .numdiff import gradient_hessian

SUITE_NAMES = (
    "interval-law",
    "ricci-flat",
    "abraham",
    "light-rays",
    "scalar-invariance",
    "tetrad-identity",
    "em-invariance",
    "fdr",
    "momentum-oracle",
    "mirror-2d",
)


def _json_plain(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


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
        if self.samples is not None and self.samples <= 0:
            raise ValueError("sample count must be positive")
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
    sample_residuals: dict = field(default_factory=dict, repr=False)

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
        rows = [("suite", "check", "index", "residual")]
        for name, vals in self.sample_residuals.items():
            for i, v in enumerate(vals):
                rows.append((self.suite, name, i, repr(float(v))))
        return rows


# ---------------------------------------------------------------------------
# random draws
#
# The samplers take a numpy Generator or a DrawStream: they read doubles only
# through ``uniform(lo, hi[, size])`` and compute their rejection predicates
# on plain floats.  A predicate value within NEAR_THRESHOLD of its threshold
# is decided by the numpy expression it replaces, so every accept/reject
# decision, and with it the stream, is that of the numpy samplers.

NEAR_THRESHOLD = 1e-9     # far above the rounding of O(1) sums of four terms
CANDIDATE_BLOCK = 1024    # candidates drawn, then evaluated, per array pass


class DrawStream:
    """The doubles of ``rng.random()``, read from prefetched blocks.

    ``uniform(lo, hi)`` is bitwise ``rng.uniform(lo, hi)``: numpy computes
    ``lo + (hi - lo) * random()``, as it does for each entry of
    ``rng.uniform(lo, hi, k)``.  Integer draws use numpy's buffered 32-bit
    half-words, so they are left to the generator: ``generator()`` hands it
    back positioned after the last double read, as if every draw so far had
    been made on it directly.
    """

    BLOCK = 256

    def __init__(self, rng):
        self.rng = rng
        self._saved = None      # generator state before the current block
        self._block = []
        self._next = 0

    def random(self):
        if self._next == len(self._block):
            self._saved = self.rng.bit_generator.state
            self._block = self.rng.random(self.BLOCK).tolist()
            self._next = 0
        self._next += 1
        return self._block[self._next - 1]

    def uniform(self, lo, hi, size=None):
        """One float, or a list of ``size`` floats."""
        if size is None:
            return lo + (hi - lo) * self.random()
        if self._next + size > len(self._block):
            return [self.uniform(lo, hi) for _ in range(size)]
        self._next += size
        return [lo + (hi - lo) * d for d in self._block[self._next - size:self._next]]

    def generator(self):
        if self._saved is not None:
            self.rng.bit_generator.state = self._saved
            self.rng.random(self._next)
            self._saved, self._block, self._next = None, [], 0
        return self.rng


def _mdot(a, b):
    return a[0] * b[0] - a[1] * b[1] - a[2] * b[2] - a[3] * b[3]


def _at_least(value, threshold, exact):
    """value >= threshold as ``exact()`` (the numpy predicate) decides it."""
    if abs(value - threshold) > NEAR_THRESHOLD:
        return value >= threshold
    return exact()


def _ball(rng, radius):
    """Uniform in the cube until np.linalg.norm(v) <= radius: 4 floats."""
    while True:
        v = rng.uniform(-radius, radius, 4)
        s = v[0] * v[0] + v[1] * v[1] + v[2] * v[2] + v[3] * v[3]
        if _at_least(radius * radius, s, lambda: radius >= np.linalg.norm(v)):
            return v


def _form_params(rng, alpha_max=0.5):
    alpha = _ball(rng, alpha_max)
    return alpha, rng.uniform(0.5, 2.0)


def _off_singular(rng, alpha, beta, radius, min_residual):
    """An event x (4 floats) with |form.denominator(x)| >= min_residual, and
    that denominator (to NEAR_THRESHOLD)."""
    alpha_sq = _mdot(alpha, alpha)
    while True:
        x = _ball(rng, radius)
        den = 1.0 - 2.0 * _mdot(x, alpha) + alpha_sq * _mdot(x, x)
        if _at_least(abs(den), min_residual, lambda: abs(
                AcceleratedFrameForm(alpha, beta).denominator(x)) >= min_residual):
            return x, den


def _same_side(rng, alpha, beta, radius, min_residual, min_interval):
    """Events x, x' (4 floats each) off the singular set, on one side of it,
    with |(x - x')^2| >= min_interval."""
    while True:
        x, den = _off_singular(rng, alpha, beta, radius, min_residual)
        xp, den_p = _off_singular(rng, alpha, beta, radius, min_residual)
        if den * den_p <= 0:    # |den| >= min_residual: the plain signs are numpy's
            continue
        d = [a - b for a, b in zip(x, xp)]
        if _at_least(abs(_mdot(d, d)), min_interval,
                     lambda: abs(interval(x, xp)) >= min_interval):
            return x, xp


def random_form(rng, alpha_max=0.5) -> AcceleratedFrameForm:
    alpha, beta = _form_params(rng, alpha_max)
    return AcceleratedFrameForm(np.array(alpha), beta)


def random_chain(rng) -> ConformalMap:
    prims = []
    for _ in range(rng.integers(2, 5)):
        kind = rng.integers(0, 4)
        if kind == 0:
            prims.append(Translation(rng.uniform(-0.5, 0.5, 4)))
        elif kind == 1:
            u = rng.uniform(-0.4, 0.4, 3)
            if u @ u >= 0.9:
                u = u / np.linalg.norm(u) * 0.5
            prims.append(lorentz_boost(u))
        elif kind == 2:
            prims.append(Dilation(rng.uniform(0.5, 2.0)))
        else:
            prims.append(Inversion(rng.uniform(0.5, 2.0)))
    return ConformalMap(prims)


def random_event(rng, radius=1.0):
    return np.array(_ball(rng, radius))


def random_event_off_singular(rng, form, radius=1.0, min_residual=0.1):
    return np.array(_off_singular(rng, form.alpha.tolist(), form.beta, radius,
                                  min_residual)[0])


def random_same_side_pair(rng, form, radius=1.0, min_residual=0.1, min_interval=0.0):
    x, xp = _same_side(rng, form.alpha.tolist(), form.beta, radius, min_residual,
                       min_interval)
    return np.array(x), np.array(xp)


def _same_side_blocks(rng, n, min_interval):
    """(forms stacked, x rows, x' rows) for blocks of CANDIDATE_BLOCK draws of
    ``random_form`` then ``random_same_side_pair``, in stream order."""
    stream = DrawStream(rng)
    for start in range(0, n, CANDIDATE_BLOCK):
        draws = []
        for _ in range(min(CANDIDATE_BLOCK, n - start)):
            alpha, beta = _form_params(stream)
            draws.append((alpha, beta, *_same_side(stream, alpha, beta, 1.0, 0.1,
                                                   min_interval)))
        alpha, beta, x, xp = (np.array(col) for col in zip(*draws))
        yield AcceleratedFrameForm(alpha, beta), x, xp


def random_hyperbolic(rng):
    a = rng.uniform(0.2, 0.8)
    u = rng.uniform(-0.3, 0.3, 3)
    g = 1.0 / np.sqrt(1.0 - u @ u)
    v0 = np.array([g, *(g * u)])
    while True:
        n = np.array([0.0, *rng.uniform(-1.0, 1.0, 3)])
        n = n - minkowski_dot(n, v0) * v0  # v0.v0 = 1
        norm = np.sqrt(max(-minkowski_dot(n, n), 0.0))
        if norm > 1e-3:
            break
    vdot0 = n / norm * a
    x0 = rng.uniform(-0.2, 0.2, 4)
    return HyperbolicWorldline(v0, vdot0, a, x0=x0)


# ---------------------------------------------------------------------------
# suites

def _wrap(name, cfg, rng_consumer):
    rng = np.random.default_rng(cfg.seed)
    t0 = time.perf_counter()
    checks, residuals = rng_consumer(rng)
    report = SuiteReport(
        suite=name,
        checks=checks,
        config={k: v for k, v in dataclasses.asdict(cfg).items() if v is not None},
        seed=cfg.seed,
        wall_time_s=time.perf_counter() - t0,
        sample_residuals=residuals,
    )
    return report


def _interval_law_block(stream, k):
    """k interval-law candidates, drawn in stream order, then evaluated:
    (maps, points (k, 2, 4), values (5, k)).  A candidate is an
    accelerated-frame form (probability 0.7), kept in maps as its (alpha,
    beta), with two events off its singular set, or a primitive chain with
    two events in the unit ball.  values holds each candidate's residual,
    lhs, rhs, lambda and lambda', NaN for a singular chain; the forms are
    evaluated as one stacked batch, each chain on its own pair."""
    maps, pairs = [], []
    for _ in range(k):
        if stream.random() < 0.7:
            alpha, beta = _form_params(stream)
            maps.append((alpha, beta))
            pairs.append((_off_singular(stream, alpha, beta, 1.0, 0.1)[0],
                          _off_singular(stream, alpha, beta, 1.0, 0.1)[0]))
        else:
            maps.append(random_chain(stream.generator()))
            pairs.append((_ball(stream, 1.0), _ball(stream, 1.0)))
    points = np.array(pairs)
    values = np.full((5, k), np.nan)
    forms = [i for i, m in enumerate(maps) if isinstance(m, tuple)]
    if forms:
        alpha, beta = (np.array(col) for col in zip(*(maps[i] for i in forms)))
        rep = verify_interval_law(AcceleratedFrameForm(alpha, beta),
                                  points[forms, 0], points[forms, 1])
        values[:, forms] = rep.residual, rep.lhs, rep.rhs, rep.lam, rep.lam_p
    for i, m in enumerate(maps):
        if isinstance(m, tuple):
            continue
        try:
            rep = verify_interval_law(m, points[i, 0], points[i, 1])
        except SingularPointError:
            continue
        values[:, i] = rep.residual, rep.lhs, rep.rhs, rep.lam, rep.lam_p
    return maps, points, values


def suite_interval_law(cfg: SuiteConfig) -> SuiteReport:
    """(xbar - xbar')^2 = lambda lambda' (x - x')^2 over random maps and pairs.

    Candidates are drawn in blocks, evaluated in one pass per block (the
    forms as one stacked batch, each chain on its own pair) and kept in
    stream order while fewer than n are kept: a rejected candidate (singular,
    or |lambda| >= 1e3) only moves on to the next, so the stream does not
    depend on what is kept."""
    n = cfg.samples or 10_000
    tol = cfg.tol or 1e-9

    def run(rng):
        stream = DrawStream(rng)
        residuals = np.empty(n)
        worst = None
        kept = 0
        while kept < n:
            maps, points, (res, lhs, rhs, lam, lam_p) = _interval_law_block(
                stream, min(CANDIDATE_BLOCK, n - kept))
            accepted = np.flatnonzero((np.abs(lam) < 1e3) & (np.abs(lam_p) < 1e3))
            residuals[kept:kept + len(accepted)] = res[accepted]
            kept += len(accepted)
            if not len(accepted):
                continue
            i = accepted[np.argmax(res[accepted])]   # the first maximum
            if worst is None or res[i] > worst[0]:
                m = maps[i]
                if isinstance(m, tuple):
                    m = AcceleratedFrameForm(np.array(m[0]), m[1])
                worst = (float(res[i]), map_to_dict(m), points[i].tolist(),
                         float(lhs[i]), float(rhs[i]))
        check = CheckResult(
            name="interval-law-residual", statistic=float(residuals.max()),
            tolerance=tol, mean=float(residuals.mean()),
            extra={"samples": n,
                   "worst": {"residual": worst[0], "map": worst[1],
                             "points": worst[2], "lhs": worst[3], "rhs": worst[4]}})
        return [check], {"interval-law-residual": residuals.tolist()}

    return _wrap("interval-law", cfg, run)


def suite_ricci_flat(cfg: SuiteConfig) -> SuiteReport:
    """Ricci tensor of random accelerated-frame factors vanishes, with the
    log-gradient fields obtained by finite differences of lambda alone: all
    170 stencil events of a sample go through the map in one batch."""
    n = cfg.samples or 50
    tol = cfg.tol or 1e-7
    step = cfg.step or 1e-3

    def run(rng):
        vals = np.empty(n)
        for i in range(n):
            form = random_form(rng)
            x = random_event_off_singular(rng, form, min_residual=0.3)
            phi, phi2 = gradient_hessian(lambda r: np.log(np.abs(form.factor(r))), x, step)
            vals[i] = np.max(np.abs(ricci_conformal(phi, phi2)))
        check = CheckResult(name="ricci-max-component", statistic=float(vals.max()),
                            tolerance=tol, mean=float(vals.mean()),
                            extra={"samples": n, "fd_step": step})
        return [check], {"ricci-max-component": vals.tolist()}

    return _wrap("ricci-flat", cfg, run)


def _conditioned_pushforward_sample(rng, hyperbolic=True):
    """Map + worldline pair whose image stays tame: denominator >= 0.5 along
    the trajectory and image proper acceleration of order one."""
    while True:
        form = random_form(rng, alpha_max=0.25)
        wl = random_hyperbolic(rng) if hyperbolic else rest_worldline(
            x0=rng.uniform(-0.2, 0.2, 4))
        grid = np.arange(-0.8, 0.8 + 1e-12, 1e-3)
        pos = wl.position(grid)
        den = form.denominator(pos)
        if np.min(np.abs(den)) < 0.5 or np.min(den) * np.max(den) < 0:
            continue
        image = pushforward_worldline(form, wl, grid)
        # crude image-acceleration estimate at mid-grid
        k = len(grid) // 2
        st = image.state(image.tau[k], step=1e-3)
        abar = np.sqrt(abs(minkowski_dot(st.velocity_dot, st.velocity_dot)))
        if abar > 1.0:
            continue
        return form, wl, grid, image


def suite_abraham(cfg: SuiteConfig) -> SuiteReport:
    """Pushforwards of uniformly accelerated / rest worldlines keep w = 0,
    and the two transformation laws of w agree for flat conformal factors."""
    n = cfg.samples or 20
    tol = cfg.tol or 1e-5
    step = cfg.step or 1e-3
    hill_tol = 1e-8

    def run(rng):
        sup_w = np.empty(n)
        hill = np.empty(n)
        for i in range(n):
            form, wl, grid, image = _conditioned_pushforward_sample(
                rng, hyperbolic=(i % 4 != 3))
            lo, hi = image.tau_range
            margin = 2 * step + 5 * float(np.max(np.diff(image.tau)))
            taus = image.tau[(image.tau > lo + margin) & (image.tau < hi - margin)]
            sup_w[i] = float(np.max(abraham_norms_on_grid(image, taus, step=step)))
            # transformation law at a random interior proper time of the source
            st = wl.state(rng.uniform(-0.5, 0.5))
            res = transform_abraham(form, st)
            hill[i] = res.disagreement
        checks = [
            CheckResult(name="image-abraham-sup", statistic=float(sup_w.max()),
                        tolerance=tol, mean=float(sup_w.mean()),
                        extra={"samples": n, "step": step}),
            CheckResult(name="hill-general-vs-reduced", statistic=float(hill.max()),
                        tolerance=hill_tol, mean=float(hill.mean())),
        ]
        return checks, {"image-abraham-sup": sup_w.tolist(),
                        "hill-general-vs-reduced": hill.tolist()}

    return _wrap("abraham", cfg, run)


def suite_light_rays(cfg: SuiteConfig) -> SuiteReport:
    """Straight null rays map to straight null rays; coordinate-time spans
    transform homographically with the stated sign law across singular sets."""
    n = cfg.samples or 50
    tol = cfg.tol or 1e-9

    def run(rng):
        col = np.empty(n)
        tfr = np.empty(n)
        crossing_checked = 0
        crossing_ok = 0
        i = 0
        while i < n:
            form = random_form(rng)
            origin = random_event_off_singular(rng, form, min_residual=0.2)
            nvec = rng.normal(size=3)
            nvec /= np.linalg.norm(nvec)
            ray = LightRay(origin, np.array([1.0, *nvec]), span=(-0.6, 0.6))
            try:
                _, rep = transform_light_ray(form, ray)
            except SingularPointError:
                continue
            col[i] = rep.collinearity_residual
            tfr[i] = rep.time_formula_residual
            if len(rep.sign_crossings) == 1:
                crossing_checked += 1
                if rep.sign_law_ok and rep.global_sign == np.sign(form.beta):
                    crossing_ok += 1
            i += 1
        # dedicated crossing rays: the denominator is affine along a null ray,
        # so the single root can be placed inside the span by construction
        attempts = 0
        while crossing_checked < 5 and attempts < 2000:
            attempts += 1
            form = random_form(rng)
            origin = random_event_off_singular(rng, form, min_residual=0.05)
            nvec = rng.normal(size=3)
            nvec /= np.linalg.norm(nvec)
            v = np.array([1.0, *nvec])
            slope = (minkowski_dot(form.alpha, v)
                     - form.alpha_sq * minkowski_dot(origin, v))
            if abs(slope) < 1e-6:
                continue
            dstar = form.denominator(origin) / (2.0 * slope)
            if not 0.15 < abs(dstar) < 1.2:
                continue
            ray = LightRay(origin, v, span=(-1.5, 1.5))
            try:
                _, rep = transform_light_ray(form, ray)
            except SingularPointError:
                continue
            if len(rep.sign_crossings) != 1:
                continue
            crossing_checked += 1
            if rep.sign_law_ok and rep.global_sign == np.sign(form.beta):
                crossing_ok += 1
        # failures, plus a shortfall penalty so the check cannot pass vacuously
        sign_failures = (crossing_checked - crossing_ok) + max(0, 5 - crossing_checked)
        checks = [
            CheckResult(name="image-collinearity", statistic=float(col.max()),
                        tolerance=tol, mean=float(col.mean()),
                        extra={"samples": n}),
            CheckResult(name="time-transform-formula", statistic=float(tfr.max()),
                        tolerance=tol, mean=float(tfr.mean())),
            CheckResult(name="sign-law-on-crossing-rays",
                        statistic=float(sign_failures),
                        tolerance=0.5, comparator="<",
                        extra={"rays_with_one_crossing": crossing_checked}),
        ]
        return checks, {"image-collinearity": col.tolist(),
                        "time-transform-formula": tfr.tolist()}

    return _wrap("light-rays", cfg, run)


def suite_scalar_invariance(cfg: SuiteConfig) -> SuiteReport:
    """lambda lambda' c_image = c, extrapolated eps -> 0, over random maps and
    same-side pairs, drawn in blocks and evaluated one block at a time."""
    n = cfg.samples or 1000
    tol = cfg.tol or 1e-8
    eps = cfg.epsilon or 1e-6

    def run(rng):
        residuals = np.empty(n)
        worst = None
        kept = 0
        for form, x, xp in _same_side_blocks(rng, n, min_interval=0.05):
            rep = corr.verify_scalar_invariance(form, x, xp, eps)
            residuals[kept:kept + len(x)] = rep.residual
            kept += len(x)
            i = int(np.argmax(rep.residual))   # the first maximum
            if worst is None or rep.residual[i] > worst[0]:
                worst = (float(rep.residual[i]),
                         map_to_dict(AcceleratedFrameForm(form.alpha[i], form.beta[i])),
                         [x[i].tolist(), xp[i].tolist()],
                         [float(rep.lhs[i].real), float(rep.lhs[i].imag)],
                         [float(rep.rhs[i].real), float(rep.rhs[i].imag)])
        check = CheckResult(
            name="scalar-invariance-residual", statistic=float(residuals.max()),
            tolerance=tol, mean=float(residuals.mean()),
            extra={"samples": n, "epsilon": eps,
                   "worst": {"residual": worst[0], "map": worst[1],
                             "points": worst[2], "lhs": worst[3], "rhs": worst[4]}})
        return [check], {"scalar-invariance-residual": residuals.tolist()}

    return _wrap("scalar-invariance", cfg, run)


def suite_tetrad_identity(cfg: SuiteConfig) -> SuiteReport:
    n = cfg.samples or 1000
    tol = cfg.tol or 1e-10

    def run(rng):
        residuals = np.concatenate([corr.tetrad_contraction(form, x, xp).residual
                                    for form, x, xp in _same_side_blocks(rng, n, 0.0)])
        check = CheckResult(name="tetrad-contraction-residual",
                            statistic=float(residuals.max()), tolerance=tol,
                            mean=float(residuals.mean()), extra={"samples": n})
        return [check], {"tetrad-contraction-residual": residuals.tolist()}

    return _wrap("tetrad-identity", cfg, run)


def _em_sample(rng):
    form = random_form(rng)
    while True:
        x = random_event(rng)
        xp = random_event(rng)
        if form.denominator(x) < 0.25 or form.denominator(xp) < 0.25:
            continue
        if interval(x, xp) > -0.4:
            continue
        return form, x, xp


def suite_em_invariance(cfg: SuiteConfig) -> SuiteReport:
    """Field-tensor correlations from the transformed potential correlator
    match the Minkowski ones; the phi phi' term is required for transport
    consistency (ablation run fails the same threshold)."""
    n = cfg.samples or 100
    tol = cfg.tol or 1e-4
    eps = cfg.epsilon or 1e-2
    h = cfg.h or 1e-4

    def run(rng):
        samples = [_em_sample(rng) for _ in range(n)]
        field_res = np.empty(n)
        transport_res = np.empty(n)
        for i, (form, x, xp) in enumerate(samples):
            rep = corr.verify_em_invariance(form, x, xp, epsilon=eps, h=h)
            field_res[i] = rep.field_residual
            transport_res[i] = rep.transport_residual
        n_h = min(10, n)
        halved = np.empty(n_h)
        for i in range(n_h):
            form, x, xp = samples[i]
            halved[i] = corr.verify_em_invariance(form, x, xp, epsilon=eps,
                                                  h=h / 2).field_residual
        ablated = np.empty(min(20, n))
        for i in range(ablated.size):
            form, x, xp = samples[i]
            ablated[i] = corr.verify_em_invariance(form, x, xp, epsilon=eps, h=h,
                                                   last_term="omit").transport_residual
        checks = [
            CheckResult(name="field-tensor-invariance", statistic=float(field_res.max()),
                        tolerance=tol, mean=float(field_res.mean()),
                        extra={"samples": n, "epsilon": eps, "h": h}),
            CheckResult(name="transport-consistency",
                        statistic=float(transport_res.max()), tolerance=tol,
                        mean=float(transport_res.mean())),
            CheckResult(name="residual-decreases-at-half-h",
                        statistic=float(halved.max()),
                        tolerance=float(field_res[:n_h].max()) * 1.05 + 1e-12,
                        extra={"h_halved": h / 2, "samples": n_h}),
            CheckResult(name="ablation-run-fails-threshold",
                        statistic=float(ablated.min()), tolerance=tol,
                        comparator=">",
                        extra={"dropped_term": "phi(x) phi(x') / 2",
                               "samples": int(ablated.size)}),
        ]
        return checks, {"field-tensor-invariance": field_res.tolist(),
                        "transport-consistency": transport_res.tolist(),
                        "ablation-transport-residual": ablated.tolist()}

    return _wrap("em-invariance", cfg, run)


def suite_fdr(cfg: SuiteConfig) -> SuiteReport:
    """Thermal spectra converge monotonically to the vacuum limit as T -> 0;
    negative frequencies carry exactly zero vacuum fluctuations."""
    xi = 0.7
    temps = [10.0 ** (-k) for k in range(1, 7)]

    def run(rng):
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
        checks = [
            CheckResult(name="vacuum-limit-deviation", statistic=max_final,
                        tolerance=1e-12,
                        extra={"temperatures": temps, "hbar_omega": [1, -1, 2, -2]}),
            CheckResult(name="monotone-in-temperature",
                        statistic=0.0 if monotone else 1.0, tolerance=0.5),
            CheckResult(name="zero-fluctuations-negative-frequency",
                        statistic=abs(neg_vac.C), tolerance=1e-300,
                        extra={"C": neg_vac.C}),
        ]
        return checks, {}

    return _wrap("fdr", cfg, run)


def suite_momentum_oracle(cfg: SuiteConfig) -> SuiteReport:
    """The positive-frequency on-shell integral is proportional to the
    closed-form kernel; the fitted constant is reported, not asserted."""
    n = cfg.samples or 20
    eps = cfg.epsilon or 0.05
    tol = cfg.tol or 1e-2

    def run(rng):
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
        deviation = float(np.max(np.abs(ratios - fitted)) / abs(fitted))
        check = CheckResult(
            name="proportionality-deviation", statistic=deviation, tolerance=tol,
            extra={"fitted_constant": [fitted.real, fitted.imag],
                   "expected_order": -1.0 / (2.0 * np.pi**2),
                   "samples": n, "epsilon": eps})
        return [check], {"proportionality-deviation":
                         np.abs(ratios - fitted).tolist()}

    return _wrap("momentum-oracle", cfg, run)


def suite_mirror_2d(cfg: SuiteConfig) -> SuiteReport:
    """Mirror verdicts: inertial -> invariant, uniformly accelerated ->
    invariant, sinusoidally perturbed -> modified, with Schwarzian evidence
    separated by orders of magnitude."""

    def run(rng):
        doppler = np.exp(0.3)
        inertial = lc2.RayMap2D(
            f_plus=lc2.Homography2D(1.0 / np.sqrt(doppler), 0, 0, np.sqrt(doppler)),
            f_minus=lc2.Homography2D(np.sqrt(doppler), 0, 0, 1.0 / np.sqrt(doppler)))
        accelerated = lc2.accelerated_frame_maps_2d(np.array([0.12, 0.27]), 1.4)
        sin_rule = lc2.SampledRule.from_callable(
            lambda u: u + 0.1 * np.sin(u), -2.5, 2.5, n=4001)
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
        checks = [
            CheckResult(name="verdict-labels",
                        statistic=0.0 if all_as_expected else 1.0, tolerance=0.5,
                        extra=verdicts),
            CheckResult(name="evidence-separation", statistic=separation,
                        tolerance=1e3, comparator=">",
                        extra={"invariant_max": max(invariant_evidence),
                               "modified_min": min(modified_evidence)}),
        ]
        return checks, {}

    return _wrap("mirror-2d", cfg, run)


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


def run_suite(config: SuiteConfig) -> SuiteReport:
    """Run one named suite; writes the report when config.out is set."""
    if config.suite not in SUITES:
        raise ValueError(f"unknown suite {config.suite!r}; "
                         f"known: {', '.join(SUITE_NAMES)}")
    report = SUITES[config.suite](config)
    if config.out:
        if config.fmt == "json":
            with open(config.out, "w") as fh:
                fh.write(report.to_json())
                fh.write("\n")
        else:
            with open(config.out, "w") as fh:
                for row in report.residual_rows():
                    fh.write(",".join(str(v) for v in row) + "\n")
    return report
