"""Workloads of the confvac benchmark and the checks on their outputs.

Each workload is a closed loop with one client: a pass starts when the
previous one has finished.  A pass runs the program's own work (suites at
their acceptance sample counts, or the ``confvac transform`` command on
generated files); the checks run after it, outside the timed region.

An *operation* is one suite check, one same-seed rerun comparison of a
suite report, or one transformed row.  Every check outcome is counted so
that ``failed / attempted`` is the benchmark's failure ratio.
"""

from __future__ import annotations

import csv
import importlib
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

DEFAULT_SEED = 20250   # the package's default suite seed
CHECK_SEED = 7         # second seed, used to confirm claims made at the default

# Acceptance configurations, as in tests/test_acceptance.py.
SUITE_CONFIGS = {
    "interval-law": {"samples": 10_000},
    "ricci-flat": {"samples": 50},
    "abraham": {"samples": 20, "step": 1e-3},
    "light-rays": {"samples": 50},
    "scalar-invariance": {"samples": 1000},
    "tetrad-identity": {"samples": 1000},
    "em-invariance": {"samples": 100, "epsilon": 1e-2, "h": 1e-4},
    "fdr": {},
    "momentum-oracle": {"samples": 20},
    "mirror-2d": {},
}
FIXED_CASES = {"fdr": 4, "mirror-2d": 3}   # frequencies, mirror frames: no sample count
WARMUP_SAMPLES = {"abraham": 1}           # every other part warms up at 2 samples

# The em-invariance suite is not run: its check residual-decreases-at-half-h
# fails at about one seed in seven (seeds 6, 15, 16, 22, 25 and 35 of 1..40),
# because at h = 1e-4 the field residual already sits at its rounding floor,
# so no run at such a seed could be correct.  In its place ``correlators``
# runs EM_FIELD: the suite's per-sample verification (verify_em_invariance on
# 100 draws, 20 of them ablated) with its three fixed-tolerance checks, on
# inputs the benchmark draws itself.  test_bench.py keeps the defect in view.
EM_FIELD = "em-field"
EM_SAMPLES = 100
EM_ABLATED = 20
EM_TOL = 1e-4
EM_EPSILON = 1e-2
EM_H = 1e-4
EM_MIN_DENOMINATOR = 0.25   # both events on the positive side of the singular set
EM_MAX_INTERVAL = -0.4      # (x - x')^2 <= this: well spacelike

SUITE_WORKLOADS = {
    "frames": ("interval-law", "tetrad-identity", "scalar-invariance",
               "light-rays", "ricci-flat"),
    "worldlines": ("abraham",),
    "correlators": ("momentum-oracle", "fdr", "mirror-2d", EM_FIELD),
}
WORKLOADS = (*SUITE_WORKLOADS, "transform")

# Count-valued verdicts have no residual and stay out of the gate margin.
MARGIN_EXCLUDED = frozenset({"sign-law-on-crossing-rays", "monotone-in-temperature",
                             "verdict-labels"})

TRANSFORM_EVENTS = 10_000
IMAGE_TOL = 1e-10          # image and lambda against the benchmark's closed forms
INTERVAL_TOL = 1e-9        # interval law on row pairs, as in the interval-law suite
MIN_DENOMINATOR = 0.1      # form events: |1 - 2 alpha.x + alpha^2 x^2| >= this
MIN_INVERSION_SQ = 0.25    # chain events: |y^2| >= this * |y|_E^2 before every inversion
MAX_FACTOR = 1e2           # chain events: |lambda| <= this
SIGNATURE = np.array([1.0, -1.0, -1.0, -1.0])


def load_confvac(root: Path):
    """Import the package from ``root/src`` and nowhere else."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        pkg = importlib.import_module("confvac")
    except ImportError as exc:
        raise SystemExit(f"cannot import confvac from {src}: {exc}")
    if Path(pkg.__file__).resolve().parent != src / "confvac":
        raise SystemExit(f"confvac was imported from {pkg.__file__}, not from {src}")
    return pkg


@dataclass
class Outcome:
    """Checked result of one pass."""

    attempted: int = 0
    failed: int = 0
    margins: list = field(default_factory=list)   # log10 gate margins
    messages: list = field(default_factory=list)

    def record(self, ok: bool, message: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)

    def add_margin(self, tolerance, statistic, comparator="<"):
        """log10(tolerance / statistic), inverted for '>' checks; an exact
        zero statistic has no finite margin and is left out."""
        if statistic > 0 and math.isfinite(statistic):
            margin = math.log10(tolerance) - math.log10(statistic)
            self.margins.append(margin if comparator == "<" else -margin)


# ---------------------------------------------------------------------------
# closed forms of the benchmark's own

def mdot(x, y):
    return (x * y) @ SIGNATURE


def _ball(rng, n):
    pts = rng.uniform(-1.0, 1.0, (2 * n, 4))
    return pts[np.linalg.norm(pts, axis=1) <= 1.0]


def _form_params(rng):
    """alpha in the ball |alpha| <= 0.5, beta in [0.5, 2], as the suites draw them."""
    while True:
        alpha = rng.uniform(-0.5, 0.5, 4)
        if np.linalg.norm(alpha) <= 0.5:
            return alpha, float(rng.uniform(0.5, 2.0))


def form_image(alpha, beta, x):
    """xbar = lambda (x - x^2 alpha), lambda = beta / (1 - 2 alpha.x + alpha^2 x^2)."""
    den = 1.0 - 2.0 * mdot(x, alpha) + mdot(alpha, alpha) * mdot(x, x)
    lam = beta / den
    return lam[:, None] * (x - mdot(x, x)[:, None] * alpha), lam, den


# ---------------------------------------------------------------------------
# suite workloads

@dataclass
class Check:
    """One fixed-tolerance check of the em-field part, shaped like a suite check."""

    name: str
    statistic: float
    tolerance: float
    comparator: str = "<"

    @property
    def passed(self) -> bool:
        return (self.statistic < self.tolerance if self.comparator == "<"
                else self.statistic > self.tolerance)


@dataclass
class EmFieldReport:
    suite: str
    checks: list

    def to_json(self, include_wall_time=False):
        return json.dumps([vars(c) for c in self.checks], sort_keys=True)


def make_em_inputs(seed, n=EM_SAMPLES):
    """(alpha, beta, x, x') draws conditioned as the em-invariance suite
    conditions its own: both denominators >= 0.25, (x - x')^2 <= -0.4."""
    rng = np.random.default_rng(seed)
    draws = []
    while len(draws) < n:
        alpha, beta = _form_params(rng)
        while True:
            pair = _ball(rng, 2)[:2]
            if (len(pair) == 2 and np.all(form_image(alpha, beta, pair)[2] >= EM_MIN_DENOMINATOR)
                    and mdot(pair[0] - pair[1], pair[0] - pair[1]) <= EM_MAX_INTERVAL):
                break
        draws.append((alpha, beta, pair[0], pair[1]))
    return draws


def em_field(corr, conformal, draws):
    """verify_em_invariance over the draws, the first EM_ABLATED also with the
    phi phi' term omitted, reduced to the em-invariance suite's three
    fixed-tolerance checks."""
    field_res, transport_res, ablated = [], [], []
    for i, (alpha, beta, x, xp) in enumerate(draws):
        form = conformal.AcceleratedFrameForm(alpha, beta)
        rep = corr.verify_em_invariance(form, x, xp, epsilon=EM_EPSILON, h=EM_H)
        field_res.append(rep.field_residual)
        transport_res.append(rep.transport_residual)
        if i < EM_ABLATED:
            ablated.append(corr.verify_em_invariance(form, x, xp, epsilon=EM_EPSILON, h=EM_H,
                                                     last_term="omit").transport_residual)
    return EmFieldReport(EM_FIELD, [
        Check("field-tensor-invariance", max(field_res), EM_TOL),
        Check("transport-consistency", max(transport_res), EM_TOL),
        Check("ablation-run-fails-threshold", min(ablated), EM_TOL, ">"),
    ])


class SuiteWorkload:
    """The named suites at their acceptance configurations, one seed."""

    def __init__(self, pkg, names, seed):
        self.suites = importlib.import_module(pkg.__name__ + ".suites")
        self.corr = importlib.import_module(pkg.__name__ + ".correlations")
        self.conformal = importlib.import_module(pkg.__name__ + ".conformal")
        self.names = names
        self.seed = seed
        self.work = sum(EM_SAMPLES if s == EM_FIELD
                        else SUITE_CONFIGS[s].get("samples", FIXED_CASES.get(s))
                        for s in names)
        self.em_inputs = make_em_inputs(seed) if EM_FIELD in names else None
        self.reference = None

    def _run(self, name, samples=None):
        if name == EM_FIELD:
            return em_field(self.corr, self.conformal, self.em_inputs[:samples])
        kw = dict(SUITE_CONFIGS[name])
        if samples is not None:
            kw["samples"] = samples
        return self.suites.run_suite(self.suites.SuiteConfig(suite=name, seed=self.seed, **kw))

    def setup(self):
        for s in self.names:
            self._run(s, samples=WARMUP_SAMPLES.get(s, 2))

    def run_pass(self):
        return [self._run(s) for s in self.names]

    def check(self, reports) -> Outcome:
        """Every check must pass, and every pass after the first must give
        byte-identical reports (wall time aside)."""
        out = Outcome()
        texts = [r.to_json(include_wall_time=False) for r in reports]
        for r in reports:
            for c in r.checks:
                out.record(c.passed, f"{r.suite}: check {c.name} failed: {c.statistic!r} "
                                     f"must be {c.comparator} {c.tolerance!r}")
                if c.name not in MARGIN_EXCLUDED:
                    out.add_margin(c.tolerance, c.statistic, c.comparator)
        if self.reference is None:
            self.reference = texts
        else:
            for r, text, ref in zip(reports, texts, self.reference):
                out.record(text == ref, f"{r.suite}: same-seed rerun differs")
        return out


def inject_failed_check(reports):
    """Push the first check of the first report past its tolerance."""
    c = reports[0].checks[0]
    c.statistic = c.tolerance * (10.0 if c.comparator == "<" else 0.1)


def inject_rerun_mismatch(workload: SuiteWorkload):
    workload.reference[0] += " "


# ---------------------------------------------------------------------------
# transform workload

def _boost_matrix(u):
    u2 = float(u @ u)
    g = 1.0 / math.sqrt(1.0 - u2)
    L = np.eye(4)
    L[0, 0] = g
    L[0, 1:] = L[1:, 0] = -g * u
    L[1:, 1:] = np.eye(3) + (g - 1.0) * np.outer(u, u) / u2
    return L


def chain_image(chain, x):
    """Image, signed factor and the smallest |y^2| / |y|_E^2 met before an
    inversion (how far the event stays from the light cone it inverts in)."""
    y = x.copy()
    lam = np.ones(len(x))
    min_sq = np.full(len(x), np.inf)
    for p in chain:
        if p["kind"] == "translation":
            y = y + np.asarray(p["b"])
        elif p["kind"] == "lorentz":
            y = y @ np.asarray(p["matrix"]).T
        elif p["kind"] == "dilation":
            lam = lam * p["s"]
            y = p["s"] * y
        else:
            y2 = mdot(y, y)
            min_sq = np.minimum(min_sq, np.abs(y2) / np.sum(y * y, axis=1))
            lam = lam * p["beta"] / y2
            y = -p["beta"] * y / y2[:, None]
    return y, lam, min_sq


def make_transform_inputs(seed, n=TRANSFORM_EVENTS):
    """One accelerated-frame form and one primitive chain, each with n events
    kept off its singular sets by the closed forms above."""
    rng = np.random.default_rng(seed)
    alpha, beta = _form_params(rng)
    form = {"alpha": alpha.tolist(), "beta": beta}
    chain = {"chain": [
        {"kind": "translation", "b": rng.uniform(-0.5, 0.5, 4).tolist()},
        {"kind": "lorentz", "matrix": _boost_matrix(rng.uniform(-0.4, 0.4, 3)).tolist()},
        {"kind": "inversion", "beta": float(rng.uniform(0.5, 2.0))},
        {"kind": "dilation", "s": float(rng.uniform(0.5, 2.0))},
        {"kind": "translation", "b": rng.uniform(-0.5, 0.5, 4).tolist()},
        {"kind": "inversion", "beta": float(rng.uniform(0.5, 2.0))},
    ]}

    def draw(keep):
        kept = []
        while sum(len(k) for k in kept) < n:
            pts = _ball(rng, n)
            kept.append(pts[keep(pts)])
        return np.concatenate(kept)[:n]

    form_events = draw(lambda x: np.abs(form_image(alpha, form["beta"], x)[2])
                       >= MIN_DENOMINATOR)

    def chain_ok(x):
        _, lam, min_sq = chain_image(chain["chain"], x)
        return (min_sq >= MIN_INVERSION_SQ) & (np.abs(lam) <= MAX_FACTOR)

    chain_events = draw(chain_ok)
    return {"form": (form, form_events), "chain": (chain, chain_events)}


def write_events(path, events):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "x1", "x2", "x3"])
        w.writerows([repr(float(v)) for v in row] for row in events)


def read_transform_output(path):
    """(source events, images, lambdas, statuses) from a transform CSV."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    body = rows[1:]
    status = [r[-1] if r else "" for r in body]
    num = np.full((len(body), 9), np.nan)
    for i, r in enumerate(body):
        if len(r) == 11 and r[-1] == "ok":
            num[i] = [float(v) for v in r[:9]]
    return num[:, :4], num[:, 4:8], num[:, 8], status


class TransformWorkload:
    """``confvac transform`` on one form map and one chain, from files."""

    maps = ("form", "chain")

    def __init__(self, pkg, seed, workdir: Path, n=TRANSFORM_EVENTS):
        self.cli = importlib.import_module(pkg.__name__ + ".cli")
        self.seed = seed
        self.n = n
        self.dir = Path(workdir)
        self.work = 2 * n
        self.inputs = {}

    def _write(self, tag, inputs):
        paths = {}
        for kind, (spec, events) in inputs.items():
            mp = self.dir / f"{tag}{kind}.json"
            mp.write_text(json.dumps(spec))
            ev = self.dir / f"{tag}{kind}.csv"
            write_events(ev, events)
            paths[kind] = (mp, ev, self.dir / f"{tag}{kind}.out.csv")
        return paths

    def setup(self):
        inputs = make_transform_inputs(self.seed, self.n)
        self.specs = {k: v[0] for k, v in inputs.items()}
        self.events = {k: v[1] for k, v in inputs.items()}
        self.paths = self._write("", inputs)
        warm = self._write("warmup-", {k: (s, e[:100]) for k, (s, e) in inputs.items()})
        self._transform(warm)

    def _transform(self, paths):
        return {k: self.cli.main(["transform", "--map", str(mp), "--input", str(ev),
                                  "--out", str(out)])
                for k, (mp, ev, out) in paths.items()}

    def run_pass(self):
        return self._transform(self.paths)

    def check(self, codes) -> Outcome:
        out = Outcome()
        for kind in self.maps:
            x = self.events[kind]
            got_x, img, lam, status = read_transform_output(self.paths[kind][2])
            if codes[kind] != 0 or len(status) != len(x):
                for i in range(len(x)):
                    out.record(False, f"{kind}: exit status {codes[kind]}, "
                                      f"{len(status)} rows for {len(x)} events")
                continue
            if kind == "form":
                spec = self.specs["form"]
                ref_img, ref_lam, _ = form_image(np.asarray(spec["alpha"]), spec["beta"], x)
            else:
                ref_img, ref_lam, _ = chain_image(self.specs["chain"]["chain"], x)
            dev = np.maximum(np.max(np.abs(img - ref_img) / (1.0 + np.abs(ref_img)), axis=1),
                             np.abs(lam - ref_lam) / (1.0 + np.abs(ref_lam)))
            bad = (np.asarray(status) != "ok") | np.any(got_x != x, axis=1) | ~(dev <= IMAGE_TOL)
            out.add_margin(IMAGE_TOL, float(np.max(dev)))
            if kind == "chain":
                # (xbar_i - xbar_j)^2 = lambda_i lambda_j (x_i - x_j)^2, j = i + 1 cyclic
                j = np.roll(np.arange(len(x)), -1)
                lhs = mdot(img - img[j], img - img[j])
                rhs = lam * lam[j] * mdot(x - x[j], x - x[j])
                res = np.abs(lhs - rhs) / np.maximum(np.abs(lhs), 1.0)
                bad |= ~(res < INTERVAL_TOL)
                out.add_margin(INTERVAL_TOL, float(np.max(res)))
            for i in range(len(x)):
                out.record(not bad[i], f"{kind}: row {i + 1} is wrong "
                                       f"(status {status[i]!r}, deviation {dev[i]:.3e})")
        return out


def inject_row_error(workload: TransformWorkload, kind="form", row=17):
    """Perturb one image coordinate of an output row by about 1e-9."""
    path = workload.paths[kind][2]
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[row][4] = repr(float(rows[row][4]) * (1.0 + 1e-9) + 1e-9)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def make_workload(pkg, name, seed, workdir):
    if name == "transform":
        return TransformWorkload(pkg, seed, workdir)
    return SuiteWorkload(pkg, SUITE_WORKLOADS[name], seed)
