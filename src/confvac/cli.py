"""Batch command-line front end.

Subcommands: ``suite`` (named verification sweeps), ``transform`` (map events
or worldlines from CSV), ``abraham`` (radiation-reaction diagnostic of a
sampled worldline), ``corr`` (two-point kernels at a pair of events), and
``ray2d`` (2D light-cone maps and mirror verdicts).  Exit status is 0 iff
every requested check passed.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from . import correlations as corrmod
from . import lightcone2d as lc2
from .conformal import AcceleratedFrameForm, map_from_dict
from .errors import PoleError
from .kinematics import abraham_norms_on_grid, classify_motion
from .minkowski import SampledWorldline
from .suites import SUITE_NAMES, SuiteConfig, run_suite


def _parse_vector(text, n):
    parts = [float(p) for p in text.replace(",", " ").split()]
    if len(parts) != n:
        raise argparse.ArgumentTypeError(f"expected {n} components, got {len(parts)}")
    return np.asarray(parts)


FLAGS = {
    "--seed": dict(type=int, help="random seed"),
    "--samples": dict(type=int, help="sample count"),
    "--tol": dict(type=float, help="main tolerance"),
    "--epsilon": dict(type=float, help="two-point regulator"),
    "--step": dict(type=float, help="proper-time finite-difference step"),
    "--h": dict(type=float, help="coordinate finite-difference step"),
    "--out": dict(help="output file path"),
    "--format": dict(dest="fmt", choices=("json", "csv"), default="json"),
    "--config": dict(help="JSON config file; explicit flags take precedence"),
}


def _add_flags(parser, *names):
    """Declare the shared flags that the subcommand's handler reads."""
    for name in names:
        parser.add_argument(name, **FLAGS[name])


def _merge_config(args):
    merged = {}
    if args.config:
        with open(args.config) as fh:
            merged.update(json.load(fh))
    for key in ("seed", "samples", "tol", "epsilon", "step", "h", "out", "fmt"):
        val = getattr(args, key)
        if val is not None:
            merged[key] = val
    return merged


def _write_json(payload, out):
    """Indented, key-sorted JSON to the file ``out``, or to standard output."""
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_suite(args) -> int:
    merged = _merge_config(args)
    names = list(SUITE_NAMES) if "all" in args.names else args.names
    failures = 0
    for name in names:
        cfg = SuiteConfig(
            suite=name,
            samples=merged.get("samples"),
            seed=merged.get("seed", SuiteConfig.seed),
            epsilon=merged.get("epsilon"),
            h=merged.get("h"),
            step=merged.get("step"),
            tol=merged.get("tol"),
            out=(merged.get("out") if len(names) == 1 else
                 (f"{merged['out']}.{name}.{merged.get('fmt', 'json')}"
                  if merged.get("out") else None)),
            fmt=merged.get("fmt", "json"),
        )
        report = run_suite(cfg)
        status = "PASS" if report.passed else "FAIL"
        worst = max(c.statistic for c in report.checks)
        print(f"{name}: {status} ({len(report.checks)} checks, "
              f"worst statistic {worst:.3e}, {report.wall_time_s:.2f}s)")
        if not report.passed:
            failures += 1
            for c in report.checks:
                if not c.passed:
                    print(f"  failed: {c.name} = {c.statistic:.3e} "
                          f"(must be {c.comparator} {c.tolerance:.3e})")
    return 1 if failures else 0


def _read_events_csv(path):
    with open(path) as fh:
        reader = csv.reader(fh)
        header = [h.strip().lower() for h in next(reader)]
        rows = [row for row in reader if row and any(cell.strip() for cell in row)]
    cols = {name: i for i, name in enumerate(header)}
    required = ("t", "x1", "x2", "x3")
    for r in required:
        if r not in cols:
            raise SystemExit(f"input CSV must have columns t,x1,x2,x3 "
                             f"(optionally tau); got {header}")
    names = required + (("tau",) if "tau" in cols else ())
    table = []
    for ln, row in enumerate(rows, start=2):
        try:
            values = [float(row[cols[c]]) for c in names]
        except (ValueError, IndexError) as exc:
            raise SystemExit(f"line {ln}: cannot parse row {row!r}: {exc}")
        if not all(map(math.isfinite, values)):
            raise SystemExit(f"line {ln}: non-finite value in row {row!r}")
        table.append(values)
    table = np.asarray(table, dtype=float).reshape(-1, len(names))
    return (table[:, 4] if "tau" in cols else None), table[:, :4]


def cmd_transform(args) -> int:
    with open(args.map) as fh:
        m = map_from_dict(json.load(fh))
    taus, events = _read_events_csv(args.input)
    images, _, lams, residuals, singular = m.evaluate(events)
    # a form reports its denominator on every row, a chain its residual on
    # singular rows only
    lead = [] if taus is None else [taus]
    values = np.column_stack([*lead, events, images, lams, residuals])
    cells = np.array(list(map(repr, values.ravel().tolist())), dtype=object)
    cells = cells.reshape(values.shape)
    cells[singular, len(lead) + 4:-1] = ""
    if not isinstance(m, AcceleratedFrameForm):
        cells[~singular, -1] = ""
    status = np.where(singular, "singular", "ok").astype(object)[:, None]
    header = (["tau"] if lead else []) + \
        ["t", "x1", "x2", "x3", "tbar", "x1bar", "x2bar", "x3bar",
         "lambda", "singular_residual", "status"]
    out = sys.stdout if args.out is None else open(args.out, "w", newline="")
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows(np.hstack([cells, status]).tolist())
    if args.out is not None:
        out.close()
    return 0


def cmd_abraham(args) -> int:
    taus, events = _read_events_csv(args.worldline)
    if taus is None:
        raise SystemExit("worldline CSV needs a tau column")
    step = args.step or 1e-3
    wl = SampledWorldline(taus, events)
    lo, hi = wl.tau_range
    margin = 2 * step + 5 * float(np.max(np.diff(taus)))
    interior = taus[(taus > lo + margin) & (taus < hi - margin)]
    norms = abraham_norms_on_grid(wl, interior, step=step)
    tol = args.tol or 1e-5
    cls = classify_motion(wl, interior, step=step, tol=tol)
    payload = {
        "classification": {"kind": cls.kind, "accel": cls.accel, "tol": cls.tol},
        "sup_abraham_norm": float(np.max(norms)),
        "mean_abraham_norm": float(np.mean(norms)),
        "step": step,
        "points": int(norms.size),
    }
    _write_json(payload, args.out)
    return 0


def cmd_corr(args) -> int:
    x = _parse_vector(args.x, 4)
    xp = _parse_vector(args.xp, 4)
    eps = args.epsilon or 1e-6
    try:
        c = corrmod.scalar_vacuum_correlation(x, xp, eps)
    except PoleError as exc:
        raise SystemExit(f"corr: {exc}")
    em = corrmod.em_potential_correlation(x, xp, eps)
    payload = {
        "epsilon": eps,
        "scalar_kernel": [c.real, c.imag],
        "em_potential": [[[v.real, v.imag] for v in row] for row in em.matrix],
        "hbar": em.hbar,
    }
    _write_json(payload, args.out)
    return 0


def cmd_ray2d(args) -> int:
    alpha = _parse_vector(args.alpha, 2)
    frame = lc2.accelerated_frame_maps_2d(alpha, args.beta)
    payload = {"frame": lc2.raymap_to_dict(frame)}
    if args.mirror:
        composite = lc2.mirror_scattering_map(frame)
        verdict = lc2.vacuum_verdict(composite)
        payload["mirror"] = {
            "map": lc2.raymap_to_dict(composite),
            "verdict": verdict.verdict,
            "evidence": verdict.evidence,
        }
    _write_json(payload, args.out)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="confvac",
        description="Conformal accelerated frames and vacuum correlation checks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("suite", help="run named verification suites")
    p.add_argument("names", nargs="+",
                   help=f"suite names or 'all'; known: {', '.join(SUITE_NAMES)}")
    _add_flags(p, *FLAGS)
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser("transform", help="map a CSV of events through a conformal map")
    p.add_argument("--map", required=True, help="map JSON file "
                   '({"alpha": [...], "beta": ...} or {"chain": [...]})')
    p.add_argument("--input", required=True,
                   help="CSV with columns t,x1,x2,x3 (optional tau)")
    _add_flags(p, "--out")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("abraham", help="Abraham-vector sweep of a sampled worldline")
    p.add_argument("--worldline", required=True,
                   help="CSV with columns tau,t,x1,x2,x3")
    _add_flags(p, "--step", "--tol", "--out")
    p.set_defaults(func=cmd_abraham)

    p = sub.add_parser("corr", help="two-point kernels at a pair of events")
    p.add_argument("--x", required=True, help="event 't,x1,x2,x3'")
    p.add_argument("--xp", required=True, help="second event 't,x1,x2,x3'")
    _add_flags(p, "--epsilon", "--out")
    p.set_defaults(func=cmd_corr)

    p = sub.add_parser("ray2d", help="2D light-cone maps and mirror verdicts")
    p.add_argument("--alpha", required=True, help="2-vector 'a0,a1'")
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--mirror", action="store_true",
                   help="also emit the mirror-scattering composite and verdict")
    _add_flags(p, "--out")
    p.set_defaults(func=cmd_ray2d)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
