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
from .conformal import map_from_dict
from .errors import ConstraintViolationError, PoleError
from .kinematics import abraham_vector, classify_motion
from .minkowski import SampledWorldline
from .suites import SUITE_NAMES, SuiteConfig, run_suite


def _parse_vector(command, name, text, n):
    """The n finite components of a flag's comma- or space-separated value."""
    try:
        parts = [float(p) for p in text.replace(",", " ").split()]
    except ValueError:
        parts = []
    if len(parts) != n or not all(map(math.isfinite, parts)):
        raise SystemExit(f"{command}: {name} must be {n} finite numbers, got {text!r}")
    return np.asarray(parts)


FLAGS = {
    "--seed": dict(type=int, help="random seed"),
    "--samples": dict(type=int, help="sample count"),
    "--tol": dict(type=float, help="main tolerance"),
    "--epsilon": dict(type=float, help="two-point regulator"),
    "--step": dict(type=float, help="proper-time finite-difference step"),
    "--h": dict(type=float, help="coordinate finite-difference step"),
    "--out": dict(help="output file path"),
    "--format": dict(dest="fmt", choices=("json", "csv"), help="report format (default json)"),
    "--config": dict(help="JSON config file; explicit flags take precedence"),
}


def _add_flags(parser, *names):
    """Declare the shared flags that the subcommand's handler reads."""
    for name in names:
        parser.add_argument(name, **FLAGS[name])


CONFIG_KEYS = ("seed", "samples", "tol", "epsilon", "step", "h", "out", "fmt")


def _merge_config(args):
    merged = {}
    if args.config:
        with open(args.config) as fh:
            merged.update(json.load(fh))
    unknown = sorted(set(merged) - set(CONFIG_KEYS))
    if unknown:
        raise SystemExit(f"suite: unknown config keys {', '.join(unknown)}; "
                         f"known: {', '.join(CONFIG_KEYS)}")
    for key in CONFIG_KEYS:
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
        try:
            cfg = SuiteConfig(
                suite=name, seed=merged.get("seed", SuiteConfig.seed),
                **{key: merged.get(key) for key in ("samples", "epsilon", "h", "step", "tol")},
                out=(merged.get("out") if len(names) == 1 else
                     (f"{merged['out']}.{name}.{merged.get('fmt', 'json')}"
                      if merged.get("out") else None)),
                fmt=merged.get("fmt", "json"),
            )
        except ValueError as exc:
            raise SystemExit(f"suite: {exc}")
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


def _first_bad_row(rows, lines, idx):
    """The message for the first row, in file order, whose columns idx do not
    parse to finite values; None if every row does."""
    for row, ln in zip(rows, lines):
        try:
            values = [float(row[i]) for i in idx]
        except (ValueError, IndexError) as exc:
            return f"line {ln}: cannot parse row {row!r}: {exc}"
        if not all(map(math.isfinite, values)):
            return f"line {ln}: non-finite value in row {row!r}"
    return None


def _read_events_csv(path):
    """(taus or None, events) of a CSV with columns t,x1,x2,x3 and optionally tau,
    in any order; blank rows are skipped, and an error names the file's line."""
    with open(path) as fh:
        reader = csv.reader(fh)
        header = [h.strip().lower() for h in next(reader, [])]
        rows, lines = [], []
        for row in reader:
            if any(map(str.strip, row)):
                rows.append(row)
                lines.append(reader.line_num)
    cols = {name: i for i, name in enumerate(header)}
    required = ("t", "x1", "x2", "x3")
    if not set(required) <= cols.keys():
        raise SystemExit(f"input CSV must have columns t,x1,x2,x3 "
                         f"(optionally tau); got {header}")
    names = required + (("tau",) if "tau" in cols else ())
    idx = [cols[c] for c in names]
    try:
        table = np.array([float(row[i]) for row in rows for i in idx]).reshape(-1, len(idx))
    except (ValueError, IndexError):
        table = None
    if table is None or not np.isfinite(table).all():
        raise SystemExit(_first_bad_row(rows, lines, idx))
    return (table[:, 4] if "tau" in cols else None), table[:, :4]


def cmd_transform(args) -> int:
    with open(args.map) as fh:
        spec = json.load(fh)
    try:
        m = map_from_dict(spec)
    except ValueError as exc:
        raise SystemExit(f"transform: {args.map}: {exc}")
    taus, events = _read_events_csv(args.input)
    images, _, lams, den, singular = m.evaluate(events)
    lead = [] if taus is None else [taus]
    values = np.column_stack([*lead, events, images, lams, den])
    header = (["tau"] if lead else []) + \
        ["t", "x1", "x2", "x3", "tbar", "x1bar", "x2bar", "x3bar",
         "lambda", "singular_residual", "status"]
    # the rows csv.writer makes of repr cells: no float's repr needs quoting; a
    # singular row keeps its source and Y^+ and blanks its image and lambda
    k = len(lead) + 4
    out = sys.stdout if args.out is None else open(args.out, "w", newline="")
    out.write(",".join(header) + "\r\n")
    out.writelines(",".join(map(repr, row[:k])) + ",,,,,," + repr(row[-1]) + ",singular\r\n"
                   if bad else ",".join(map(repr, row)) + ",ok\r\n"
                   for row, bad in zip(values.tolist(), singular.tolist()))
    if args.out is not None:
        out.close()
    return 0


def _positive(command, name, value, default):
    """A flag's value, or its default when it was not given; positive and finite."""
    value = default if value is None else value
    if not 0 < value < math.inf:
        raise SystemExit(f"{command}: {name} must be positive and finite, got {value}")
    return value


def cmd_abraham(args) -> int:
    taus, events = _read_events_csv(args.worldline)
    if taus is None:
        raise SystemExit("worldline CSV needs a tau column")
    step = _positive("abraham", "step", args.step, 1e-3)
    tol = _positive("abraham", "tol", args.tol, 1e-5)
    try:
        wl = SampledWorldline(taus, events)
    except ValueError as exc:
        raise SystemExit(f"abraham: {exc}")
    # each stencil, and the six samples of each quintic it meets, inside the samples
    lo, hi = wl.tau_range
    margin = 2 * step + 5 * float(np.max(np.diff(taus), initial=0.0))
    interior = taus[(taus > lo + margin) & (taus < hi - margin)]
    if not interior.size:
        raise SystemExit(f"abraham: no sample lies {margin:g} inside the sampled range "
                         f"[{lo}, {hi}]; need more samples or a smaller step")
    state = wl.state(interior, step=step)
    norms = abraham_vector(state).residual_norm
    cls = classify_motion(state, tol=tol)
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
    x = _parse_vector("corr", "x", args.x, 4)
    xp = _parse_vector("corr", "xp", args.xp, 4)
    eps = _positive("corr", "epsilon", args.epsilon, 1e-6)
    try:
        c = corrmod.scalar_vacuum_correlation(x, xp, eps)
    except PoleError as exc:
        raise SystemExit(f"corr: {exc}")
    em = corrmod.em_potential_correlation(x, xp, eps)
    payload = {
        "epsilon": eps,
        "scalar_kernel": [c.real, c.imag],
        "em_potential": [[[v.real, v.imag] for v in row] for row in em],
        "hbar": 1.0,
    }
    _write_json(payload, args.out)
    return 0


def cmd_ray2d(args) -> int:
    alpha = _parse_vector("ray2d", "alpha", args.alpha, 2)
    if args.beta == math.inf:
        raise SystemExit(f"ray2d: beta must be finite, got {args.beta}")
    try:
        frame = lc2.accelerated_frame_maps_2d(alpha, args.beta)
    except ConstraintViolationError as exc:
        raise SystemExit(f"ray2d: {exc}")
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
    try:
        return args.func(args)
    except OSError as exc:
        raise SystemExit(f"{args.command}: {exc.filename}: {exc.strerror}"
                         if exc.filename else f"{args.command}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
