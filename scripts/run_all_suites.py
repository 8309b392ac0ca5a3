#!/usr/bin/env python3
"""Run every verification suite at full sample counts and write JSON reports.

Usage: python scripts/run_all_suites.py [--seed N] [--outdir reports/]

Standard output gives each suite's verdict, the sha256 of its report
(``to_json(include_wall_time=False)``, the bytes fixed by config and seed)
and its checks; wall times go to standard error.  Comparing the reports of
two versions is then a ``diff`` of their standard outputs.
"""

import argparse
import hashlib
import pathlib
import sys

from confvac.suites import SUITE_NAMES, SuiteConfig, run_suite


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=20250)
    ap.add_argument("--outdir", default=None)
    args = ap.parse_args()

    outdir = pathlib.Path(args.outdir) if args.outdir else None
    if outdir:
        outdir.mkdir(parents=True, exist_ok=True)

    failures = 0
    for name in SUITE_NAMES:
        cfg = SuiteConfig(
            suite=name, seed=args.seed,
            out=str(outdir / f"{name}.json") if outdir else None)
        report = run_suite(cfg)
        mark = "PASS" if report.passed else "FAIL"
        digest = hashlib.sha256(report.to_json(include_wall_time=False).encode()).hexdigest()
        print(f"{name:20s} {mark}  sha256 {digest}")
        print(f"{name:20s} {report.wall_time_s:6.2f}s", file=sys.stderr)
        for c in report.checks:
            print(f"    {c.name:38s} {c.statistic:.3e} {c.comparator} "
                  f"{c.tolerance:.1e}")
        failures += 0 if report.passed else 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
