#!/usr/bin/env python3
"""Benchmark of the confvac package.

    python3 bench/run.py --workload frames --seed 20250 --seconds 15 --trace 0

Workloads (see bench/README.md): ``frames``, ``worldlines``,
``correlators`` and ``transform``.  Each is a closed loop with one client
in one process, with BLAS/OpenMP pools pinned to one thread: passes run
back to back until ``--seconds`` have gone by, and at least two, so that
every pass after the first is a same-seed rerun.  Outputs are checked after
every pass, outside the timed region.

Times are reported in reference seconds (``SpeedProbe``): the raw time of a
region scaled by the host's speed while it ran, sampled by a fixed probe,
relative to that probe's speed on the reference host.  Raw times are
printed too.

``--trace 0`` reports the end-to-end metrics, untraced.  ``--trace 1`` runs
one untraced pass, then traced passes, and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit status is 0
only when every check passed.  ``--inject`` plants one error in the outputs
before they are checked, to show that the checks catch it.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:          # before numpy is imported, here or in a child
    os.environ[_var] = "1"

import time  # noqa: E402

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FRESH_SETUPS = 2      # plus the measuring process's own set-up
INJECTIONS = {"row": ("transform",), "check": ("frames", "worldlines", "correlators"),
              "rerun": ("frames", "worldlines", "correlators")}
UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "work_per_s": "1/s",
         "peak_rss_mb": "MB", "gate_margin_dec": "dec"}


def parse_args(argv=None):
    import workloads as wl
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--inject", choices=tuple(INJECTIONS),
                   help="plant one error in the outputs (row: transform; "
                        "check, rerun: suite workloads)")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.inject and args.workload not in INJECTIONS[args.inject]:
        p.error(f"--inject {args.inject} applies to {', '.join(INJECTIONS[args.inject])}")
    return args


def git_rev():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def env_stamp(pkg):
    import numpy
    import scipy
    return {
        "git_rev": git_rev(), "confvac": pkg.__version__,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "note": "CPU frequency and core pinning were not controlled",
    }


def fresh_setup(args):
    """Set-up time of one fresh process: import, inputs, warm-up."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"set-up process failed with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


class SpeedProbe:
    """The host's speed, sampled while the benchmark runs.

    On a shared host the same pass runs up to 1.8 times slower while
    neighbours load the core; that state flips within seconds and drifts
    over minutes, in CPU time as much as in wall time.  Every INTERVAL_S a
    timer signal runs a fixed probe of small numpy products (the kind of
    work the package does per event) and records its duration.  A region's
    raw time times the mean probe speed over the region, divided by the
    probe's speed on the reference host, is its time in reference seconds.
    The probes take about 0.5% of the time they sample.
    """

    INTERVAL_S = 0.05
    REFERENCE_S = 140e-6   # probe time on the reference host, a 2-vCPU 2.0 GHz Xeon VM

    def __init__(self):
        import numpy as np
        self._a, self._b = np.ones(4), np.arange(4.0)
        self.durations = []

    def _probe(self, signum, frame):
        a, b = self._a, self._b
        t0 = time.perf_counter()
        for _ in range(40):
            float((a * b).sum())
        self.durations.append(time.perf_counter() - t0)

    def start(self):
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self):
        return len(self.durations)

    def scale(self, begin, end=None):
        """Reference seconds per raw second over the probes in [begin, end)."""
        window = self.durations[begin:end] or self.durations
        return self.REFERENCE_S * statistics.fmean(1.0 / d for d in window)


def inject(kind, workload, outputs, stage):
    import workloads as wl
    if kind == "row" and stage == "before-check":
        wl.inject_row_error(workload)
    elif kind == "check" and stage == "before-check":
        wl.inject_failed_check(outputs)
    elif kind == "rerun" and stage == "after-check":
        wl.inject_rerun_mismatch(workload)


def checked_pass(workload, total, args, first, probe=None):
    """Run one timed pass and check it; (wall_s, cpu_s, scale, outcome) or
    None, where scale turns the raw times into reference seconds."""
    mark = probe.mark() if probe else 0
    c0, w0 = time.process_time(), time.perf_counter()
    try:
        outputs = workload.run_pass()
    except Exception:      # a pass that raises is a failed operation, reported
        traceback.print_exc()
        total.record(False, "a pass raised an exception")
        return None
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    scale = probe.scale(mark, probe.mark()) if probe else 1.0
    if args.inject and first:
        inject(args.inject, workload, outputs, "before-check")
    outcome = workload.check(outputs)
    if args.inject and first:
        inject(args.inject, workload, outputs, "after-check")
    total.attempted += outcome.attempted
    total.failed += outcome.failed
    total.messages.extend(outcome.messages[:5])
    return wall, cpu, scale, outcome


def measured_run(workload, args, setups, probe):
    import workloads as wl
    total = wl.Outcome()
    raw, walls, cpus, margins = [], [], [], []
    t0 = time.perf_counter()
    while len(walls) < 2 or time.perf_counter() - t0 < args.seconds:
        res = checked_pass(workload, total, args, first=not walls, probe=probe)
        if res is None:
            break
        wall, cpu, scale, outcome = res
        raw.append(wall)
        walls.append(wall * scale)
        cpus.append(cpu * scale)
        margins = margins or outcome.margins
    if not walls:
        return total, {}
    wall = statistics.median(walls)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "cpu_s": statistics.median(cpus),
        "work_per_s": workload.work / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "gate_margin_dec": min(margins),
    }
    notes = {
        "setup_s": f"median over {len(setups)} processes",
        "wall_s": f"median of {len(walls)} passes, range {min(walls):.3f}-{max(walls):.3f} s; "
                  f"raw median {statistics.median(raw):.3f} s, "
                  f"mean probe {statistics.fmean(probe.durations) * 1e6:.0f} us",
        "cpu_s": f"median of {len(cpus)} passes",
        "work_per_s": f"{workload.work} "
                      f"{'events' if args.workload == 'transform' else 'acceptance samples'}"
                      " per pass",
        "peak_rss_mb": "peak resident set of the workload process",
        "gate_margin_dec": f"min log10 margin over {len(margins)} residual checks",
    }
    for name, value in metrics.items():
        print(f"  {name:<16}{value:>14.6g} {UNITS[name]:<4} {notes[name]}")
    ratio = total.failed / max(total.attempted, 1)
    print(f"  {'fail_ratio':<16}{ratio:>14.6g} {'':<4} "
          f"{total.failed} of {total.attempted} operations failed")
    return total, {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}


def traced_run(workload, args, pkg):
    import tracer as tr
    import workloads as wl
    total = wl.Outcome()
    base = checked_pass(workload, total, args, first=True)
    per_pass = []
    t0 = time.perf_counter()
    while base is not None and (not per_pass or time.perf_counter() - t0 < args.seconds):
        t = tr.Tracer(pkg)
        with t.installed():
            try:
                outputs = workload.run_pass()
            except Exception:
                traceback.print_exc()
                total.record(False, "a traced pass raised an exception")
                break
        outcome = workload.check(outputs)
        total.attempted += outcome.attempted
        total.failed += outcome.failed
        total.messages.extend(outcome.messages[:5])
        m = t.metrics()
        m["trace.overhead_ratio"] = m["trace.wall_s"] / base[0]
        per_pass.append(m)
    if not per_pass:
        return total, {}
    print(f"  top spans of the last traced pass (caller -> layer.function), "
          f"untraced pass {base[0]:.3f} s:")
    for parent, layer, key, calls, span_s, self_s in t.top_spans():
        print(f"    {str(parent):>12} -> {layer}.{key:<40} {calls:>9} calls "
              f"{span_s:10.4f} s span {self_s:10.4f} s self")
    metrics = {}
    for name in per_pass[0]:
        value = statistics.median(p[name] for p in per_pass)
        unit = tr.unit(name)
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:<32}{value:>16.6g} {unit}")
    return total, metrics


def main(argv=None):
    args = parse_args(argv)
    import workloads as wl
    probe = SpeedProbe()
    probe.start()
    tmp_root = ROOT / ".bench_tmp"
    try:
        pkg = wl.load_confvac(ROOT)
        tmp_root.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=tmp_root) as tmp:
            workload = wl.make_workload(pkg, args.workload, args.seed, tmp)
            workload.setup()
            setups = [(time.perf_counter() - START) * probe.scale(0)]
            if args.setup_only:
                print(json.dumps({"setup_s": setups[0]}))
                return 0
            print(f"confvac benchmark: workload {args.workload}, seed {args.seed} "
                  f"(default {wl.DEFAULT_SEED}, check seed {wl.CHECK_SEED}), "
                  f"{args.seconds:g} s, {'traced' if args.trace else 'untraced'}, "
                  f"closed loop, one client")
            print("env " + json.dumps(env_stamp(pkg), sort_keys=True))
            if args.trace:
                probe.stop()
                total, metrics = traced_run(workload, args, pkg)
            else:
                setups += [fresh_setup(args) for _ in range(FRESH_SETUPS)]
                total, metrics = measured_run(workload, args, setups, probe)
    finally:
        probe.stop()
        try:
            tmp_root.rmdir()
        except OSError:
            pass
    for msg in total.messages[:10]:
        print(f"  FAILED: {msg}")
    correct = total.failed == 0 and total.attempted > 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": max(total.attempted, 1),
                      "failed": total.failed if total.attempted else 1,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
