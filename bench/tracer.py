"""Outside-in per-layer tracing of the confvac package.

The layers are the package modules.  ``Tracer.installed()`` wraps, for the
duration of a ``with`` block, every public function of each layer module
and every public method of the classes they define (plus constructors and
``__call__``), and rebinds each alias of a wrapped function in every
module of the package (``from .minkowski import minkowski_dot`` leaves one
binding per importing module).  Nothing under ``src/`` changes; leaving the
block restores every original binding.

A span opens when control crosses from one layer into another.  Calls
inside a layer are part of that layer's span and cost one comparison.
Spans are not stored one by one: each is folded, when it closes, into
counters keyed by (calling layer, layer, function), so memory stays
bounded however hot a leaf is.  A layer's self time is its span time
minus the time covered by its child spans.

A few functions carry extra counters (``Tracer.hooks``); they are timed on
every call, inside their layer too.  A hooked function that no longer
exists is reported on standard error, and its counters read 0.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("minkowski", "conformal", "kinematics", "correlations", "lightcone2d",
          "numdiff", "suites", "cli")
ROOT = "bench"
SAMPLERS = ("random_event", "random_event_off_singular", "random_same_side_pair")


def unit(metric):
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("events_per_call"):
        return "events/call"
    return "count"


def _events(args, kwargs):
    """Events passed to a call: float arrays with a trailing axis of 4."""
    n = 0
    for a in (*args, *kwargs.values()):
        if type(a) is np.ndarray and a.ndim in (1, 2) and a.shape[-1] == 4:
            n += a.size // 4
    return n


def _events_in(result):
    if isinstance(result, tuple):
        return sum(_events_in(r) for r in result)
    return int(type(result) is np.ndarray and result.shape == (4,))


class Tracer:
    def __init__(self, pkg):
        self.pkg = pkg
        self.modules = {layer: importlib.import_module(f"{pkg.__name__}.{layer}")
                        for layer in LAYERS}
        self.singular = importlib.import_module(pkg.__name__ + ".errors").SingularPointError
        self.spans = {}           # (parent layer, layer, function) -> [calls, total_s, self_s]
        self.counters = Counter()
        self.stack = []           # open spans: [layer, child_s, t0]
        self.wall_s = 0.0
        self._undo = []
        self._hooked = set()
        self._sampler_depth = 0
        self._pushforward_marks = []
        self.hooks = {
            ("correlations", "scalar_vacuum_correlation"): self._count("correlations.kernel_evals"),
            ("correlations", "_fd_field_tensor"): self._time("correlations.fd_tensor_s"),
            ("minkowski", "SampledWorldline.__init__"): self._time(
                "minkowski.spline_s", "minkowski.spline_builds"),
            ("kinematics", "pushforward_worldline"): self._pushforward,
            ("suites", "_conditioned_pushforward_sample"): self._pushforward_sample,
            ("cli", "_read_events_csv"): self._rows,
            ("suites", "random_event"): self._event_draw,
            **{("suites", name): self._sampler for name in SAMPLERS[1:]},
        }

    # -- hooks: called as hook(args, kwargs) -> exit(result, ok, elapsed) --

    def _count(self, name):
        def hook(args, kwargs):
            self.counters[name] += 1
        return hook

    def _time(self, name, count=None):
        def hook(args, kwargs):
            if count:
                self.counters[count] += 1

            def done(result, ok, elapsed):
                self.counters[name] += elapsed
            return done
        return hook

    def _pushforward(self, args, kwargs):
        grid = kwargs["grid"] if "grid" in kwargs else args[2]
        self.counters["kinematics.grid_points"] += len(grid)
        self.counters["kinematics.pushforwards"] += 1

        def done(result, ok, elapsed):
            self.counters["kinematics.pushforward_s"] += elapsed
        return done

    def _pushforward_sample(self, args, kwargs):
        self._pushforward_marks.append(self.counters["kinematics.pushforwards"])

        def done(result, ok, elapsed):
            made = self.counters["kinematics.pushforwards"] - self._pushforward_marks.pop()
            self.counters["suites.pushforwards_discarded"] += made - 1 if ok else made
        return done

    def _event_draw(self, args, kwargs):
        self.counters["suites.draws"] += 1
        return self._sampler(args, kwargs)

    def _sampler(self, args, kwargs):
        self._sampler_depth += 1

        def done(result, ok, elapsed):
            self._sampler_depth -= 1
            if ok and self._sampler_depth == 0:
                self.counters["suites.draws_accepted"] += _events_in(result)
        return done

    def _rows(self, args, kwargs):
        def done(result, ok, elapsed):
            if ok:
                self.counters["cli.rows"] += len(result[1])
        return done

    # -- wrapping --

    def _wrap(self, fn, layer, key):
        stack = self.stack
        spans = self.spans
        by_parent = {}
        clock = time.perf_counter
        counters = self.counters
        singular = self.singular
        hook = self.hooks.get((layer, key))
        if hook is not None:
            self._hooked.add((layer, key))
        count_events = layer == "conformal" and not key.endswith("__init__")

        def traced(*args, **kwargs):
            parent = stack[-1]
            if parent[0] == layer and hook is None:
                return fn(*args, **kwargs)
            boundary = parent[0] != layer
            frame = [layer, 0.0, clock()]
            if boundary:
                stack.append(frame)
                if count_events:
                    counters["conformal.events"] += _events(args, kwargs)
            done = hook(args, kwargs) if hook is not None else None
            ok = False
            result = None
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            except singular:
                if boundary:
                    counters[layer + ".singular_raised"] += 1
                raise
            finally:
                elapsed = clock() - frame[2]
                if boundary:
                    stack.pop()
                    parent[1] += elapsed
                    agg = by_parent.get(parent[0])
                    if agg is None:
                        agg = by_parent[parent[0]] = spans.setdefault(
                            (parent[0], layer, key), [0, 0.0, 0.0])
                    agg[0] += 1
                    agg[1] += elapsed
                    agg[2] += elapsed - frame[1]
                if done is not None:
                    done(result, ok, elapsed)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", key)
        traced.__qualname__ = getattr(fn, "__qualname__", key)
        traced.__doc__ = fn.__doc__
        return traced

    def _set(self, target, name, value):
        self._undo.append((target, name, vars(target)[name]))
        setattr(target, name, value)

    def _wrap_class(self, cls, layer):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in ("__init__", "__call__"):
                continue
            key = f"{cls.__name__}.{name}"
            if isinstance(attr, (staticmethod, classmethod)):
                new = type(attr)(self._wrap(attr.__func__, layer, key))
            elif isinstance(attr, property):
                new = property(self._wrap(attr.fget, layer, key), attr.fset,
                               attr.fdel, attr.__doc__)
            elif inspect.isfunction(attr):
                new = self._wrap(attr, layer, key)
            else:
                continue
            self._set(cls, name, new)

    def install(self):
        wrapped = {}
        for layer, mod in self.modules.items():
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    if not name.startswith("_") or (layer, name) in self.hooks:
                        wrapped[id(obj)] = (obj, self._wrap(obj, layer, name))
                elif inspect.isclass(obj) and not issubclass(obj, (BaseException, tuple)):
                    self._wrap_class(obj, layer)
        prefix = self.pkg.__name__ + "."
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != self.pkg.__name__ and not mod_name.startswith(prefix):
                continue
            for name, obj in list(vars(mod).items()):
                entry = wrapped.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._set(mod, name, entry[1])
        for layer, key in sorted(set(self.hooks) - self._hooked):
            print(f"tracer: {layer}.{key} not found; its counters stay at 0", file=sys.stderr)

    def uninstall(self):
        while self._undo:
            target, name, original = self._undo.pop()
            setattr(target, name, original)

    @contextlib.contextmanager
    def installed(self):
        """Trace the block: wrappers in, one root span open, wrappers out."""
        self.install()
        root = [ROOT, 0.0, time.perf_counter()]
        self.stack.append(root)
        try:
            yield self
        finally:
            elapsed = time.perf_counter() - root[2]
            self.stack.pop()
            self.uninstall()
            self.wall_s += elapsed
            agg = self.spans.setdefault((None, ROOT, ROOT), [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += elapsed
            agg[2] += elapsed - root[1]

    # -- results --

    def layer_totals(self):
        """layer -> [boundary calls, self_s]."""
        out = defaultdict(lambda: [0, 0.0])
        for (_, layer, _), (calls, _, self_s) in self.spans.items():
            out[layer][0] += calls
            out[layer][1] += self_s
        return out

    def metrics(self):
        c = self.counters
        tot = self.layer_totals()
        m = {}
        for layer in LAYERS:
            m[f"{layer}.calls"] = tot[layer][0]
            m[f"{layer}.self_s"] = tot[layer][1]
        calls = tot["conformal"][0]
        m.update({
            "minkowski.spline_builds": c["minkowski.spline_builds"],
            "minkowski.spline_s": c["minkowski.spline_s"],
            "conformal.events": c["conformal.events"],
            "conformal.events_per_call": c["conformal.events"] / calls if calls else 0.0,
            "conformal.singular_raised": c["conformal.singular_raised"],
            "kinematics.grid_points": c["kinematics.grid_points"],
            "kinematics.pushforward_s": c["kinematics.pushforward_s"],
            "correlations.kernel_evals": c["correlations.kernel_evals"],
            "correlations.fd_tensor_s": c["correlations.fd_tensor_s"],
            "suites.draws": c["suites.draws"],
            "suites.draws_accepted": c["suites.draws_accepted"],
            "suites.accept_ratio": (c["suites.draws_accepted"] / c["suites.draws"]
                                    if c["suites.draws"] else 0.0),
            "suites.pushforwards_discarded": c["suites.pushforwards_discarded"],
            "cli.rows": c["cli.rows"],
            "trace.wall_s": self.wall_s,
        })
        return m

    def top_spans(self, n=15):
        """The n (caller, layer, function) entries with the most self time."""
        rows = sorted(self.spans.items(), key=lambda kv: -kv[1][2])[:n]
        return [(p, layer, key, calls, total, self_s)
                for (p, layer, key), (calls, total, self_s) in rows]
