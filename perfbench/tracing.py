"""Spans and counters recorded from outside the isodense modules.

Nothing under src/ is edited.  Public functions of each layer are
wrapped where the calling module looks them up (every module attribute
bound to the original function object is replaced), so a call from
cli into interval1d, or from interval1d into numerics, opens a span.
Hot internal helpers are wrapped the same way but only counted, since
a span per call would cost more than the call.

A span records name, start, end, parent and the benchmark operation it
belongs to.  Spans stay in memory; the caller writes them out once.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter

import isodense
from isodense import cli, density, evolver, interval1d, numerics, radial

MODULES = (isodense, cli, interval1d, radial, evolver, numerics, density)

# Public functions that open a span, by layer.
SPANNED = {
    "cli": (cli, ("main",)),
    "interval1d": (interval1d, ("perimeter1d", "mass1d", "solve_p2", "solve_p1",
                                "solve_p_lt_1", "solve_symmetric", "solve_general",
                                "brute_force_oracle", "reduce_intervals", "contour_grid",
                                "contour_curvatures")),
    "radial": (radial, ("symmetric_ball", "offcenter_p2_2d", "offcenter_p2_3d",
                        "solve_2d_p2", "solve_3d_p2", "generalized_curvature",
                        "circle_polar_profile", "offcenter_quadrature_2d",
                        "offcenter_quadrature_3d")),
    "evolver": (evolver, ("evolve_2d", "evolve_3d_axisym", "weighted_perimeter_2d",
                          "weighted_mass_2d", "perimeter_gradient_2d", "mass_gradient_2d",
                          "isoperimetric_quotient")),
    "numerics": (numerics, ("bisect", "golden_min", "grow_bracket")),
}

LAYERS = ("cli", "interval1d", "numerics", "radial", "evolver")
SOLVERS = ("solve_p2", "solve_p1", "solve_p_lt_1", "solve_symmetric", "solve_general",
           "brute_force_oracle")


class Tracer:
    """In-memory span and counter store for one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.outer: list[bool] = []  # no enclosing span of the same layer
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self.op = -1
        self.counts: Counter = Counter()
        self.seconds: Counter = Counter()
        self._ls_kind = None  # "2d" or "3d" while a line search runs

    # -- spans -----------------------------------------------------------
    def open(self, name: str) -> int:
        layer = name.split(".", 1)[0]
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self.outer.append(self._depth[layer] == 0)
        self.ends.append(0.0)
        self._depth[layer] += 1
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        self._stack.pop()
        self._depth[self.names[i].split(".", 1)[0]] -= 1

    def spanned(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)
        return wrapper

    # -- counters --------------------------------------------------------
    def counted(self, key: str, fn, timed: bool = False):
        counts, seconds, clock = self.counts, self.seconds, time.perf_counter
        if timed:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[key] += 1
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    seconds[key] += clock() - t0
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
        return wrapper

    # -- summary ---------------------------------------------------------
    def self_times(self) -> list[float]:
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * len(dur)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += dur[i]
        return [d - c for d, c in zip(dur, child)]

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": [list(r) for r in zip(self.names, self.starts, self.ends,
                                                      self.parents, self.ops)],
                       "counts": dict(self.counts)}, fh)


class Instrumentation:
    """Installs a tracer's wrappers into the isodense modules and removes them."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        wrappers = {}  # id(original) -> wrapper
        for layer, (module, names) in SPANNED.items():
            for name in names:
                fn = getattr(module, name)
                wrappers[id(fn)] = self._span_wrapper(layer, name, fn)
        for fn, wrapper in self._counted_helpers():
            wrappers[id(fn)] = wrapper
        self._patches = []
        for module in MODULES:
            for attr, value in vars(module).items():
                if id(value) in wrappers and callable(value):
                    self._patches.append((module, attr, value, wrappers[id(value)]))
        prim = density.Density.primitive
        self._patches.append((density.Density, "primitive", prim,
                              tracer.counted("density.primitive", prim)))

    def _span_wrapper(self, layer, name, fn):
        tracer = self.tracer
        wrapped = tracer.spanned(f"{layer}.{name}", fn)
        if name == "contour_grid":
            def with_points(*args, **kwargs):
                grid = wrapped(*args, **kwargs)
                tracer.counts["interval1d.grid_points"] += grid.mass.size
                return grid
            return functools.wraps(fn)(with_points)
        return wrapped

    def _counted_helpers(self):
        """(original, wrapper) pairs for the hot internal helpers."""
        t = self.tracer
        ev = evolver
        pairs = [(fn, t.counted("evolver.mass_grad", fn, timed=True))
                 for fn in (ev._mass_grad, ev._rev_mass_grad)]
        pairs += [(fn, t.counted("evolver.perimeter_grad", fn))
                  for fn in (ev._perimeter_grad, ev._rev_area_grad)]
        pairs += [(fn, t.counted("evolver.resample", fn))
                  for fn in (ev._resample_closed, ev._resample_profile)]
        pairs += [(fn, self._linesearch(fn, kind))
                  for fn, kind in ((ev._try_direction, "2d"), (ev._try_direction_rev, "3d"))]
        pairs += [(fn, self._projection(fn)) for fn in (ev._project_mass, ev._project_mass_rev)]
        pairs.append((ev._star_ok, self._validity(ev._star_ok, "2d", "evolver.star_check")))
        pairs.append((ev._profile_ok, self._validity(ev._profile_ok, "3d", None)))
        grid = interval1d._invert_primitive_grid

        @functools.wraps(grid)
        def grid_inverse(dens, m, *args, **kwargs):
            t.counts["interval1d.grid_points"] += m.size
            return grid(dens, m, *args, **kwargs)
        pairs.append((grid, grid_inverse))
        return pairs

    def _linesearch(self, fn, kind):
        t = self.tracer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t.counts["evolver.linesearch"] += 1
            outer, t._ls_kind = t._ls_kind, kind
            try:
                result = fn(*args, **kwargs)
            finally:
                t._ls_kind = outer
            t.counts["evolver.linesearch_accepted"] += bool(result[2])
            return result
        return wrapper

    def _projection(self, fn):
        t = self.tracer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t.counts["evolver.projection"] += 1
            result = fn(*args, **kwargs)
            if t._ls_kind is not None:
                t.counts["evolver.ls_projection_ok"] += 1
            return result
        return wrapper

    def _validity(self, fn, kind, key):
        """Count validity tests; those a line search of the same kind makes mark trials.

        `_profile_ok` (3D) calls `_star_ok` (2D kind), so the kinds keep a
        3D search from counting the nested test twice.
        """
        t = self.tracer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if key is not None:
                t.counts[key] += 1
            if t._ls_kind == kind:
                t.counts["evolver.ls_validity"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, pass_span: int) -> dict[str, float]:
    """Per-layer figures for one traced pass, keyed by metric name."""
    selfs = tracer.self_times()
    busy = Counter()
    self_s = Counter()
    calls = Counter()
    by_name = Counter()
    for i, name in enumerate(tracer.names):
        layer = name.split(".", 1)[0]
        self_s[layer] += selfs[i]
        by_name[name] += 1
        if tracer.outer[i]:
            busy[layer] += tracer.ends[i] - tracer.starts[i]
            calls[layer] += 1
    c = tracer.counts
    wall = tracer.ends[pass_span] - tracer.starts[pass_span]
    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.busy_s"] = busy[layer]
        m[f"{layer}.self_s"] = self_s[layer]
    for layer in ("cli", "interval1d", "radial"):
        m[f"{layer}.calls"] = calls[layer]
    m["interval1d.grid_points"] = c["interval1d.grid_points"]
    m["numerics.bisect_calls"] = by_name["numerics.bisect"]
    m["numerics.golden_calls"] = by_name["numerics.golden_min"]
    m["numerics.grow_bracket_calls"] = by_name["numerics.grow_bracket"]
    solves = sum(by_name[f"interval1d.{s}"] for s in SOLVERS)
    m["density.primitive_calls"] = c["density.primitive"]
    m["density.primitive_per_solve"] = c["density.primitive"] / solves if solves else 0.0
    runs = by_name["evolver.evolve_2d"] + by_name["evolver.evolve_3d_axisym"]
    m["evolver.runs"] = runs
    m["evolver.mass_grad_calls"] = c["evolver.mass_grad"]
    m["evolver.mass_grad_s"] = tracer.seconds["evolver.mass_grad"]
    m["evolver.perimeter_grad_calls"] = c["evolver.perimeter_grad"]
    m["evolver.projections"] = c["evolver.projection"]
    ls = c["evolver.linesearch"]
    m["evolver.linesearches"] = ls
    # each trial makes one validity test before projecting, and one more
    # after every projection that succeeds
    trials = c["evolver.ls_validity"] - c["evolver.ls_projection_ok"]
    m["evolver.trials_per_linesearch"] = trials / ls if ls else 0.0
    m["evolver.linesearch_accept_ratio"] = c["evolver.linesearch_accepted"] / ls if ls else 0.0
    m["evolver.star_checks"] = c["evolver.star_check"]
    m["evolver.resamples"] = c["evolver.resample"]
    m["bench.self_s"] = self_s["bench"]
    m["trace.wall_s"] = wall
    m["trace.self_sum_s"] = sum(self_s.values())
    return m
