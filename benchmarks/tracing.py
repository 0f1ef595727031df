"""Per-layer timing of lobexec from outside the package.

The tracer replaces, for the life of one traced run, the module
attributes through which lobexec's layers call each other (for example
``lobexec.solver.validate_model1`` or ``lobexec.costs.replay``) and the
shape primitives on the shape classes, with wrappers that time each call.
Nothing under ``src`` changes, and an untraced run installs nothing.

Coarse calls (solve, validate, root, certificate, descent, lattice, and
the benchmark operation around them) become spans: name, start, end,
parent span and operation id, kept in memory and written out at the end.
Fine-grained calls (replay, gradient, impact cost, and the shape
primitives, which are traced in a phase of their own) are made thousands
of times per operation, so they are aggregated instead: calls, inclusive
time and self time per name. A call's self time is its duration minus
the time of the traced calls made inside it.
"""

from __future__ import annotations

import csv
import functools
import math
import statistics
from time import perf_counter

from lobexec import costs, oracle, shapes, solver

PRIMITIVES = ("density", "volume", "offset", "premium", "premium_by_volume", "density_slope")
FAMILIES = ("block", "power", "sqrt", "tabulated")


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index, op id]
        self._open = []      # indices of the spans not yet closed
        self._frames = []    # time spent in traced children, per open call
        self.stats = {}      # name -> [calls, inclusive s, self s]
        self.op = -1
        self.root_evals = 0
        self.roots = 0
        self.fallbacks = 0
        self.referee_evals = {}    # name -> [(cost evals, gradient evals) per call]
        self._undo = []

    # -- wrappers ----------------------------------------------------------

    def _call(self, name, fn, args, kw, span):
        frames = self._frames
        frames.append(0.0)
        if span:
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._open[-1] if self._open else -1, self.op])
            self._open.append(idx)
        t0 = perf_counter()
        try:
            return fn(*args, **kw)
        finally:
            t1 = perf_counter()
            dt = t1 - t0
            child = frames.pop()
            if frames:
                frames[-1] += dt
            st = self.stats.get(name)
            if st is None:
                st = self.stats[name] = [0, 0.0, 0.0]
            st[0] += 1
            st[1] += dt
            st[2] += dt - child
            if span:
                self._open.pop()
                rec = self.spans[idx]
                rec[1], rec[2] = t0, t1

    def _timed(self, name, fn, span=False):
        @functools.wraps(fn)
        def wrapper(*args, **kw):
            return self._call(name, fn, args, kw, span)
        return wrapper

    def _primitive(self, fn):
        @functools.wraps(fn)
        def wrapper(shape, *args, **kw):
            return self._call("primitive." + shape.name, fn, (shape,) + args, kw, False)
        return wrapper

    def _root(self, fn):
        @functools.wraps(fn)
        def wrapper(gap, lo, hi, *args, **kw):
            values = []

            def counted(y):
                v = gap(y)
                values.append(v)
                return v

            try:
                return self._call("numerics.root", fn, (counted, lo, hi) + args, kw, True)
            finally:
                self.roots += 1
                self.root_evals += len(values)
                # bracketed_root goes straight to Brent only when the two
                # end values are finite and of opposite sign (or one is 0)
                if len(values) >= 2:
                    flo, fhi = values[0], values[1]
                    direct = flo == 0.0 or fhi == 0.0 or (
                        math.isfinite(flo) and math.isfinite(fhi) and flo * fhi < 0.0
                    )
                    self.fallbacks += not direct
        return wrapper

    def _referee(self, name, fn):
        evals = self.referee_evals.setdefault(name, [])

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            before = (self._calls("costs.impact_cost"), self._calls("costs.analytic_gradient"))
            try:
                return self._call(name, fn, args, kw, True)
            finally:
                evals.append((self._calls("costs.impact_cost") - before[0],
                              self._calls("costs.analytic_gradient") - before[1]))
        return wrapper

    def _calls(self, name):
        st = self.stats.get(name)
        return st[0] if st else 0

    # -- install / remove -----------------------------------------------------

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, primitives=False):
        """Wrap the layers, or with primitives=True the shape primitives only.

        A run traces the two apart: the primitives are called thousands of
        times per operation, and timing each call would swamp the times
        of the layers that make the calls.
        """
        p = self._patch
        if primitives:
            for cls in (shapes.Shape, shapes.TabulatedShape):
                for name in PRIMITIVES:
                    if name in cls.__dict__:
                        p(cls, name, self._primitive(cls.__dict__[name]))
            return self
        p(solver, "solve", self._timed("solver.solve", solver.solve, span=True))
        for name in ("validate_model1", "validate_model2"):
            p(solver, name, self._timed("shapes.validate", getattr(solver, name), span=True))
        p(solver, "bracketed_root", self._root(solver.bracketed_root))
        p(solver, "lagrange_residual",
          self._timed("costs.certificate", solver.lagrange_residual, span=True))
        gradient = self._timed("costs.analytic_gradient", costs.analytic_gradient)
        impact = self._timed("costs.impact_cost", costs.impact_cost)
        for module in (costs, oracle):
            p(module, "analytic_gradient", gradient)
            p(module, "impact_cost", impact)
        p(costs, "replay", self._timed("dynamics.replay", costs.replay))
        p(oracle, "minimize_cost", self._referee("oracle.descent", oracle.minimize_cost))
        p(oracle, "grid_search", self._referee("oracle.lattice", oracle.grid_search))
        return self

    def remove(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- operations -------------------------------------------------------------

    def op_call(self, op_id, fn, *args):
        """Run one benchmark operation as the root span of its own id."""
        self.op = op_id
        return self._call("op", fn, args, {}, True)

    # -- results ----------------------------------------------------------------

    def _durations(self, name):
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def _median_ms(self, name):
        d = self._durations(name)
        return 1e3 * statistics.median(d) if d else 0.0

    def _mean(self, name, column, scale):
        st = self.stats.get(name)
        return scale * st[column] / st[0] if st and st[0] else 0.0

    def solver_self_ms(self):
        """Median over solves of solve minus its validate, root and certificate."""
        covered = {}
        for s in self.spans:
            if s[0] in ("shapes.validate", "numerics.root", "costs.certificate") and s[3] >= 0:
                covered[s[3]] = covered.get(s[3], 0.0) + (s[2] - s[1])
        own = [s[2] - s[1] - covered.get(i, 0.0)
               for i, s in enumerate(self.spans) if s[0] == "solver.solve"]
        return 1e3 * statistics.median(own) if own else 0.0

    def _mean_evals(self, name, column):
        evals = self.referee_evals.get(name)
        return sum(e[column] for e in evals) / len(evals) if evals else 0.0

    def metrics(self, attempted: int, passes: int) -> dict:
        """Layer metrics of a run traced with install()."""
        return {
            "shapes.validate_ms": (self._median_ms("shapes.validate"), "ms"),
            "numerics.root_ms": (self._median_ms("numerics.root"), "ms"),
            "numerics.root_evals": (self.root_evals / self.roots if self.roots else 0.0, "count"),
            "numerics.fallback_scans": (self.fallbacks / passes, "count"),
            "costs.certificate_ms": (self._median_ms("costs.certificate"), "ms"),
            "dynamics.replay_ms": (self._mean("dynamics.replay", 1, 1e3), "ms"),
            "costs.gradient_self_ms": (self._mean("costs.analytic_gradient", 2, 1e3), "ms"),
            "costs.impact_cost_calls": (self._calls("costs.impact_cost") / attempted, "count"),
            "costs.impact_cost_us": (self._mean("costs.impact_cost", 1, 1e6), "us"),
            "oracle.descent_ms": (self._median_ms("oracle.descent"), "ms"),
            "oracle.descent_cost_evals": (self._mean_evals("oracle.descent", 0), "count"),
            "oracle.descent_gradient_evals": (self._mean_evals("oracle.descent", 1), "count"),
            "oracle.lattice_ms": (self._median_ms("oracle.lattice"), "ms"),
            "oracle.lattice_points": (self._mean_evals("oracle.lattice", 0), "count"),
            "solver.self_ms": (self.solver_self_ms(), "ms"),
        }

    def primitive_metrics(self, attempted: int) -> dict:
        """Primitive metrics of a run traced with install(primitives=True)."""
        calls = sum(self._calls("primitive." + f) for f in FAMILIES)
        m = {"shapes.primitive_calls": (calls / attempted, "count")}
        for f in FAMILIES:
            m["shapes.primitive_us." + f] = (self._mean("primitive." + f, 2, 1e6), "us")
        return m

    def write_spans(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["index", "name", "start_s", "end_s", "parent", "op"])
            for i, (name, t0, t1, parent, op) in enumerate(self.spans):
                w.writerow([i, name, f"{t0:.9f}", f"{t1:.9f}", parent, op])
