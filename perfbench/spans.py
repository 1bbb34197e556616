"""Span tracer for the benchmark's traced runs.

The tracer wraps the public functions and methods of each maxentos layer
at run time, from outside the package: it rebinds every module-level name
and class attribute that refers to one of them, so calls between layers go
through the wrappers too.  Nothing in the package changes, and a run that
never installs the tracer pays nothing.

Each call records one span (name, start, end, parent span, op id, points
in) in memory.  Self time and counts are derived from the spans afterwards,
and the spans are written out as JSON with the standard library.
"""

from __future__ import annotations

import functools
import inspect
import json
import time

import numpy as np

LAYERS = ("cdfs", "intervals", "marginals", "hazards", "joint", "multidiag",
          "copula", "verify", "cli")

# cdf/sf/pdf of every family share one span name; a speed-up of the
# elementwise evaluations shows there whichever family the spec uses.
_EVAL_METHODS = {"cdf", "sf", "pdf"}

# quadrature primitives whose integrand callback is counted point by point
_QUADRATURE = {"verify.simplex_integral", "verify.cube_integral",
               "verify.ordered_region_integral_2d"}


def _size(x) -> int:
    return int(np.size(x))


def _rows(x) -> int:
    return int(np.atleast_2d(np.asarray(x)).shape[0])


# points in, per span name: (index of the positional argument, measure)
_POINTS = {
    "cdfs.eval": (1, _size),
    "cdfs.ppf": (1, _size),
    "hazards.theta": (1, _size),
    "hazards.solve_tail": (1, _size),
    "copula.c_delta_density": (1, _rows),
    "joint.f_F_density": (1, _rows),
}


def _span_name(layer: str, owner, attr: str) -> str:
    if layer == "cdfs" and attr in _EVAL_METHODS:
        return "cdfs.eval"
    if attr == "__init__":
        return f"{layer}.{owner.__name__}"
    return f"{layer}.{attr}"


class Tracer:
    """In-memory spans over the public calls of the maxentos layers."""

    def __init__(self, package):
        self.package = package
        self.spans: list[tuple] = []      # (name, start, end, parent, op, points)
        self.integrand_points = 0
        self.op = -1
        self.active = False
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- installation --------------------------------------------------

    def _targets(self):
        """(layer, owner, attr, function) for every function to wrap."""
        for layer in LAYERS:
            mod = getattr(self.package, layer)
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    yield layer, mod, attr, obj
                elif inspect.isclass(obj):
                    for mattr, meth in vars(obj).items():
                        public = not mattr.startswith("_") or (
                            mattr == "__init__" and layer == "copula")
                        if public and inspect.isfunction(meth):
                            yield layer, obj, mattr, meth

    def install(self) -> None:
        wrapped = {}
        for layer, owner, attr, fn in self._targets():
            w = self._wrap(_span_name(layer, owner, attr), fn)
            wrapped[id(fn)] = (fn, w)
            self._undo.append((owner, attr, fn))
            setattr(owner, attr, w)
        # names imported into other modules (from .marginals import psi_pair)
        modules = [self.package] + [getattr(self.package, m) for m in LAYERS]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def _wrap(self, name: str, fn):
        points_of = _POINTS.get(name)
        counts_integrand = name in _QUADRATURE

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if counts_integrand:
                args = (self._counting(args[0]),) + args[1:]
            pts = None
            if points_of is not None and len(args) > points_of[0]:
                pts = points_of[1](args[points_of[0]])
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.op, pts)

        return wrapper

    def _counting(self, integrand):
        def counted(X):
            self.integrand_points += _rows(X)
            return integrand(X)
        return counted

    # -- derived numbers -------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Span duration minus the time its direct children cover, summed
        by span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for k, (name, start, end, _, _, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[k]
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for span in self.spans:
            out[span[0]] = out.get(span[0], 0) + 1
        return out

    def points(self, name: str, inside: str | None = None) -> int:
        """Points into spans called name; with inside, only those below a
        span called inside."""
        total = 0
        for span in self.spans:
            if span[0] != name or span[5] is None:
                continue
            if inside is not None and not self._below(span, inside):
                continue
            total += span[5]
        return total

    def _below(self, span, name: str) -> bool:
        parent = span[3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path, op_names: list[str]) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            json.dump({
                "fields": ["name", "start_s", "end_s", "parent", "op", "points"],
                "ops": op_names,
                "spans": [[n, round(s - t0, 9), round(e - t0, 9), p, o, pts]
                          for n, s, e, p, o, pts in self.spans],
            }, fh)
