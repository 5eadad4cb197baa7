"""In-memory tracer for one benchmark repetition.

The tracer patches fracopt functions where their callers look them up: a
function imported into another module with ``from .x import f`` is
patched in the importing module's namespace, a method on its class, and a
function reached as ``cost_mod.f`` on the module object.  Patching only
the package-level re-export would leave the solver calling the original.

Coarse calls (a sweep pass, the cost quadrature, a field build) get
a span with a parent.  Calls made once per node or per probe are
aggregated by name into a call count and inclusive time, keyed by the
top-level phase (setup, solve, write, verify) they ran in.  Everything
stays in memory until the repetition writes it out.

A site whose owner or attribute no longer exists is listed in
``Tracer.missing`` and not patched, so a removed or merged function shows
up as missing rather than as a zero count.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

__all__ = ["Site", "SITES", "Tracer", "resolve"]


@dataclass(frozen=True)
class Site:
    """One patch point.

    ``owner`` is a module path, optionally followed by ``:Class``.
    ``callers`` name the functions (``module:qualname``) whose code looks
    ``attr`` up on that owner; the bind-check test asserts they do.
    ``kind`` is "span", "agg", "series" (aggregate plus the terms summed
    on cache misses) or "compile" (aggregate every evaluator returned).
    """

    name: str
    owner: str
    attr: str
    callers: tuple
    kind: str

    @property
    def label(self) -> str:
        return f"{self.owner}.{self.attr}"


SITES = (
    # expansion: field build with the coefficients of every order (a
    # span), series sums, per-node work
    Site("coeffs", "fracopt.problem:HJBProblem", "with_field",
         ("fracopt.sweep:_ensure_field",), "span"),
    Site("series_partial_sum", "fracopt.expansion", "series_partial_sum",
         ("fracopt.expansion:state_coeff",
          "fracopt.expansion:derivative_coeff"), "series"),
    Site("advance_moments", "fracopt.sweep", "advance_moments",
         ("fracopt.sweep:forward_sweep", "fracopt.sweep:audit_residuals"),
         "agg"),
    Site("correction", "fracopt.expansion:TransformedField", "correction",
         ("fracopt.expansion:TransformedField.__call__",
          "fracopt.expansion:TransformedField.at_state"), "agg"),
    Site("jacobian_x", "fracopt.expansion:TransformedField", "jacobian_x",
         ("fracopt.sweep:backward_sweep",), "agg"),
    # sweep passes
    Site("forward", "fracopt.sweep", "forward_sweep",
         ("fracopt.sweep:_evaluate",), "span"),
    Site("backward", "fracopt.sweep", "backward_sweep",
         ("fracopt.sweep:_evaluate", "fracopt.sweep:audit_residuals"),
         "span"),
    Site("minimize_pass", "fracopt.sweep", "_pointwise_minimizers",
         ("fracopt.sweep:_evaluate", "fracopt.sweep:audit_residuals"),
         "span"),
    # hjb: pointwise minimization and Hamiltonians
    Site("minimize_node", "fracopt.sweep", "minimize_node_hamiltonian",
         ("fracopt.sweep:_pointwise_minimizers",), "agg"),
    Site("scalar_search", "fracopt.hjb", "minimize_scalar",
         ("fracopt.hjb:_minimize_box",), "agg"),
    Site("node_hamiltonian", "fracopt.sweep", "node_hamiltonian",
         ("fracopt.sweep:backward_sweep", "fracopt.sweep:_evaluate",
          "fracopt.sweep:audit_residuals"), "agg"),
    # cost and operators
    Site("cost_evaluate", "fracopt.cost", "evaluate",
         ("fracopt.sweep:solve",), "span"),
    Site("running_weight", "fracopt.hjb", "running_weight",
         ("fracopt.hjb:_running_cost",), "agg"),
    Site("running_weight", "fracopt.cost", "running_weight",
         ("fracopt.sweep:_weighted_running_gradient",), "agg"),
    Site("kernel_weights", "fracopt.cost", "singular_kernel_weights",
         ("fracopt.cost:evaluate",), "agg"),
    # expressions: every compiled evaluator the config layer builds
    Site("expression", "fracopt.config", "compile_expression",
         ("fracopt.config:build_problem",), "compile"),
)


def resolve(path: str):
    """Return the object named ``module`` or ``module:Qual.name``, or
    None when any part of it does not exist."""
    module_name, _, qual = path.partition(":")
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    for part in filter(None, qual.split(".")):
        obj = vars(obj).get(part) if hasattr(obj, "__dict__") else None
        if obj is None:
            return None
    return obj


class Tracer:
    """Spans and per-name aggregates of one process, kept in memory."""

    def __init__(self):
        self.spans = []   # [name, parent index or None, start, end]
        self.agg = {}     # (phase, name) -> [calls, seconds, extra]
        self.missing = []
        self._stack = []
        self._undo = []

    @contextmanager
    def span(self, name: str):
        rec = [name, self._stack[-1] if self._stack else None,
               perf_counter(), None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[3] = perf_counter()
            self._stack.pop()

    def _record(self, name: str, seconds: float, extra: int = 0) -> None:
        phase = self.spans[self._stack[0]][0] if self._stack else ""
        rec = self.agg.get((phase, name))
        if rec is None:
            rec = self.agg[(phase, name)] = [0, 0.0, 0]
        rec[0] += 1
        rec[1] += seconds
        rec[2] += extra

    def _span_wrapper(self, name, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def _agg_wrapper(self, name, fn):
        def traced(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._record(name, perf_counter() - start)
        return traced

    def _series_wrapper(self, name, fn):
        """Count the truncation N of every call that missed the cache
        (every call, if the function is no longer cached)."""
        info = getattr(fn, "cache_info", None)

        def traced(q, n_terms, *args, **kwargs):
            misses = info().misses if info else 0
            start = perf_counter()
            try:
                return fn(q, n_terms, *args, **kwargs)
            finally:
                missed = info is None or info().misses > misses
                self._record(name, perf_counter() - start,
                             int(n_terms) if missed else 0)
        return traced

    def _compile_wrapper(self, name, fn):
        def traced_compile(*args, **kwargs):
            evaluate = fn(*args, **kwargs)
            wrapped = self._agg_wrapper(name, evaluate)
            wrapped.source = getattr(evaluate, "source", None)
            return wrapped
        return traced_compile

    def _wrap(self, site: Site, fn):
        wrapper = {"span": self._span_wrapper, "agg": self._agg_wrapper,
                   "series": self._series_wrapper,
                   "compile": self._compile_wrapper}[site.kind]
        return wrapper(site.name, fn)

    def install(self, sites=SITES) -> None:
        for site in sites:
            owner = resolve(site.owner)
            if owner is None or site.attr not in vars(owner):
                self.missing.append(site.label)
                continue
            orig = vars(owner)[site.attr]
            setattr(owner, site.attr, self._wrap(site, orig))
            self._undo.append((owner, site.attr, orig))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # ------------------------------------------------------------ queries

    def span_total(self, name: str, phase: str = None):
        """(count, seconds) over spans called name, optionally only those
        under the top-level span called phase."""
        count, total = 0, 0.0
        for rec in self.spans:
            if rec[0] == name and (phase is None or self._root(rec) == phase):
                count += 1
                total += rec[3] - rec[2]
        return count, total

    def self_time(self, name: str) -> float:
        """Duration of the spans called name minus their direct children."""
        total = 0.0
        for i, rec in enumerate(self.spans):
            if rec[0] == name:
                total += rec[3] - rec[2]
                total -= sum(c[3] - c[2] for c in self.spans if c[1] == i)
        return total

    def agg_total(self, name: str, phase: str = None):
        """[calls, seconds, extra] summed over phases (or one phase)."""
        out = [0, 0.0, 0]
        for (ph, nm), rec in self.agg.items():
            if nm == name and (phase is None or ph == phase):
                out = [a + b for a, b in zip(out, rec)]
        return out

    def _root(self, rec) -> str:
        while rec[1] is not None:
            rec = self.spans[rec[1]]
        return rec[0]

    def dump(self) -> dict:
        return {
            "spans": [{"id": i, "name": r[0], "parent": r[1],
                       "start": r[2], "end": r[3]}
                      for i, r in enumerate(self.spans)],
            "aggregates": [{"phase": ph, "name": nm, "calls": rec[0],
                            "seconds": rec[1], "extra": rec[2]}
                           for (ph, nm), rec in sorted(self.agg.items())],
            "missing": list(self.missing),
        }
