"""Pointwise Hamiltonian at grid nodes, its box-constrained minimization,
and the aggregate residual of the fractional dynamic-programming equation.

The equation under test is

    -V_t(t, x) = min_u { sum_j w_j(t) g_j(t, x, u) + V_x . field(t, x, M, u) }

with w_j the running kernel weight of each cost term.  A sweep
(fracopt.sweep) integrates V backward from the Hamiltonian at its own
control, so V_t = -H_k(u_k), and the residual at node k is the Hamiltonian
gap H_k(u*_k) - H_k(u_k) at the pointwise minimizer u*_k.

Within one sweep evaluation x and M are fixed at every node, so each node
is frozen once (freeze_node): its memory correction and running weights
are computed there, and the record keeps only the two functions of the
control that every Hamiltonian probe at that node shares.

Endpoint conventions (both endpoints of the grid host singular factors):
at the final node the running weights of every order are evaluated at
t_{n-1}, so an order v > 1, whose weight at tf is 0, gets 0.1128 for v = 1.5
at dt = 0.01; at the initial node the transformed field is evaluated at t_1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .cost import running_weight
from .errors import DomainError, SweepAbort
from .grid import TimeGrid
from .problem import HJBProblem

__all__ = [
    "ValueData",
    "FrozenNode",
    "freeze_node",
    "node_hamiltonian",
    "minimize_node_hamiltonian",
    "minimize_scalar",
    "aggregate_error",
]

_COORD_TOL = 1e-10
_COORD_SWEEPS = 60
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_SQRT_EPS = math.sqrt(2.2e-16)
_MAX_EVALS = 500
_FLOAT = np.dtype(float)


@dataclass(frozen=True)
class ValueData:
    """Value and costate data along a swept trajectory.

    Per node: v the value chain (the leapfrog integral of h back from the
    terminal value v[-1], not the cost-to-go), v_x the costate, h the
    Hamiltonian at the sweep's own control, and nodes the FrozenNode
    records the Hamiltonians were taken at.
    """

    grid: TimeGrid
    v: np.ndarray = field(repr=False)
    v_x: np.ndarray = field(repr=False)
    h: np.ndarray = field(repr=False)
    nodes: tuple = field(repr=False)

    def __post_init__(self):
        n = self.grid.n_nodes
        if self.v.shape[0] != n or self.v_x.shape[0] != n \
                or self.h.shape[0] != n or len(self.nodes) != n:
            raise DomainError("value data must cover every grid node")
        if not (np.all(np.isfinite(self.v)) and np.all(np.isfinite(self.v_x))
                and np.all(np.isfinite(self.h))):
            raise DomainError("value data must be finite")


def node_times(grid: TimeGrid, k: int):
    """(t_run, t_field) at node k: the times at which the running weights
    and the transformed field are evaluated, with the endpoint
    substitutions applied."""
    n = grid.n_steps
    t_run = grid.node(n - 1) if k == n else grid.node(k)
    t_field = grid.node(1) if k == 0 else grid.node(k)
    return t_run, t_field


def _running_cost(prob: HJBProblem, t: float,
                  x: np.ndarray) -> Callable[[np.ndarray], float]:
    """u -> sum_j w_j(t) g_j(t, x, u) at frozen x, each w_j computed once."""
    weights = [running_weight(term.v, t, prob.tf)
               for term in prob.index.running_terms]
    return partial(prob.index.weighted_running, weights, t, x)


@dataclass(frozen=True)
class FrozenNode:
    """The data of one grid node that every Hamiltonian probe of a sweep
    evaluation shares: the weighted running cost and the transformed
    field, each frozen at the node's state and moments and at its time of
    node_times (t_run and t_field), and left a function of the control."""

    running: Callable[[np.ndarray], float]
    field: Callable[[np.ndarray], np.ndarray]


def freeze_node(prob: HJBProblem, grid: TimeGrid, k: int, x: np.ndarray,
                m_node: np.ndarray) -> FrozenNode:
    """Freeze grid node k at state x and moments m_node: one memory
    correction and one set of running weights, with the endpoint
    substitutions of node_times applied."""
    if prob.field is None:
        raise DomainError("problem carries no transformed field")
    t_run, t_field = node_times(grid, k)
    return FrozenNode(_running_cost(prob, t_run, x),
                      prob.field.at_state(t_field, x, m_node))


def node_hamiltonian(node: FrozenNode, u: np.ndarray,
                     v_x: np.ndarray) -> float:
    """Weighted running cost plus V_x . field at a frozen grid node."""
    if not (type(u) is np.ndarray and u.dtype == _FLOAT and u.ndim == 1):
        u = np.atleast_1d(np.asarray(u, dtype=float))
    return node.running(u) + float(np.dot(v_x, node.field(u)))


def _parabola_min(axis: Callable, c: float, lo: float, hi: float) -> float:
    """Minimizer over [lo, hi] of a function quadratic along one axis,
    from probes at c and c +- step: the parabola's vertex clipped to the
    interval when it curves upward, otherwise the better endpoint."""
    step = max(1.0, 1e-3 * (hi - lo))
    h0, hp, hm = axis(c), axis(c + step), axis(c - step)
    curv = (hp + hm - 2.0 * h0) / (2.0 * step * step)
    slope = (hp - hm) / (2.0 * step)
    if curv > 0.0:
        return min(max(c - slope / (2.0 * curv), lo), hi)
    # no interior minimum along this axis: best endpoint
    return lo if axis(lo) <= axis(hi) else hi


def minimize_scalar(func: Callable[[float], float], lo: float, hi: float,
                    xatol: float) -> float:
    """Minimizer of func over [lo, hi] by Brent's bounded search: golden
    sections and parabolic steps until the bracket is within xatol (plus
    a relative sqrt(eps)) of the best point, or after 500 evaluations.

    A plain-float transcription of scipy's
    minimize_scalar(method="bounded"), returning the same x.
    """
    # [a, b] brackets the minimum; xf, nfc and fulc are the best, second
    # and third best points so far, fx, fnfc and ffulc their values
    a, b = float(lo), float(hi)
    xf = nfc = fulc = a + _GOLDEN * (b - a)
    fx = ffulc = fnfc = func(xf)
    num = 1
    rat = e = 0.0
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            # parabola through the three best points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = p / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm >= xf else -tol1
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = _GOLDEN * e
        x = xf + (-1.0 if rat < 0 else 1.0) * max(abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= _MAX_EVALS:
            break
    return xf


def _minimize_box(h: Callable[[np.ndarray], float], lo: np.ndarray,
                  hi: np.ndarray, quadratic: bool):
    """Box-constrained minimizer of a scalar function of the control by
    coordinate sweeps from the clipped origin.  A degenerate axis is set to
    lo; otherwise _parabola_min (quadratic=True: exact for Hamiltonians
    quadratic and separable in the control) or bounded scalar search
    minimizes along it.  Sweeps repeat until the iterate stops moving, but
    one is final in quadratic mode and with one control (the bounded
    search ignores its start point, so a second sweep would repeat it).
    """
    m = lo.shape[0]
    u = np.clip(np.zeros(m), lo, hi)
    for _ in range(_COORD_SWEEPS):
        moved = 0.0
        for j in range(m):
            def axis(val, j=j):
                uu = u.copy()
                uu[j] = val
                hv = h(uu)
                if math.isfinite(hv):
                    return hv
                raise SweepAbort("non-finite Hamiltonian during minimization")

            if hi[j] - lo[j] <= _COORD_TOL:
                new = lo[j]
            elif quadratic:
                new = _parabola_min(axis, u[j], lo[j], hi[j])
            else:
                new = minimize_scalar(axis, lo[j], hi[j], _COORD_TOL)
            moved = max(moved, abs(new - u[j]))
            u[j] = new
        if quadratic or m == 1 or moved <= _COORD_TOL:
            break
    return u


def minimize_node_hamiltonian(prob: HJBProblem, node: FrozenNode,
                              v_x: np.ndarray) -> np.ndarray:
    """Minimizer of the Hamiltonian at a frozen grid node over the
    problem's control box (H is not evaluated at it here)."""
    return _minimize_box(lambda u: node_hamiltonian(node, u, v_x),
                         prob.u_lower, prob.u_upper, prob.quadratic_control)


def aggregate_error(residuals: np.ndarray) -> float:
    """Root-sum-square of the per-node residuals: a run's Error,
    ||H(u*) - H(u)||_2 over the grid nodes."""
    r = np.asarray(residuals, dtype=float)
    return float(np.sqrt(np.sum(r * r)))
