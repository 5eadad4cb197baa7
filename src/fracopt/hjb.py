"""Pointwise Hamiltonian at grid nodes, its box-constrained minimization,
and the aggregate residual of the fractional dynamic-programming equation.

The equation under test is

    -V_t(t, x) = min_u { sum_j w_j(t) g_j(t, x, u) + V_x . field(t, x, M, u) }

with w_j the running kernel weight of each cost term.  Residuals audit a
finished sweep (fracopt.sweep): node_hamiltonian at the stored data plus
the reconstructed V_t, zero at the exact solution.

Within one sweep evaluation x and M are fixed at every node, so each node
is frozen once (freeze_node): its memory correction and running weights
are computed there and shared by every Hamiltonian probe at that node.

Endpoint conventions (both endpoints of the grid host singular factors):
at the final node the running weights of orders v < 1 are evaluated at the
adjacent interior time, and at the initial node the transformed field is
evaluated at the adjacent interior time.  The V_t entry of the initial
node is defined through the equation itself (see sweep.backward_sweep),
since no usable one-sided difference exists at the singular corner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.optimize import minimize_scalar

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
    "aggregate_error",
]

_COORD_TOL = 1e-10
_COORD_SWEEPS = 60


@dataclass(frozen=True)
class ValueData:
    """Value and costate data along a swept trajectory.

    v holds the value samples (v[-1] equals the terminal boundary value),
    v_x the costate vector per node, v_t the partial-time-derivative
    reconstruction used by the residual formula, and nodes the frozen
    node data (FrozenNode) the Hamiltonians of the sweep were taken at.
    """

    grid: TimeGrid
    v: np.ndarray = field(repr=False)
    v_x: np.ndarray = field(repr=False)
    v_t: np.ndarray = field(repr=False)
    nodes: tuple = field(repr=False)

    def __post_init__(self):
        n = self.grid.n_nodes
        if self.v.shape[0] != n or self.v_x.shape[0] != n \
                or self.v_t.shape[0] != n or len(self.nodes) != n:
            raise DomainError("value data must cover every grid node")
        if not (np.all(np.isfinite(self.v)) and np.all(np.isfinite(self.v_x))
                and np.all(np.isfinite(self.v_t))):
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
    """u -> sum_j w_j(t) g_j(t, x, u) with x frozen and every running
    weight computed once."""
    terms = prob.index.running_terms
    weights = [running_weight(term.v, t, prob.tf) for term in terms]

    def running(u):
        total = 0.0
        for w, term in zip(weights, terms):
            total += w * term.running(t, x, u)
        return total

    return running


@dataclass(frozen=True)
class FrozenNode:
    """The data of one grid node that every Hamiltonian probe of a sweep
    evaluation shares: the node times of node_times, the weighted running
    cost at t_run and the transformed field at t_field, each frozen at
    the node's state and moments and left a function of the control."""

    t_run: float
    t_field: float
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
    return FrozenNode(t_run, t_field, _running_cost(prob, t_run, x),
                      prob.field.at_state(t_field, x, m_node))


def node_hamiltonian(node: FrozenNode, u: np.ndarray,
                     v_x: np.ndarray) -> float:
    """Weighted running cost plus V_x . field at a frozen grid node."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    return node.running(u) + float(np.dot(v_x, node.field(u)))


def _minimize_box(h: Callable[[np.ndarray], float], lo: np.ndarray,
                  hi: np.ndarray, quadratic: bool):
    """Box-constrained minimizer of a scalar function of the control.

    quadratic=True uses exact 3-point probing per component (valid for
    Hamiltonians quadratic and separable in the control); otherwise
    bounded scalar minimization per component, swept until the iterate
    stops moving.  With one control a single sweep is final: the bounded
    search ignores its start point, and the axis function then ignores u,
    so a second sweep would repeat the first search bit for bit.
    """
    def checked(u):
        hv = h(u)
        if not np.isfinite(hv):
            raise SweepAbort("non-finite Hamiltonian during minimization")
        return hv

    m = lo.shape[0]
    u = np.clip(np.zeros(m), lo, hi)
    if quadratic:
        h0 = checked(u)
        out = u.copy()
        for j in range(m):
            step = max(1.0, 1e-3 * (hi[j] - lo[j]))
            up = u.copy()
            um = u.copy()
            up[j] += step
            um[j] -= step
            hp, hm = checked(up), checked(um)
            curv = (hp + hm - 2.0 * h0) / (2.0 * step * step)
            slope = (hp - hm) / (2.0 * step)
            if curv > 0.0:
                cand = u[j] - slope / (2.0 * curv)
                out[j] = min(max(cand, lo[j]), hi[j])
            else:
                # no interior minimum along this axis: best endpoint
                ue = u.copy()
                ue[j] = lo[j]
                h_lo = checked(ue)
                ue[j] = hi[j]
                h_hi = checked(ue)
                out[j] = lo[j] if h_lo <= h_hi else hi[j]
        return out, checked(out)

    u = u.copy()
    for _ in range(_COORD_SWEEPS):
        moved = 0.0
        for j in range(m):
            if hi[j] - lo[j] <= _COORD_TOL:
                u[j] = lo[j]
                continue

            def axis(val, j=j):
                uu = u.copy()
                uu[j] = val
                return checked(uu)

            res = minimize_scalar(axis, bounds=(lo[j], hi[j]),
                                  method="bounded",
                                  options={"xatol": _COORD_TOL})
            moved = max(moved, abs(res.x - u[j]))
            u[j] = res.x
        if m == 1 or moved <= _COORD_TOL:
            break
    return u, checked(u)


def minimize_node_hamiltonian(prob: HJBProblem, node: FrozenNode,
                              v_x: np.ndarray):
    """Minimizer of the Hamiltonian at a frozen grid node over the
    problem's control box.  Returns (u_star, h_star)."""
    return _minimize_box(lambda u: node_hamiltonian(node, u, v_x),
                         prob.u_lower, prob.u_upper, prob.quadratic_control)


def aggregate_error(residuals: np.ndarray) -> float:
    """Root-sum-square of the per-node residuals."""
    r = np.asarray(residuals, dtype=float)
    return float(np.sqrt(np.sum(r * r)))
