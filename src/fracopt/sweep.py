"""Forward-backward sweep solver.

One iteration evaluates the current control trajectory end to end:
integrate the transformed dynamics and moment states forward, freezing
each node (hjb.freeze_node) as the sweep reaches it, integrate the
costate and value backward on those records, minimize the Hamiltonian
pointwise, and score the iterate by the root-sum-square residual of the
dynamic-programming equation.  The control update is relaxed and accepted
only when the aggregate residual does not increase; on rejection the
relaxation factor is halved and the update retried.

The value samples are generated by the exact discrete inverse of the
residual's time-derivative stencil (centered differences inside the grid,
one-sided at the final node), so a converged control makes every residual
vanish to rounding.  Because of that inversion the value chain integrates
the full Hamiltonian, which along a trajectory is NOT the cost-to-go
derivative; the optimal cost is therefore reported from the cost
quadrature of the converged pair rather than from the value chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Real
from typing import Union

import numpy as np

from . import cost as cost_mod
from .errors import DomainError, SweepAbort
from .expansion import advance_moments, central_difference
from .grid import TimeGrid
from .hjb import (ValueData, aggregate_error, freeze_node,
                  minimize_node_hamiltonian, node_hamiltonian, node_times)
from .problem import HJBProblem

__all__ = ["SweepConfig", "SweepState", "forward_sweep", "backward_sweep",
           "solve", "audit_residuals"]

_MAX_HALVINGS = 20


def _is_real(value) -> bool:
    """A real number, not a bool (YAML true/false are not counts or steps)."""
    return isinstance(value, Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class SweepConfig:
    """Solver settings: grid step, initial guess, truncations, iteration
    control, and integration scheme ("euler" or "heun")."""

    dt: float = 0.01
    u_init: Union[float, np.ndarray] = 0.0
    n_a: int = 10_000_000
    n_b: int = 10_000_000
    p_max: int = 150
    max_iters: int = 200
    error_tol: float = 1e-8
    relaxation: float = 0.5
    stepper: str = "euler"
    b_series: str = "divergent"

    def __post_init__(self):
        for name in ("n_a", "n_b", "p_max", "max_iters"):
            value = getattr(self, name)
            if not (_is_real(value) and math.isfinite(value)
                    and value == int(value)):
                raise DomainError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        for name in ("dt", "error_tol"):
            value = getattr(self, name)
            if not (_is_real(value) and math.isfinite(value) and value > 0):
                raise DomainError(
                    f"{name} must be positive and finite, got {value!r}")
        u_init = np.asarray(self.u_init)
        if u_init.dtype.kind not in "iuf" or not np.all(np.isfinite(u_init)):
            raise DomainError(
                f"u_init must be a finite number or array, got {self.u_init!r}")
        if not (_is_real(self.relaxation) and 0 < self.relaxation <= 1):
            raise DomainError("relaxation must lie in (0, 1]")
        if self.stepper not in ("euler", "heun"):
            raise DomainError(f"unknown stepper {self.stepper!r}")
        if self.b_series not in ("divergent", "convergent"):
            raise DomainError(f"unknown coefficient series {self.b_series!r}")
        if self.max_iters < 0:
            raise DomainError("max_iters must be non-negative")
        if self.n_a < 2 or self.n_b < 1 or self.p_max < 2:
            raise DomainError("truncation counts too small")


@dataclass
class SweepState:
    """Result of a solve: final trajectories and iteration diagnostics."""

    grid: TimeGrid
    iteration: int
    u: np.ndarray = field(repr=False)
    x: np.ndarray = field(repr=False)
    value: ValueData = field(repr=False)
    u_star: np.ndarray = field(repr=False)
    residuals: np.ndarray = field(repr=False)
    error: float
    error_history: list
    j_star: float
    converged: bool
    stagnated: bool

    @property
    def terminal_state(self) -> np.ndarray:
        return self.x[-1]


def _grid_for(prob: HJBProblem, cfg: SweepConfig) -> TimeGrid:
    return TimeGrid.from_step(prob.plant.t0, prob.tf, cfg.dt)


def _control_array(prob: HJBProblem, grid: TimeGrid, u_init) -> np.ndarray:
    m = prob.plant.n_controls
    u = np.asarray(u_init, dtype=float)
    if u.ndim == 0:
        u = np.full((grid.n_nodes, m), float(u))
    elif u.ndim == 1 and u.shape[0] == m:
        u = np.tile(u, (grid.n_nodes, 1))
    elif u.ndim == 1 and m == 1 and u.shape[0] == grid.n_nodes:
        u = u[:, None]
    if u.shape != (grid.n_nodes, m):
        raise DomainError(
            f"control guess must broadcast to ({grid.n_nodes}, {m})")
    return np.clip(u, prob.u_lower, prob.u_upper)


def _ensure_field(prob: HJBProblem, cfg: SweepConfig) -> HJBProblem:
    """prob with the transformed field of cfg's truncation settings: the
    attached field when it was built for this plant with those settings
    for every order, a new one otherwise."""
    attached = prob.field
    wanted = (cfg.n_a, cfg.n_b, cfg.p_max, cfg.b_series)
    if attached is not None and attached.plant is prob.plant and all(
            (c.n_a, c.n_b, c.p_max, c.b_series) == wanted
            for c in attached.coeffs):
        return prob
    return prob.with_field(cfg.n_a, cfg.n_b, cfg.p_max, cfg.b_series)


def _check_finite(arr: np.ndarray, what: str, k: int) -> None:
    if not np.all(np.isfinite(arr)):
        raise SweepAbort(f"non-finite {what} at node {k}")


def _step(y: np.ndarray, h: float, slope: np.ndarray, slope_at_end,
          heun: bool) -> np.ndarray:
    """One explicit step of size h (negative when integrating backward)
    from y, whose slope is slope: Euler, or Heun, which averages slope
    with slope_at_end evaluated at the Euler predictor."""
    y_pred = y + h * slope
    if not heun:
        return y_pred
    return y + 0.5 * h * (slope + slope_at_end(y_pred))


def forward_sweep(prob: HJBProblem, u, cfg: SweepConfig):
    """Integrate states and moments forward under a control trajectory.

    The transformed field is singular at t0, so the first cell is crossed
    with one explicit Euler step of the original Caputo right-hand side
    (which is regular); stepping then proceeds on the transformed system
    with the configured scheme.  Only the current moment state M_k is
    kept: node k is frozen (hjb.freeze_node) at x_k and M_k as the sweep
    reaches it, and the step out of it takes that record's field.
    Returns (x, nodes), one FrozenNode per grid node.
    """
    prob = _ensure_field(prob, cfg)
    grid = _grid_for(prob, cfg)
    u = _control_array(prob, grid, u)
    plant = prob.plant
    n = grid.n_steps
    dt = grid.dt
    times = grid.times()
    x = np.empty((grid.n_nodes, plant.n_states))
    heun = cfg.stepper == "heun"
    x[0] = plant.x0
    m = np.zeros((cfg.p_max - 1, plant.n_states))
    nodes = []
    for k in range(n):
        nodes.append(freeze_node(prob, grid, k, x[k], m))
        m = advance_moments(grid, m, x[k], k)   # x_{k+1}-free
        _check_finite(m, "moment state", k + 1)
        slope = nodes[k].field(u[k]) if k else np.asarray(
            plant.rhs(times[0], x[0], u[0]), dtype=float)
        x[k + 1] = _step(
            x[k], dt, slope,
            lambda y: prob.field(times[k + 1], y, m, u[k + 1]), heun and k > 0)
        _check_finite(x[k + 1], "state", k + 1)
    nodes.append(freeze_node(prob, grid, n, x[n], m))
    return x, tuple(nodes)


def _weighted_running_gradient(prob: HJBProblem, grid: TimeGrid, k: int,
                               x_k: np.ndarray, u_k: np.ndarray) -> np.ndarray:
    """d/dx of the weighted running cost at node k (weights substituted at
    the final node), by central differences on the user operands."""
    t_run, _ = node_times(grid, k)
    weights = [cost_mod.running_weight(term.v, t_run, prob.tf)
               for term in prob.index.running_terms]

    def g_of(xv):
        return sum(w * term.running(t_run, xv, u_k)
                   for w, term in zip(weights, prob.index.running_terms))

    return central_difference(g_of, x_k)


def backward_sweep(prob: HJBProblem, x: np.ndarray, nodes: tuple,
                   u, cfg: SweepConfig) -> ValueData:
    """Integrate costates backward and build the value chain.

    The costate solves lambda' = -(dg/dx + (dfield/dx)^T lambda) with
    lambda(tf) set to the terminal-value gradient.  The value samples are
    produced by inverting the residual stencil: one backward-difference
    seed at the final node, then the centered-difference chain inward.
    V_t at the initial node is defined through the equation itself
    (-H at that node), the only choice that keeps the singular corner
    auditable.

    Each node 1..n is linearized once (running-cost gradient and field
    Jacobian at its state and control), and both steppers step on those
    linearizations; the step into node 0, where the field is singular,
    is Euler.

    nodes are x's frozen node records (forward_sweep's, or
    audit_residuals'); the value chain's Hamiltonians are taken on them,
    and they go out on the ValueData for the minimization and the
    residuals of the same evaluation.
    """
    prob = _ensure_field(prob, cfg)
    grid = _grid_for(prob, cfg)
    u = _control_array(prob, grid, u)
    n = grid.n_steps
    dt = grid.dt
    times = grid.times()
    nx = prob.plant.n_states
    # the costate's linearization at nodes 1..n (row 0 is never used):
    # lambda' = -(grad[k] + jac[k]^T lambda) at node k
    grad = np.zeros((grid.n_nodes, nx))
    jac = np.zeros((grid.n_nodes, nx, nx))
    for k in range(1, grid.n_nodes):
        grad[k] = _weighted_running_gradient(prob, grid, k, x[k], u[k])
        jac[k] = prob.field.jacobian_x(times[k], x[k], u[k])

    lam = np.zeros((grid.n_nodes, nx))
    lam[n] = central_difference(
        lambda xv: cost_mod.terminal_value(prob.index, prob.tf, xv), x[n])
    heun = cfg.stepper == "heun"
    for k in range(n - 1, -1, -1):
        # the field is singular at t0, so node 0 has no linearization and
        # the step into it is Euler
        lam[k] = _step(lam[k + 1], -dt,
                       -(grad[k + 1] + jac[k + 1].T @ lam[k + 1]),
                       lambda y: -(grad[k] + jac[k].T @ y), heun and k > 0)
        _check_finite(lam[k], "costate", k)

    h_gen = np.array([node_hamiltonian(node, u[k], lam[k])
                      for k, node in enumerate(nodes)])
    if not np.all(np.isfinite(h_gen)):
        raise SweepAbort("non-finite Hamiltonian along the sweep")

    v = np.empty(grid.n_nodes)
    v[n] = cost_mod.terminal_value(prob.index, prob.tf, x[n])
    v[n - 1] = v[n] + dt * h_gen[n]
    for k in range(n - 1, 0, -1):
        v[k - 1] = v[k + 1] + 2.0 * dt * h_gen[k]

    v_t = np.empty(grid.n_nodes)
    v_t[1:n] = (v[2:] - v[:-2]) / (2.0 * dt)
    v_t[n] = (v[n] - v[n - 1]) / dt
    v_t[0] = -h_gen[0]
    return ValueData(grid, v, lam, v_t, nodes)


def _pointwise_minimizers(prob: HJBProblem, value: ValueData) -> np.ndarray:
    u_star = np.empty((value.grid.n_nodes, prob.plant.n_controls))
    for k, node in enumerate(value.nodes):
        u_star[k], _ = minimize_node_hamiltonian(prob, node, value.v_x[k])
    return u_star


def _evaluate(prob: HJBProblem, u: np.ndarray, cfg: SweepConfig):
    x, nodes = forward_sweep(prob, u, cfg)
    value = backward_sweep(prob, x, nodes, u, cfg)
    u_star = _pointwise_minimizers(prob, value)
    residuals = np.array([
        node_hamiltonian(node, u_star[k], value.v_x[k]) + value.v_t[k]
        for k, node in enumerate(value.nodes)])
    return x, value, u_star, residuals, aggregate_error(residuals)


def audit_residuals(prob: HJBProblem, x: np.ndarray, u,
                    cfg: SweepConfig):
    """Recompute residuals and value data from stored trajectories alone.

    Steps the moment states over the node samples of x, freezing each
    node as forward_sweep does, reruns the backward sweep on those
    records under the supplied control, and evaluates the residuals at
    the pointwise minimizers: the audit path behind the command-line
    verify.  Returns (residuals, value).
    """
    prob = _ensure_field(prob, cfg)
    grid = _grid_for(prob, cfg)
    u = _control_array(prob, grid, u)
    if x.shape != (grid.n_nodes, prob.plant.n_states):
        raise DomainError("state trajectory does not match the grid")
    m = np.zeros((cfg.p_max - 1, prob.plant.n_states))
    nodes = []
    for k in range(grid.n_nodes):
        nodes.append(freeze_node(prob, grid, k, x[k], m))
        if k < grid.n_steps:
            m = advance_moments(grid, m, x[k], k)
    value = backward_sweep(prob, x, tuple(nodes), u, cfg)
    u_star = _pointwise_minimizers(prob, value)
    residuals = np.array([
        node_hamiltonian(node, u_star[k], value.v_x[k]) + value.v_t[k]
        for k, node in enumerate(value.nodes)])
    return residuals, value


def solve(prob: HJBProblem, cfg: SweepConfig) -> SweepState:
    """Run the sweep iteration until the aggregate residual meets the
    tolerance or the iteration budget is spent.

    Non-convergence is reported on the returned state (converged=False,
    and stagnated=True when 20 relaxation halvings failed to find a
    non-increasing update), never as an exception.
    """
    prob = _ensure_field(prob, cfg)
    grid = _grid_for(prob, cfg)
    u = _control_array(prob, grid, cfg.u_init)
    x, value, u_star, residuals, err = _evaluate(prob, u, cfg)
    history = [err]
    iteration = 0
    stagnated = False
    while err > cfg.error_tol and iteration < cfg.max_iters:
        theta = cfg.relaxation
        accepted = False
        for _ in range(_MAX_HALVINGS + 1):
            u_try = np.clip(theta * u_star + (1.0 - theta) * u,
                            prob.u_lower, prob.u_upper)
            trial = _evaluate(prob, u_try, cfg)
            if trial[-1] <= history[-1]:
                accepted = True
                break
            theta *= 0.5
        if not accepted:
            stagnated = True
            break
        u = u_try
        x, value, u_star, residuals, err = trial
        history.append(err)
        iteration += 1
    j_star = cost_mod.evaluate(prob.index, grid, x, u, 0)
    return SweepState(
        grid=grid, iteration=iteration, u=u, x=x,
        value=value, u_star=u_star, residuals=residuals, error=err,
        error_history=history, j_star=j_star,
        converged=bool(err <= cfg.error_tol), stagnated=stagnated)
