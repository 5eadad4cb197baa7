"""Forward-backward sweep solver.

A solve builds every grid-only factor once, into a GridPlan (hjb).  One
iteration evaluates the current control trajectory end to end on a node
table (hjb.NodeTable): integrate the transformed dynamics and moment
states forward, freezing each node into its row as the sweep reaches it
and taking every slope of the field on the rows, integrate the costate
backward on the table alone and store it, with the Hamiltonian, on it
(the table is the one record of the evaluation), minimize the
Hamiltonian pointwise, and score the iterate by the root-sum-square
residual of the dynamic-programming equation.  Node by node run only
the state, moment and costate recursions (a forward node costs only
what depends on x: forward_sweep), and two loops the benchmark's tracer
binds to by name: GridPlan's running weights and
_weighted_running_gradient's.  The rest, the cost quadrature's
operand samples included, is array operations over all nodes.  The
control update is relaxed and accepted only when the aggregate residual
does not increase; on rejection the relaxation factor is halved and the
update retried.

The residual at node k is the Hamiltonian gap H_k(u*_k) - H_k(u_k), so
Error = ||H(u*) - H(u)||_2 measures how far u is from pointwise optimal
along its own trajectory, not whether that trajectory solves the stated
Caputo problem.  Nothing in the iteration reads V itself (the minimizer
reads the costate v_x, the residual h): V, the cost-to-go from every
node (cost.cost_to_go), is summed once, on the final pair, and stored as
the final table's v, so V[0] is J* up to the order of summation; J*
itself is the cost quadrature cost.evaluate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Real
from typing import Union

import numpy as np

from . import cost as cost_mod
from .errors import DomainError, SweepAbort
from .expansion import advance_moments
from .grid import TimeGrid
from .hjb import (GridPlan, NodeTable, _all_finite, aggregate_error,
                  first_failing_node, minimize_node_hamiltonian,
                  node_hamiltonian)
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
    """Result of a solve: final trajectories and iteration diagnostics.

    value is the node table of the final evaluation, with the costate
    v_x, the Hamiltonian h and the cost-to-go v from every node (v[0]
    is j_star up to the order of summation)."""

    grid: TimeGrid
    iteration: int
    u: np.ndarray = field(repr=False)
    x: np.ndarray = field(repr=False)
    value: NodeTable = field(repr=False)
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


def _plan_for(prob: HJBProblem, cfg: SweepConfig) -> GridPlan:
    prob = _ensure_field(prob, cfg)
    return GridPlan(prob, TimeGrid.from_step(prob.plant.t0, prob.tf, cfg.dt))


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


def _finite_per_node(what: str, values) -> np.ndarray:
    """values as an array; SweepAbort names the first non-finite one."""
    values = np.array(values)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise SweepAbort(f"non-finite {what}, first at node {bad[0]}")
    return values


def forward_sweep(prob: HJBProblem, u, cfg: SweepConfig, plan=None):
    """Integrate states and moments forward under a control trajectory.

    The transformed field is singular at t0, so the first cell is crossed
    with one explicit Euler step of the original Caputo right-hand side
    (which is regular); stepping then proceeds on the transformed system
    with the configured scheme.  The problem, grid and grid-only factors
    are read from plan (solve's GridPlan), built here when not given.
    Returns (x, nodes): the table's states and the table of every grid
    node.

    A node k pays only for what depends on x: one memory correction at
    x_k and M_k, stored into row k of a NodeTable; one in-place step of
    the moment buffer to M_{k+1} (one buffer per sweep, in the
    (p_max - 1, n_states) layout the correction reads); the check that
    M_{k+1} is finite, before any user expression runs at the node; one
    rhs call; and the Euler or Heun update of the n_states components as
    Python floats, with the check that x_{k+1} is finite.  Heun's
    predictor takes a second correction, on row k+1 at the predicted
    state and M_{k+1}.  The float update rounds the same operations, in
    the same order, as the array form (rhs - correction) / denominator
    of a row and the step on it, so states and rows match that form bit
    for bit.  It reads Python floats only: the state as the step left
    it, the correction's list, and the rhs's floats (config._evaluator,
    expansion.as_evaluator).
    """
    if plan is None:
        plan = _plan_for(prob, cfg)
    prob, grid = plan.prob, plan.grid
    u = _control_array(prob, grid, u)
    correction = prob.field.correction
    n, dt = grid.n_steps, grid.dt
    half_dt = 0.5 * dt
    heun = cfg.stepper == "heun"
    nodes = NodeTable(plan)
    x, corr = nodes.x, nodes.correction
    t_field, denominator = plan.t_field.tolist(), plan.denominator.tolist()
    decay, fac = plan.decay, plan.fac
    m = np.zeros((decay.shape[1],) + x.shape[1:])
    isfinite = math.isfinite
    rates, u_rows = prob.plant.rhs.floats, u.tolist()

    def field_row(k: int, x_k: list, c_k: list) -> list:
        """The transformed field at row k, state x_k and correction c_k,
        as floats."""
        return [(r - c) / d for r, c, d in zip(
            rates(t_field[k], x_k, u_rows[k]), c_k, denominator[k])]

    x[0] = prob.plant.x0
    x_k = x[0].tolist()
    with np.errstate(all="ignore"):   # each node is checked below
        for k in range(n):
            corr[k] = c_k = correction(t_field[k], x_k, m)
            advance_moments(m, x[k], decay[k], fac[k], out=m)
            if not _all_finite(m):
                raise SweepAbort(f"non-finite moment state at node {k + 1}")
            slope = field_row(k, x_k, c_k) if k else rates(
                grid.t0, x_k, u_rows[0])
            x_next = [xi + dt * s for xi, s in zip(x_k, slope)]
            if heun and k:   # Heun: the slope at the predictor, on row k+1
                corr[k + 1] = c_next = correction(t_field[k + 1], x_next, m)
                x_next = [xi + half_dt * (s + s_next) for xi, s, s_next
                          in zip(x_k, slope, field_row(k + 1, x_next, c_next))]
            x[k + 1] = x_next
            if not all(map(isfinite, x_next)):
                raise SweepAbort(f"non-finite state at node {k + 1}")
            x_k = x_next
        corr[n] = correction(t_field[n], x_k, m)
    return x, nodes


def _weighted_running_gradient(prob: HJBProblem, t_run: np.ndarray,
                               x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """d/dx of the weighted running cost at nodes with running-weight
    times t_run (GridPlan's), states x and controls u, one row each."""
    weights = [[cost_mod.running_weight(term.v, t, prob.tf)
                for term in prob.index.running_terms]
               for t in t_run.tolist()]
    return prob.index.running_gradient(
        np.array(weights).reshape(t_run.shape[0], -1), t_run, x, u)


def _costate(grad: np.ndarray, jac: np.ndarray, lam_n: np.ndarray,
             dt: float, heun: bool) -> np.ndarray:
    """backward_sweep's costate recursion: grad (n + 1, n_states) and jac
    (n + 1, n_states, n_states) linearize nodes 0..n (row 0 unused) and
    lam_n is the terminal costate; returns the (n + 1, n_states) costate.
    One state steps Python floats, where jac[k]^T lambda_k is j * l + 0.0
    (numpy's one-state matrix product sums from 0.0), and more states step
    numpy rows by np.matmul on jac[k].T views: jac[k].T @ lambda_k's bits."""
    n = grad.shape[0] - 1
    if grad.shape[1] == 1:
        grad, jac_t = grad[:, 0].tolist(), jac[:, 0, 0].tolist()
        lam_next = lam_n.item()

        def product(j, lam):
            return j * lam + 0.0
    else:
        jac_t, product, lam_next = jac.transpose(0, 2, 1), np.matmul, lam_n
    lam = [lam_next] * (n + 1)
    half_dt = 0.5 * dt
    for k in range(n - 1, -1, -1):
        # slope is -lambda'; node 0 has no linearization (the field is
        # singular at t0): the step into it is Euler
        slope = grad[k + 1] + product(jac_t[k + 1], lam_next)
        lam_k = lam_next + dt * slope
        if heun and k:
            lam_k = lam_next + half_dt * (
                slope + (grad[k] + product(jac_t[k], lam_k)))
        lam[k] = lam_next = lam_k
    return np.array(lam, dtype=float).reshape(n + 1, -1)


def backward_sweep(nodes: NodeTable, u, cfg: SweepConfig) -> NodeTable:
    """Integrate costates backward, and take the Hamiltonian at u.

    The costate solves lambda' = -(dg/dx + (dfield/dx)^T lambda) with
    lambda(tf) set to the terminal-value gradient.  h is the Hamiltonian
    at u and lambda per node, which the residual reads.  No value is
    integrated here: the cost-to-go is summed once per solve.

    Each node 1..n is linearized once (running-cost gradient and field
    Jacobian at its state and control), and both steppers step on those
    linearizations; the step into node 0, where the field is singular,
    is Euler.  One recursion steps them (_costate), on Python floats for
    one state and on numpy rows for more, with the same bits.

    nodes is an evaluation's node table (forward_sweep's or
    audit_residuals'): the problem, grid, states and node times are read
    from it, and v_x and h are stored on it for the minimization and the
    residuals of the same evaluation; its v stays None.  Returns nodes.
    """
    prob, grid, x = nodes.prob, nodes.grid, nodes.x
    u = _control_array(prob, grid, u)
    n = grid.n_steps
    nx = prob.plant.n_states
    # the costate's linearization at nodes 1..n (row 0 is never used):
    # lambda' = -(grad[k] + jac[k]^T lambda) at node k
    grad = np.zeros((grid.n_nodes, nx))
    jac = np.zeros((grid.n_nodes, nx, nx))
    at_nodes = (nodes.t_run[1:], nodes.t_field[1:], x[1:], u[1:])

    def linearize(rows):
        t_run, t, x_rows, u_rows = (a[rows] for a in at_nodes)
        grad[1:][rows] = _weighted_running_gradient(prob, t_run, x_rows,
                                                    u_rows)
        jac[1:][rows] = prob.field.jacobian_x(t, x_rows, u_rows)
    first_failing_node(linearize, n)

    lam_n = prob.index.terminal_gradient(prob.tf, x[n])
    with np.errstate(all="ignore"):   # no user code: checked below
        lam = _costate(grad, jac, lam_n, grid.dt, cfg.stepper == "heun")
    bad = np.flatnonzero(~np.isfinite(lam).all(axis=1))
    if bad.size:   # the first non-finite node the recursion reached
        raise SweepAbort(f"non-finite costate at node {bad[-1]}")

    h = _finite_per_node("Hamiltonian along the sweep",
                         node_hamiltonian(nodes, u, lam))
    nodes.v_x, nodes.h = lam, h
    return nodes


def _store_cost_to_go(nodes: NodeTable, u: np.ndarray) -> None:
    """Store the cost-to-go of the table's states under u as its v
    (cost.cost_to_go), once per solve or audit, on the final table.  A
    non-finite terminal value aborts at the last node, and any other
    non-finite V at the latest node the backward sum reached."""
    n = nodes.grid.n_steps
    v = cost_mod.cost_to_go(nodes.prob.index, nodes.grid, nodes.x, u)
    if not np.isfinite(v[n]):
        raise SweepAbort(f"non-finite terminal value at node {n}")
    bad = np.flatnonzero(~np.isfinite(v))
    if bad.size:
        raise SweepAbort(f"non-finite value at node {bad[-1]}")
    nodes.v = v


def _pointwise_minimizers(nodes: NodeTable) -> np.ndarray:
    return minimize_node_hamiltonian(nodes, nodes.v_x)


def _evaluate(prob: HJBProblem, u: np.ndarray, cfg: SweepConfig,
              plan: GridPlan = None):
    x, nodes = forward_sweep(prob, u, cfg, plan)
    backward_sweep(nodes, u, cfg)
    u_star = _pointwise_minimizers(nodes)
    residuals = _finite_per_node(
        "residual", node_hamiltonian(nodes, u_star, nodes.v_x) - nodes.h)
    return x, nodes, u_star, residuals, aggregate_error(residuals)


def audit_residuals(prob: HJBProblem, x: np.ndarray, u,
                    cfg: SweepConfig):
    """Recompute residuals and value data from stored trajectories alone.

    Steps the moment states over the node samples of x on its own
    GridPlan, writing each node's state and memory correction into a
    node table as forward_sweep does (the correction on Python-float
    states), reruns the backward sweep on that table under the supplied
    control, evaluates the residuals at the pointwise minimizers and
    sums the cost-to-go: the audit path behind the command-line verify.
    Returns (residuals, nodes): the table carries v, v_x and h.
    """
    plan = _plan_for(prob, cfg)
    prob, grid = plan.prob, plan.grid
    if x.shape != (grid.n_nodes, prob.plant.n_states):
        raise DomainError("state trajectory does not match the grid")
    u = _control_array(prob, grid, u)
    m = np.zeros((plan.decay.shape[1], prob.plant.n_states))
    nodes = NodeTable(plan)
    nodes.x[:] = x
    correction, t_field = prob.field.correction, plan.t_field.tolist()
    for k, x_k in enumerate(x.tolist()):
        nodes.correction[k] = correction(t_field[k], x_k, m)
        if k < grid.n_steps:
            advance_moments(m, x[k], plan.decay[k], plan.fac[k], out=m)
    backward_sweep(nodes, u, cfg)
    u_star = _pointwise_minimizers(nodes)
    residuals = _finite_per_node(
        "residual", node_hamiltonian(nodes, u_star, nodes.v_x) - nodes.h)
    _store_cost_to_go(nodes, u)
    return residuals, nodes


def solve(prob: HJBProblem, cfg: SweepConfig) -> SweepState:
    """Run the sweep iteration until the aggregate residual meets the
    tolerance or the iteration budget is spent.

    Non-convergence is reported on the returned state (converged=False,
    and stagnated=True when 20 relaxation halvings failed to find a
    non-increasing update), never as an exception.
    """
    plan = _plan_for(prob, cfg)
    prob, grid = plan.prob, plan.grid
    u = _control_array(prob, grid, cfg.u_init)
    x, value, u_star, residuals, err = _evaluate(prob, u, cfg, plan)
    history = [err]
    iteration = 0
    stagnated = False
    while err > cfg.error_tol and iteration < cfg.max_iters:
        theta = cfg.relaxation
        accepted = False
        for _ in range(_MAX_HALVINGS + 1):
            u_try = np.clip(theta * u_star + (1.0 - theta) * u,
                            prob.u_lower, prob.u_upper)
            trial = _evaluate(prob, u_try, cfg, plan)
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
    _store_cost_to_go(value, u)
    j_star = cost_mod.evaluate(prob.index, grid, x, u, 0)
    return SweepState(
        grid=grid, iteration=iteration, u=u, x=x,
        value=value, u_star=u_star, residuals=residuals, error=err,
        error_history=history, j_star=j_star,
        converged=bool(err <= cfg.error_tol), stagnated=stagnated)
