"""Pointwise Hamiltonian at grid nodes, its box-constrained minimization,
and the aggregate residual of the fractional dynamic-programming equation.

The equation under test is

    -V_t(t, x) = min_u { sum_j w_j(t) g_j(t, x, u) + V_x . field(t, x, M, u) }

with w_j the running kernel weight of each cost term.  A sweep
(fracopt.sweep) integrates the costate V_x backward and takes the
Hamiltonian at its own control, H_k(u_k), and the residual at node k is
the Hamiltonian gap H_k(u*_k) - H_k(u_k) at the pointwise minimizer
u*_k.  V itself is the cost-to-go, summed once per solve from the cost
quadrature (cost.cost_to_go).

What depends on the grid alone is computed once per solve into a GridPlan.
Within one sweep evaluation x and M are fixed at every node, so the nodes
no longer depend on each other.  Each node is frozen into one row of a
NodeTable beside the plan's rows: its state and its memory correction.
H is evaluated once over all rows (node_hamiltonian), unchecked; only
the rows of a non-finite H are evaluated again, by the scalar
evaluators, which name the failing expression or raise what a Python
callable raises.  Every probe of the minimizer is such an evaluation:
a round of its bracketed Newton search (the whole quadratic rule), one
search per row, and no row is evaluated at a control its own
minimization would not probe (_minimize_box).  A
batched stage that aborts runs again node by node (first_failing_node),
so that its abort is the one node-by-node evaluation raised; the
minimizer aborts on a non-finite H its probe still returns (an
overflow, with every expression finite).  The table is the one record
of the evaluation: the backward sweep stores its costate and
Hamiltonian on it too, and a solve stores the cost-to-go on its final
table.

The cost of a batch is call overhead, not row count: a Hamiltonian probe
of perfbench/lq_bounded.yaml's 101 nodes costs about 20 us (a shared
2-core x86-64 machine, numpy 2.4), hence one batched search for all
rows, in few rounds: 11 probes per search on that file.

Endpoint conventions (both endpoints of the grid host singular factors):
at the final node the running weights of every order are evaluated at
t_{n-1}, so an order v > 1, whose weight at tf is 0, gets 0.1128 for v = 1.5
at dt = 0.01; at the initial node the transformed field is evaluated at t_1.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .cost import running_weight
from .errors import DomainError, SweepAbort
from .expansion import moment_factors
from .grid import TimeGrid
from .problem import HJBProblem

__all__ = [
    "GridPlan",
    "NodeTable",
    "node_hamiltonian",
    "minimize_node_hamiltonian",
    "minimize_scalar",
    "first_failing_node",
    "aggregate_error",
]

_COORD_TOL = 1e-10
_COORD_SWEEPS = 60
_SQRT_EPS = math.sqrt(2.2e-16)
_CBRT_EPS = 2.2e-16 ** (1.0 / 3.0)
_MAX_EVALS = 500
_FLOAT = np.dtype(float)


def _running_cost(prob: HJBProblem, t: float) -> list:
    """The weights w_j(t) of the weighted running cost sum_j w_j g_j, one
    per running term."""
    return [running_weight(term.v, t, prob.tf)
            for term in prob.index.running_terms]


class GridPlan:
    """The factors of a sweep evaluation that depend on the grid alone,
    read-only, for prob's field on grid.  Per node: t_run and t_field
    (the times of the running weights and of the field, with the
    endpoint substitutions), the running weights at t_run (one column
    per running term) and the field's denominator at t_field.  Per step:
    the moment step's decay and fac (expansion.moment_factors).  And
    forms, (running, rhs): the unchecked node forms of the running
    operands, one per running term, and the rhs's, each paired with the
    columns of the field it fills."""

    def __init__(self, prob: HJBProblem, grid: TimeGrid):
        if prob.field is None:
            raise DomainError("problem carries no transformed field")
        self.prob = prob
        self.grid = grid
        times = grid.times()
        self.t_run = np.append(times[:-1], times[-2])
        self.t_field = np.append(times[1], times[1:])
        self.weights = np.reshape(
            [_running_cost(prob, t) for t in self.t_run.tolist()],
            (grid.n_nodes, len(prob.index.running_terms)))
        self.denominator = prob.field.denominator(self.t_field)
        self.decay, self.fac = moment_factors(
            grid, prob.field.coeffs[0].p_max - 1)
        n = prob.plant.n_states
        self.forms = (tuple(form for term in prob.index.running_terms
                            for form in term.running.nodes.forms(n)),
                      prob.plant.rhs.nodes.forms(n))
        for arr in (self.t_run, self.t_field, self.weights):
            arr.flags.writeable = False


class NodeTable:
    """The record of one sweep evaluation, one row per grid node: the
    plan's t_run, t_field, running weights and denominators, the state x
    and the memory correction of the transformed field at the node's
    state and moments, which the forward sweep (or the audit) writes row
    by row, v_x and h, which the backward sweep stores (None before it):
    the costate and the Hamiltonian at the sweep's own control, and v,
    the cost-to-go from each node (cost.cost_to_go, v[-1] the terminal
    value), which solve and audit_residuals store on their final table
    alone (None on every other).  forms are the plan's.

    H at row k is sum_j weights[k, j] g_j(t_run[k], x[k], u)
    + V_x . (rhs(t_field[k], x[k], u) - correction[k]) / denominator[k].
    """

    def __init__(self, plan: GridPlan):
        self.prob, self.grid = plan.prob, plan.grid
        self.t_run, self.t_field = plan.t_run, plan.t_field
        self.weights, self.denominator = plan.weights, plan.denominator
        self.forms = plan.forms
        self.x = np.empty((len(self), plan.prob.plant.n_states))
        self.correction = np.empty_like(self.x)
        self.v = self.v_x = self.h = None

    def __len__(self) -> int:
        return self.t_run.shape[0]

    def __repr__(self) -> str:
        return f"NodeTable(grid={self.grid!r}, nodes={len(self)})"

    def __getitem__(self, rows: slice) -> "NodeTable":
        """The table of the rows in the slice rows (views, not copies)."""
        if rows == slice(None):
            return self
        part = object.__new__(NodeTable)
        part.prob, part.grid, part.forms = self.prob, self.grid, self.forms
        for name in ("t_run", "t_field", "x", "weights", "correction",
                     "denominator"):
            setattr(part, name, getattr(self, name)[rows])
        return part


def _all_finite(values: np.ndarray) -> bool:
    # a finite sum has finite terms; finite terms may overflow it (call
    # under np.errstate: the sum's overflow is no error)
    return math.isfinite(values.sum()) or bool(np.isfinite(values).all())


def _unchecked_hamiltonian(table: NodeTable, u: np.ndarray,
                           v_x: np.ndarray) -> np.ndarray:
    """node_hamiltonian on the table's node forms, each called once on
    the columns of every row, with no check: nan or inf where an
    evaluator fails.  The same operations as the scalar evaluators node
    by node, sum_j w_j g_j from 0.0 and the row product of V_x with
    (rhs - correction) / denominator, so the same bits."""
    running, rhs = table.forms
    args = (table.t_run, *table.x.T, *u.T)
    h = 0.0
    for w, g in zip(table.weights.T, running):
        h += w * g(*args)
    args = (table.t_field, *args[1:])
    field = np.empty(table.x.shape)
    for columns, f in rhs:
        field[:, columns] = f(*args)
    field -= table.correction
    field /= table.denominator
    return h + (v_x[:, None, :] @ field[:, :, None])[:, 0, 0]


def _replay_rows(table: NodeTable, u: np.ndarray, h: np.ndarray) -> None:
    """Evaluate each row where h is not finite again, lowest first, by
    the scalar evaluators, each running operand and then the rhs, with
    the times as Python floats: the first that fails raises."""
    terms, rhs = table.prob.index.running_terms, table.prob.plant.rhs
    for k in np.flatnonzero(~np.isfinite(h)).tolist():
        for term in terms:
            term.running(float(table.t_run[k]), table.x[k], u[k])
        rhs(float(table.t_field[k]), table.x[k], u[k])


def node_hamiltonian(table: NodeTable, u, v_x: np.ndarray) -> np.ndarray:
    """Weighted running cost plus V_x . field at every row of a node
    table, for controls u and costates v_x with one row per node (u may
    also be one control vector, or anything that broadcasts to the rows).
    V_x . field is the matrix product of each row, as np.dot takes it.

    H is evaluated once, on the table's node forms
    (_unchecked_hamiltonian).  A non-finite H is located by the scalar
    evaluators (_replay_rows), which raise the abort node-by-node
    evaluation raises; one that none of them fails at is returned."""
    shape = (len(table), table.prob.plant.n_controls)
    if not (type(u) is np.ndarray and u.dtype == _FLOAT
            and u.shape == shape):
        u = np.broadcast_to(np.asarray(u, dtype=float), shape)
    with np.errstate(all="ignore"):
        h = _unchecked_hamiltonian(table, u, v_x)
        if not _all_finite(h):
            _replay_rows(table, u, h)
    return h


def _newton_round(func: Callable[[np.ndarray], np.ndarray], u, h, lo, hi):
    """One round of the search from u with step h, one row per search:
    (c, s, (func(c), func(c + s), func(c - s)), the vertex of their
    parabola clipped to [lo, hi]), the vertex nan where the parabola does
    not curve upward.  The probes are in the box: s is h cut to u's
    distance from the box ends (at most half the box where u is on one),
    and c is u moved off a box end it is on."""
    s = np.minimum(h, np.minimum(u - lo, hi - u))
    s = np.where(s > 0.0, s, np.minimum(h, 0.5 * (hi - lo)))
    c = np.minimum(np.maximum(u, lo + s), hi - s)
    h0, hp, hm = func(c), func(c + s), func(c - s)
    curv = (hp + hm - 2.0 * h0) / (2.0 * s * s)
    slope = (hp - hm) / (2.0 * s)
    new = np.minimum(np.maximum(c - slope / (2.0 * curv), lo), hi)
    return c, s, (h0, hp, hm), np.where(curv > 0.0, new, np.nan)


def minimize_scalar(func: Callable[[np.ndarray], np.ndarray], lo, hi,
                    xatol, start=None) -> np.ndarray:
    """Minimizers of func over [lo, hi] by a bracketed Newton search, one
    search per row, from start (the middle of the box if None).

    Each round probes func at c and c +- h inside the box
    (_newton_round: h is cut to u's distance from the box ends, and c is
    u, moved off a box end u is on), narrows the
    bracket [a, b] by those probes as Brent's search does (_narrow), and
    steps to the probes' vertex, clipped to the box (projected Newton),
    or to the middle of the bracket where the vertex is not in it.  h
    starts at the quadratic rule's max(1, 1e-3 (hi - lo)), at most half
    the box, then follows half the step down to cbrt(eps) (1 + |start|).
    A row stops when h is that low and its step is within xatol plus a
    relative sqrt(eps), Brent's tolerance, or after 500 evaluations; it
    returns its best probe, or the better box end (the one of lower
    value) where that is no higher or the best probe is within Brent's
    tolerance of it: a minimizer at a bound is returned as that bound
    exactly.  lo, hi, xatol and start are per row (or one for every row);
    func maps one point per row to one value per row, and evaluates a
    row whose search has stopped at its last c.
    """
    lo, hi = np.broadcast_arrays(np.array(lo, dtype=float, ndmin=1),
                                 np.array(hi, dtype=float, ndmin=1))
    a, b = lo.copy(), hi.copy()
    u = np.array(np.broadcast_to(0.5 * (a + b) if start is None else start,
                                 a.shape), dtype=float)
    c = u.copy()
    h = np.minimum(np.maximum(1.0, 1e-3 * (hi - lo)), 0.5 * (hi - lo))
    floor = np.minimum(_CBRT_EPS * (1.0 + np.abs(u)), h)
    active, f_best = hi - lo > _SQRT_EPS * np.abs(u) + xatol, None
    with np.errstate(all="ignore"):
        for _ in range((_MAX_EVALS - 2) // 3):
            c, hu, (fc, fp, fm), x = _newton_round(
                func, np.where(active, u, c), np.where(active, h, 0.0), lo, hi)
            if f_best is None:
                best, f_best = c.copy(), fc.copy()
            for point, value in ((c, fc), (c + hu, fp), (c - hu, fm)):
                _narrow(a, b, best, f_best, point, value)
            # a vertex off the bracket by rounding alone is clipped to it
            tol = _SQRT_EPS * np.abs(u) + xatol
            np.copyto(x, np.where((a - tol <= x) & (x <= b + tol),
                                  np.minimum(np.maximum(x, a), b),
                                  0.5 * (a + b)))
            step = np.abs(x - u)
            # (a wide parabola misplaces a non-quadratic vertex by O(h^2))
            active &= (step > tol) | (h > floor)
            if not active.any():
                break
            h = np.minimum(np.minimum(h, np.maximum(0.5 * step, floor)),
                           0.5 * (b - a))
            np.copyto(u, x, where=active)
        f_lo, f_hi = func(lo), func(hi)
    end = np.where(f_lo <= f_hi, lo, hi)
    at_end = (np.minimum(f_lo, f_hi) <= f_best) \
        | (np.abs(best - end) <= _SQRT_EPS * np.abs(best) + xatol)
    return np.where(at_end, end, best)


def _narrow(a, b, best, f_best, p, fp) -> None:
    """Brent's bracket update, in place, by a probe p with value fp in
    [a, b]: a lower p than best replaces it, and best becomes the end
    beyond it; any other p becomes the end on its side."""
    inside, below = (a <= p) & (p <= b), p < best
    lower = inside & (fp < f_best)
    higher = inside & ~lower
    np.copyto(b, best, where=lower & below)
    np.copyto(a, best, where=lower & ~below)
    np.copyto(best, p, where=lower)
    np.copyto(f_best, fp, where=lower)
    np.copyto(a, p, where=higher & below)
    np.copyto(b, p, where=higher & (p > best))


def _minimize_box(h: Callable[[np.ndarray], np.ndarray], lo: np.ndarray,
                  hi: np.ndarray, quadratic: bool, rows: int = 1):
    """Box-constrained minimizers of a function of the control at rows
    independent rows, by coordinate sweeps from the clipped origin; h
    maps controls (rows, m) to values (rows,).  A degenerate axis is set
    to lo; otherwise the search minimizes along it from the current
    point: with quadratic=True its first round alone (_newton_round, exact
    for H quadratic and separable in u; its probes are placed in the box
    as minimize_scalar's are), else minimize_scalar.  Sweeps
    repeat until a row's iterate stops moving, but one is final in
    quadratic mode and with one control (it has one axis to search).

    A row that needs no probe in a call of h (it has stopped, or is not
    probed at the endpoints) is evaluated at its latest probe, never at
    a control its own minimization would not probe.  A non-finite value
    raises SweepAbort.
    """
    m = lo.shape[0]
    u = np.tile(np.clip(np.zeros(m), lo, hi), (rows, 1))
    latest = u.copy()

    def probe(j, val, live):
        """h at u with column j set to val on the live rows: latest
        takes those rows in place (with one control, column j is u)."""
        if m > 1:
            np.copyto(latest, u, where=live[:, None])
        np.copyto(latest[:, j], val, where=live)
        values = h(latest)
        if not _all_finite(values):
            raise SweepAbort("non-finite Hamiltonian during minimization")
        return values

    moving = np.ones(rows, dtype=bool)
    with np.errstate(all="ignore"):
        for _ in range(_COORD_SWEEPS):
            moved = np.zeros(rows)
            for j in range(m):
                if hi[j] - lo[j] <= _COORD_TOL:
                    new = np.full(rows, lo[j])
                elif quadratic:
                    *_, new = _newton_round(
                        lambda val, j=j: probe(j, val, moving), u[:, j],
                        max(1.0, 1e-3 * (hi[j] - lo[j])), lo[j], hi[j])
                    flat = np.isnan(new)
                    if flat.any():   # no vertex: the better end
                        at_lo = probe(j, lo[j], flat)
                        lower = at_lo <= probe(j, hi[j], flat)
                        new[flat] = np.where(lower, lo[j], hi[j])[flat]
                else:
                    # a row that has stopped gets the one-point bracket
                    # of its control, which ends its search at once
                    new = minimize_scalar(
                        lambda val, j=j: probe(j, val, moving),
                        np.where(moving, lo[j], u[:, j]),
                        np.where(moving, hi[j], u[:, j]), _COORD_TOL,
                        u[:, j])
                new = np.where(moving, new, u[:, j])
                moved = np.maximum(moved, np.abs(new - u[:, j]))
                u[:, j] = new
            moving &= moved > _COORD_TOL
            if quadratic or m == 1 or not moving.any():
                break
    return u


def minimize_node_hamiltonian(table: NodeTable, v_x: np.ndarray) -> np.ndarray:
    """Minimizers of the Hamiltonian at every row of a node table over
    its problem's control box, one row per node, for costates v_x (H is
    not evaluated at them here)."""
    def minimize(rows):
        part, v_rows = table[rows], v_x[rows]
        return _minimize_box(
            lambda u: node_hamiltonian(part, u, v_rows),
            part.prob.u_lower, part.prob.u_upper,
            part.prob.quadratic_control, len(part))
    return first_failing_node(minimize, len(table))


def first_failing_node(stage: Callable, n: int):
    """stage(rows) for every node at once (rows a slice of the node
    table's rows).  If that aborts, stage runs on each node alone, first
    to last, so that the abort raised is that of the first node that
    fails alone: the one node-by-node evaluation raised, although the
    nodes' evaluations are interleaved when batched.  The batched abort
    is raised again if no node fails alone."""
    try:
        return stage(slice(None))
    except SweepAbort:
        for k in range(n):
            stage(slice(k, k + 1))
        raise


def aggregate_error(residuals: np.ndarray) -> float:
    """Root-sum-square of the per-node residuals: a run's Error,
    ||H(u*) - H(u)||_2 over the grid nodes."""
    r = np.asarray(residuals, dtype=float)
    return float(np.sqrt(np.sum(r * r)))
