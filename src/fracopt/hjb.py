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
The Hamiltonian is then evaluated over all rows at once
(node_hamiltonian), and so is every probe of its minimizer: the quadratic
rule's three probes and vertex, or Brent's bounded search, one search per
row, each round of which probes every row once.  A row is never evaluated
at a control its own minimization would not probe: a row that the
quadratic rule does not probe at the endpoints is evaluated again at its
latest probe, and a row whose bounded search has stopped at its best
point.  A batched stage that aborts runs again node by node
(first_failing_node), so that the abort names the node that node-by-node
evaluation named.  A Hamiltonian is evaluated unchecked, and only a
non-finite one is evaluated again by the checked path that names the
failing expression, or raises what a Python callable raises.  The
minimizer aborts on a non-finite H that its probe still returns (an
overflow, with every expression finite).
The table is the one record of the evaluation: the backward sweep stores
its costate and Hamiltonian on it too, and a solve stores the
cost-to-go on its final table.

The cost of a batch is call overhead, not row count.  On
perfbench/lq_bounded.yaml (101 nodes, about 29 rounds of the bounded
search per evaluation) a Hamiltonian probe costs about 20 us, and a round
of the search's own logic in lockstep about 90 numpy calls, 55-60 us,
however few rows still search; a row that searches alone in plain floats
costs 1-1.5 us a round.  So the searches run in lockstep while more than
_HANDOVER_ROWS = 40 rows search, and the rows left go on alone (a shared
2-core x86-64 machine, numpy 2.4).  On lq_bounded.yaml about 80 of the
101 rows stop within 9 rounds and about 20 search to the last rounds,
which the rows alone take at about half the cost.

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
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_SQRT_EPS = math.sqrt(2.2e-16)
_MAX_EVALS = 500
#: minimize_scalar runs its searches in lockstep while more rows than
#: this search: a lockstep round costs 55-60 us however few rows still
#: search, a row searching alone 1-1.5 us a round
_HANDOVER_ROWS = 40
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
    state and moments, which freeze fills one row at a time, v_x and h,
    which the backward sweep stores (None before it): the costate and
    the Hamiltonian at the sweep's own control, and v, the cost-to-go
    from each node (cost.cost_to_go, v[-1] the terminal value), which
    solve and audit_residuals store on their final table alone (None on
    every other).  forms are the plan's.

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

    def freeze(self, k: int, x: np.ndarray, m_node: np.ndarray) -> None:
        """Freeze grid node k at state x and moments m_node into row k:
        one memory correction, at t_field[k]."""
        self.x[k] = x
        self.correction[k] = self.prob.field.at_state(
            float(self.t_field[k]), x, m_node)

    def running(self, u: np.ndarray) -> np.ndarray:
        """The weighted running cost at every row, for controls u (one
        row per node)."""
        return self.prob.index.weighted_running(self.weights, self.t_run,
                                                self.x, u)

    def field(self, u: np.ndarray) -> np.ndarray:
        """The transformed field at every row, for controls u (one row
        per node)."""
        return (self.prob.plant.rhs.nodes(self.t_field, self.x, u)
                - self.correction) / self.denominator


def _all_finite(values: np.ndarray) -> bool:
    # a finite sum has finite terms; finite terms may overflow it (call
    # under np.errstate: the sum's overflow is no error)
    return math.isfinite(values.sum()) or bool(np.isfinite(values).all())


def _unchecked_hamiltonian(table: NodeTable, u: np.ndarray,
                           v_x: np.ndarray) -> np.ndarray:
    """node_hamiltonian on the table's node forms, each called once on
    the columns of every row, with no check: nan or inf where an
    evaluator fails.  The same operations as NodeTable.running and
    NodeTable.field, so the same bits."""
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


def node_hamiltonian(table: NodeTable, u, v_x: np.ndarray) -> np.ndarray:
    """Weighted running cost plus V_x . field at every row of a node
    table, for controls u and costates v_x with one row per node (u may
    also be one control vector, or anything that broadcasts to the rows).
    V_x . field is the matrix product of each row, as np.dot takes it.

    Batched first, checked on failure: H is evaluated unchecked on the
    table's node forms (_unchecked_hamiltonian) and checked once.  Only
    a non-finite H takes the checked path, whose evaluators name a
    failing expression or raise what a Python callable raises, and
    whose abort names the first node that fails (first_failing_node);
    it returns the same bits."""
    shape = (len(table), table.prob.plant.n_controls)
    if not (type(u) is np.ndarray and u.dtype == _FLOAT
            and u.shape == shape):
        u = np.broadcast_to(np.asarray(u, dtype=float), shape)
    with np.errstate(all="ignore"):
        h = _unchecked_hamiltonian(table, u, v_x)
        if _all_finite(h):
            return h

        def hamiltonian(rows):
            part, u_rows, v_rows = table[rows], u[rows], v_x[rows]
            return part.running(u_rows) + (
                v_rows[:, None, :] @ part.field(u_rows)[:, :, None])[:, 0, 0]
        return first_failing_node(hamiltonian, len(table))


def _parabola_min(axis: Callable, c: np.ndarray, lo: float,
                  hi: float) -> np.ndarray:
    """Minimizers over [lo, hi] of a function quadratic along one axis,
    one per row, from probes at c and c +- step: the parabola's vertex
    clipped to the interval where it curves upward, otherwise the better
    endpoint, probed on those rows only.  axis(val, live) evaluates the
    rows live at val."""
    every = np.ones(c.shape[0], dtype=bool)
    step = max(1.0, 1e-3 * (hi - lo))
    h0, hp, hm = axis(c, every), axis(c + step, every), axis(c - step, every)
    curv = (hp + hm - 2.0 * h0) / (2.0 * step * step)
    slope = (hp - hm) / (2.0 * step)
    new = np.minimum(np.maximum(c - slope / (2.0 * curv), lo), hi)
    flat = ~(curv > 0.0)
    if flat.any():
        # no interior minimum along this axis: best endpoint
        at_lo, at_hi = axis(lo, flat), axis(hi, flat)
        new = np.where(flat, np.where(at_lo <= at_hi, lo, hi), new)
    return new


def minimize_scalar(func: Callable[[np.ndarray], np.ndarray], lo, hi,
                    xatol) -> np.ndarray:
    """Minimizers of func over [lo, hi] by Brent's bounded search, one
    search per row: golden sections and parabolic steps until the
    bracket is within xatol (plus a relative sqrt(eps)) of the best
    point, or after 500 evaluations.

    lo, hi and xatol are per row (or one value for every row), and func
    maps one point per row to one value per row.  Each round evaluates
    every row once: a row whose search has stopped is evaluated again at
    its best point.  Each row's minimizer is that of scipy's
    minimize_scalar(method="bounded") on that row alone, bit for bit.

    While more than _HANDOVER_ROWS rows search, the searches run in
    lockstep, their state updated in place under masks over every row: a
    stopped row's bracket and second and third points may change, but
    never its best point, the one output, and it never resumes.  A
    lockstep round is about 90 numpy calls, 55-60 us on 101 rows, however
    few rows still search.  Once _HANDOVER_ROWS or fewer do, each goes on
    from the state the lockstep left as a plain-float search of its own
    (_bounded_search), 1-1.5 us a row a round; a round is still one func
    call over every row.
    """
    lo, hi = np.broadcast_arrays(np.array(lo, dtype=float, ndmin=1),
                                 np.array(hi, dtype=float, ndmin=1))
    # bracket = [a, b] brackets the minimum; points[i] is the best
    # (xf, fx), second best (nfc, fnfc) and third best (fulc, ffulc)
    # point so far with its value, and trial the latest probe (x, fu)
    bracket = np.stack([lo, hi])
    a, b = bracket
    points = np.empty((3,) + bracket.shape)
    (xf, fx), (nfc, fnfc), (fulc, ffulc) = points
    trial = np.empty_like(bracket)
    x, fu = trial
    points[:, 0] = a + _GOLDEN * (b - a)
    points[:, 1] = func(xf)
    num = 1
    rat = e = np.zeros_like(xf)
    xatol_3 = xatol / 3.0
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * np.abs(xf) + xatol_3
    tol2 = 2.0 * tol1
    active = np.abs(xf - xm) > tol2 - 0.5 * (b - a)
    with np.errstate(all="ignore"):
        while np.count_nonzero(active) > _HANDOVER_ROWS:
            # parabola through the three best points, where the step
            # before last was longer than tol1
            to_nfc, to_fulc = xf - nfc, xf - fulc
            r = to_nfc * (fx - ffulc)
            q = to_fulc * (fx - fnfc)
            p = to_fulc * q - to_nfc * r
            q = 2.0 * (q - r)
            np.negative(p, out=p, where=q > 0.0)
            np.abs(q, out=q)
            to_ends = bracket - xf          # a - xf, b - xf
            q_ends = q * to_ends
            parabolic = ((np.abs(e) > tol1) & (np.abs(p) < np.abs(0.5 * q * e))
                         & (q_ends[0] < p) & (p < q_ends[1]))
            step = p / q
            x_par = xf + step
            near_end = (x_par - a < tol2) | (b - x_par < tol2)
            np.copyto(step, tol1, where=near_end)
            np.negative(step, out=step, where=near_end & (xm < xf))
            # otherwise a golden section of the larger part
            e_new = np.where(xf >= xm, to_ends[0], to_ends[1])
            rat_new = _GOLDEN * e_new
            np.copyto(e_new, rat, where=parabolic)
            np.copyto(rat_new, step, where=parabolic)
            e, rat = e_new, rat_new
            # a step of at least tol1; a stopped row stays at xf
            np.maximum(np.abs(rat), tol1, out=x)
            np.negative(x, out=x, where=rat < 0)
            x += xf
            np.copyto(x, xf, where=~active)
            fu[...] = func(x)
            num += 1
            improved = fu <= fx
            # a better x moves the end opposite it to xf, a worse x
            # becomes the end on its side
            end = np.where(improved, xf, x)
            lower = improved == (x >= xf)
            np.copyto(a, end, where=lower)
            np.copyto(b, end, where=~lower)
            worse = ~improved
            second = worse & ((fu <= fnfc) | (nfc == xf))
            third = worse & ~second & ((fu <= ffulc) | (fulc == xf)
                                       | (fulc == nfc))
            np.copyto(points[2], points[1], where=improved | second)
            np.copyto(points[2], trial, where=third)
            np.copyto(points[1], points[0], where=improved)
            np.copyto(points[1], trial, where=second)
            np.copyto(points[0], trial, where=improved)
            xm = 0.5 * (a + b)
            tol1 = _SQRT_EPS * np.abs(xf) + xatol_3
            tol2 = 2.0 * tol1
            if num >= _MAX_EVALS:
                return xf
            active &= np.abs(xf - xm) > tol2 - 0.5 * (b - a)
        # the rows still searching go on alone, one func call a round
        rows = np.flatnonzero(active).tolist()
        state = np.vstack([bracket, points.reshape(6, -1), e, rat,
                           np.broadcast_to(xatol_3, xf.shape)])
        searches = {k: _bounded_search(*row, num)
                    for k, row in zip(rows, state[:, rows].T.tolist())}
        x[...] = xf
        for k, search in searches.items():
            x[k] = next(search)
        while searches:
            rows = list(searches)
            for k, fu in zip(rows, func(x)[rows].tolist()):
                try:
                    x[k] = searches[k].send(fu)
                except StopIteration as stop:
                    x[k] = xf[k] = stop.value
                    del searches[k]
    return xf


def _bounded_search(a, b, xf, fx, nfc, fnfc, fulc, ffulc, e, rat, xatol_3,
                    num):
    """The rest of one row's bounded search from its state, in plain
    floats: scipy's _minimize_scalar_bounded loop, which yields each
    probe x, is sent func(x) and returns the best point."""
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol_3
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
            e = (a if xf >= xm else b) - xf
            rat = _GOLDEN * e
        step = max(abs(rat), tol1)
        x = xf - step if rat < 0 else xf + step
        fu = yield x
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc, nfc, fnfc, xf, fx = nfc, fnfc, xf, fx, x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc, nfc, fnfc = nfc, fnfc, x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol_3
        tol2 = 2.0 * tol1
        if num >= _MAX_EVALS:
            break
    return xf


def _minimize_box(h: Callable[[np.ndarray], np.ndarray], lo: np.ndarray,
                  hi: np.ndarray, quadratic: bool, rows: int = 1):
    """Box-constrained minimizers of a function of the control at rows
    independent rows, by coordinate sweeps from the clipped origin; h
    maps controls (rows, m) to values (rows,).  A degenerate axis is set
    to lo; otherwise _parabola_min (quadratic=True: exact for
    Hamiltonians quadratic and separable in the control) or the bounded
    scalar search minimizes along it.  Sweeps repeat until a row's
    iterate stops moving, but one is final in quadratic mode and with one
    control (the bounded search ignores its start point, so a second
    sweep would repeat it).

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
                    new = _parabola_min(
                        lambda val, live, j=j: probe(j, val, live),
                        u[:, j], lo[j], hi[j])
                else:
                    # a row that has stopped gets the one-point bracket
                    # of its control, which ends its search at once
                    new = minimize_scalar(
                        lambda val, j=j: probe(j, val, moving),
                        np.where(moving, lo[j], u[:, j]),
                        np.where(moving, hi[j], u[:, j]), _COORD_TOL)
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
