import math

import numpy as np
import pytest
import scipy.optimize as sopt
import scipy.special as sps
from hypothesis import given, settings
from hypothesis import strategies as st

import fracopt as fo
from fracopt import (SweepAbort, aggregate_error, gamma,
                     minimize_node_hamiltonian, node_hamiltonian,
                     running_weight)
from fracopt import hjb
from fracopt.config import build_problem, load_raw
from fracopt.hjb import _minimize_box
from fracopt.sweep import audit_residuals

from conftest import (EXAMPLE_FILE, as_python_callables, frozen_table,
                      moment_trajectory, two_state_config,
                      two_state_problem)


def small_field_problem():
    prob = two_state_problem()
    return prob.with_field(10 ** 5, 10 ** 5, 40)


def stored_residuals(prob, st, u):
    """Residuals at every node: the Hamiltonian at the stored data minus
    the sweep's own Hamiltonian h."""
    table = frozen_table(prob, st.grid, st.x,
                         moment_trajectory(st.grid, 40, st.x))
    return node_hamiltonian(table, u, st.value.v_x) - st.value.h


def random_table(prob, grid, rng, m_scale=0.0):
    """A node table whose rows are frozen at random states (and random
    moments of size m_scale)."""
    n, nx = grid.n_nodes, prob.plant.n_states
    p = prob.field.coeffs[0].p_max
    return frozen_table(prob, grid, rng.uniform(-1, 1, (n, nx)),
                        rng.uniform(-m_scale, m_scale, (n, p - 1, nx)))


def rows(f):
    """A scalar function of the control components, applied to each row
    of an array of controls."""
    return lambda u: np.array([f(*row) for row in u.tolist()])


# --------------------------------------------------------- hamiltonian

def test_hamiltonian_zero_cost_zero_costate():
    plant = fo.FractionalPlant(
        orders=(0.5,), rhs=lambda t, x, u: np.array([u[0]]),
        x0=np.zeros(1), n_controls=1)
    pi = fo.PerformanceIndex((fo.CostTerm(v=1.0,
                                          running=lambda t, x, u: 0.0),))
    prob = fo.HJBProblem(plant=plant, index=pi, tf=1.0,
                         u_lower=np.array([-1.0]), u_upper=np.array([1.0]))
    prob = prob.with_field(10, 10, 5)
    # t = 0.5 is the interior node of a two-step grid
    table = frozen_table(prob, fo.TimeGrid(0.0, 1.0, 2), np.zeros((3, 1)),
                         np.zeros((3, 4, 1)))
    h = node_hamiltonian(table, np.full((3, 1), 0.7), np.zeros((3, 1)))
    assert h[1] == pytest.approx(0.0, abs=1e-15)


def test_hamiltonian_matches_independent_transcription():
    # straight-line transcription of the two-state problem's Hamiltonian,
    # at every interior node of one table
    prob = small_field_problem()
    coeffs = prob.field.coeffs
    a_vals = np.array([c.a_val for c in coeffs])
    b_vals = np.array([c.b_val for c in coeffs])
    grid = fo.TimeGrid(0.0, 1.0, 100)
    rng = np.random.default_rng(7)
    table = random_table(prob, grid, rng)
    lams = rng.uniform(-1, 1, (101, 2))
    us = rng.uniform(-2, 2, (101, 1))
    got = node_hamiltonian(table, us, lams)
    for k in range(1, 100):
        t, x, lam, u = grid.node(k), table.x[k], lams[k], us[k]
        w1 = (1 - t) ** (0.3 - 1) / gamma(0.3)
        w2 = (1 - t) ** (0.4 - 1) / gamma(0.4)
        k1 = (-1.0 / gamma(0.8) + a_vals[0] * x[0]) * t ** (-0.2)
        k2 = (-0.5 / gamma(0.3) + a_vals[1] * x[1]) * t ** (-0.7)
        f1 = (x[1] + u[0] - k1) / (b_vals[0] * t ** 0.8)
        f2 = (-x[0] - k2) / (b_vals[1] * t ** 0.3)
        ref = (w1 * (x[0] ** 2 + x[1] ** 2)
               + w2 * (x[0] ** 2 + u[0] ** 2)
               + lam[0] * f1 + lam[1] * f2)
        assert got[k] == pytest.approx(ref, rel=1e-12)


def test_node_hamiltonian_on_record_equals_from_scratch():
    # the table reproduces, bit for bit, the Hamiltonian computed afresh
    # at each node from the weights, the operands and the full transformed
    # field
    prob = small_field_problem()
    grid = fo.TimeGrid(0.0, 1.0, 100)
    n = grid.n_steps
    rng = np.random.default_rng(11)
    xs = rng.uniform(-1, 1, (n + 1, 2))
    m_nodes = rng.uniform(-2, 2, (n + 1, 39, 2))
    us = rng.uniform(-2, 2, (n + 1, 1))
    lams = rng.uniform(-1, 1, (n + 1, 2))
    table = frozen_table(prob, grid, xs, m_nodes)
    got = node_hamiltonian(table, us, lams)
    for k in (0, 1, 37, n - 1, n):
        x, m_node, u, lam = xs[k], m_nodes[k], us[k], lams[k]
        t_run = grid.node(n - 1) if k == n else grid.node(k)
        t_field = grid.node(1) if k == 0 else grid.node(k)
        total = 0.0
        for term in prob.index.running_terms:
            total += running_weight(term.v, t_run, prob.tf) \
                * term.running(t_run, x, u)
        ref = total + float(np.dot(lam, prob.field(t_field, x, m_node, u)))
        assert (table.t_run[k], table.t_field[k]) == (t_run, t_field)
        assert got[k] == ref


def test_node_hamiltonian_takes_any_control_form():
    prob = small_field_problem()
    grid = fo.TimeGrid(0.0, 1.0, 100)
    rng = np.random.default_rng(12)
    table = random_table(prob, grid, rng, m_scale=2.0)
    lam = rng.uniform(-1, 1, (101, 2))
    want = node_hamiltonian(table, np.full((101, 1), 3.0), lam)
    for u in (3.0, 3, [3.0], np.array([3]), np.array(3.0)):
        assert np.array_equal(node_hamiltonian(table, u, lam), want)


@pytest.mark.parametrize("operand", ["x1**2 + u1**2",
                                     "sqrt(x2**2 + 1) * u1**1.5 - x1/3"])
def test_node_arrays_give_the_scalar_bits_of_a_problem_file(operand):
    # the compiled node-array forms (numpy, float_power, np.dot's row
    # products) against the scalar forms called node by node
    doc = load_raw(EXAMPLE_FILE)
    doc["cost"]["terms"][1]["operand"] = operand
    prob = build_problem(doc).problem.with_field(10 ** 5, 10 ** 5, 40)
    grid = fo.TimeGrid(0.0, 1.0, 100)
    rng = np.random.default_rng(13)
    table = random_table(prob, grid, rng, m_scale=2.0)
    us = rng.uniform(0.0, 2.0, (101, 1))
    lams = rng.uniform(-1, 1, (101, 2))
    ref = [sum(w * term.running(table.t_run[k], table.x[k], us[k])
               for w, term in zip(table.weights[k].tolist(),
                                  prob.index.running_terms))
           + float(np.dot(lams[k], (prob.plant.rhs(
               table.t_field[k], table.x[k], us[k]) - table.correction[k])
               / table.denominator[k]))
           for k in range(101)]
    assert node_hamiltonian(table, us, lams).tolist() == ref
    grad = prob.index.running_gradient(table.weights, table.t_run,
                                       table.x, us)
    jac = prob.plant.rhs_x(table.t_field, table.x, us)
    for k in range(101):
        assert grad[k].tolist() == sum(
            w * np.array(term.gradient(table.t_run[k], table.x[k], us[k]))
            for w, term in zip(table.weights[k].tolist(),
                               prob.index.running_terms)).tolist()
        assert np.array_equal(jac[k], prob.plant.rhs_jacobian(
            table.t_field[k], table.x[k], us[k]))


@pytest.mark.parametrize("operand, dynamics, rounds_apart", [
    ("x1**2 + u1**2", "-x1", False),
    ("2.5", "0.25", False),
    ("t*u1", "-x1 + t", False),
    ("exp(x2)*u1 - log(1 + x1**2)", "sin(x1)*u1", True),
], ids=["polynomial", "constants", "time", "transcendental"])
def test_unchecked_hamiltonian_has_the_bits_of_the_checked_path(
        operand, dynamics, rounds_apart):
    # a problem file's Hamiltonian is evaluated on its compiled forms,
    # unchecked; the scalar evaluators called node by node, which locate
    # a non-finite H, give the same bytes, also where a form reads no
    # variable and returns a float.  Not where the forms call numpy's
    # exp, log or sin, which may round a last bit otherwise than math's
    # (README): there H agrees to 1e-14.  The evaluators behind plain
    # lambdas, on the unchecked forms of Python callables (one row loop
    # per operand and one for the rhs), call the scalar forms themselves
    # and give their bytes
    doc = load_raw(EXAMPLE_FILE)
    doc["cost"]["terms"][1]["operand"] = operand
    doc["plant"]["dynamics"][1] = dynamics
    parsed = build_problem(doc).problem
    grid = fo.TimeGrid(0.0, 1.0, 100)
    for prob in (parsed, as_python_callables(parsed)):
        rng = np.random.default_rng(14)
        table = random_table(prob.with_field(10 ** 5, 10 ** 5, 40), grid,
                             rng, m_scale=2.0)
        assert table.forms is not None
        us = rng.uniform(-2.0, 2.0, (101, 1))
        lams = rng.uniform(-1, 1, (101, 2))
        scalar = [sum(w * term.running(table.t_run[k], table.x[k], us[k])
                      for w, term in zip(table.weights[k].tolist(),
                                         prob.index.running_terms))
                  + float(np.dot(lams[k], (prob.plant.rhs(
                      table.t_field[k], table.x[k], us[k])
                      - table.correction[k]) / table.denominator[k]))
                  for k in range(101)]
        got = node_hamiltonian(table, us, lams)
        if rounds_apart and prob is parsed:
            assert got.tolist() == pytest.approx(scalar, rel=1e-14, abs=0)
        else:
            assert got.tobytes() == np.array(scalar).tobytes()


@pytest.mark.parametrize("n_states, shape", [(None, (5,)), (2, (5, 2))])
def test_python_callable_forms_give_nan_where_nodes_raise(n_states, shape):
    # unchecked: nan at every row when the callable raises at one, so the
    # Hamiltonian replays its rows, which calls the callable to raise it
    def fn(t, x, u):
        if t == 3.0:
            raise ZeroDivisionError("at t = 3")
        return x * u[0] if n_states else x[0] * u[0]
    wrapped = fo.expansion.as_evaluator(fn, n_states)
    t, x, u = np.arange(5.0), np.ones((5, 2)), np.full((5, 1), 2.0)
    form, = wrapped.nodes.forms(2)
    if n_states:    # paired with the columns it fills, every one
        columns, form = form
        assert columns == slice(None)
    values = form(t, *x.T, *u.T)
    assert values.shape == shape and np.isnan(values).all()
    with pytest.raises(ZeroDivisionError, match="^at t = 3$"):
        wrapped.nodes(t, x, u)
    values = form(t[:3], *x[:3].T, *u[:3].T)
    assert values.tolist() == wrapped.nodes(t[:3], x[:3], u[:3]).tolist()
    assert np.all(values == 2.0)


def _replay_problems(dynamics=None, operand=None):
    """problems/example.yaml with its first dynamics expression and its
    second running operand replaced where given, and its
    as_python_callables twin, each with a light transformed field."""
    doc = load_raw(EXAMPLE_FILE)
    if dynamics is not None:
        doc["plant"]["dynamics"][0] = dynamics
    if operand is not None:
        doc["cost"]["terms"][1]["operand"] = operand
    parsed = build_problem(doc).problem
    return [prob.with_field(10 ** 5, 10 ** 5, 40)
            for prob in (parsed, as_python_callables(parsed))]


@pytest.mark.parametrize("operand, failing", [
    ("x1**2 + u1**2 + sqrt(0.605 - t)", "dynamics"),
    ("x1**2 + u1**2 + log(0.305 - t)", "operand"),
], ids=["dynamics at a lower node", "both at one node"])
def test_a_non_finite_hamiltonian_names_the_first_row_then_operand(
        operand, failing):
    # the dynamics fail from node 31 (t = 0.31) on; a running operand
    # that fails from node 61 on is not named, one that fails from node
    # 31 on is: each row replays its running operands before the rhs
    dynamics = "x2 + u1 + sqrt(0.305 - t)"
    grid = fo.TimeGrid(0.0, 1.0, 100)
    named = dynamics if failing == "dynamics" else operand
    for prob in _replay_problems(dynamics, operand):
        rng = np.random.default_rng(15)
        table = random_table(prob, grid, rng, m_scale=2.0)
        with pytest.raises(SweepAbort) as info:
            node_hamiltonian(table, rng.uniform(-2.0, 2.0, (101, 1)),
                             rng.uniform(-1, 1, (101, 2)))
        assert str(info.value) == (f"cannot evaluate {named!r} at "
                                   "t = 0.31: math domain error")


def test_an_overflowing_hamiltonian_of_finite_expressions_is_returned():
    # the operand is finite at every node, its weighted value 1e308 w
    # overflows where the weight exceeds 1.797, from node 91 on: H comes
    # back with inf there, and the backward sweep names node 91
    cfg = fo.SweepConfig(dt=0.01, n_a=10 ** 5, n_b=10 ** 5, p_max=40)
    for prob in _replay_problems(operand="1e308 + x1**2"):
        _, nodes = fo.forward_sweep(prob, 0.0, cfg)
        with np.errstate(over="ignore"):
            overflow = np.isinf(nodes.weights[:, 1] * 1e308)
        assert np.flatnonzero(overflow)[0] == 91
        rng = np.random.default_rng(16)
        h = node_hamiltonian(nodes, 0.0, rng.uniform(-1, 1, (101, 2)))
        assert np.flatnonzero(~np.isfinite(h)).tolist() == list(
            range(91, 101))
        with pytest.raises(SweepAbort, match="^non-finite Hamiltonian "
                                             "along the sweep, first at "
                                             "node 91$"):
            fo.backward_sweep(nodes, 0.0, cfg)


# ---------------------------------------------------------- minimizers

def _counting_scalar_search(monkeypatch):
    calls = []
    real = hjb.minimize_scalar

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(hjb, "minimize_scalar", counted)
    return calls


def _scipy_bounded(func, lo, hi, xatol=1e-10):
    return sopt.minimize_scalar(func, bounds=(lo, hi), method="bounded",
                                options={"xatol": xatol}).x


def _one_node_search(f, lo, hi, xatol=1e-10, start=None):
    """hjb.minimize_scalar as a search of one node, f a scalar function."""
    return hjb.minimize_scalar(lambda v: np.array([f(float(v[0]))]),
                               lo, hi, xatol, start)[0]


def _tol(x, xatol=1e-10):
    """The searches' own tolerance at x: xatol plus a relative sqrt(eps)."""
    return math.sqrt(2.2e-16) * abs(x) + xatol


@settings(max_examples=200, deadline=None)
@given(c=st.lists(st.floats(0.01, 3), min_size=4, max_size=4),
       lo=st.floats(-10, 10), width=st.floats(1e-6, 20))
def test_scalar_search_matches_scipy_bounded(c, lo, width):
    # a smooth convex function, its minimum inside the box or beyond
    # either end: the search, like scipy's bounded search, finds the
    # minimizer (the root of the slope by brentq, or the bound it
    # passes) to its tolerance or to where rounding hides the difference
    centre, scale = 10.0 * (c[1] - 1.5), c[3] / 10.0

    def f(v):
        return c[0] * (v - centre) ** 2 + c[2] * math.exp(scale * v)

    def slope(v):
        return 2.0 * c[0] * (v - centre) + c[2] * scale * math.exp(scale * v)

    hi = lo + width
    if slope(lo) >= 0.0:
        best = lo
    elif slope(hi) <= 0.0:
        best = hi
    else:
        best = sopt.brentq(slope, lo, hi, xtol=1e-15, rtol=1e-15)
    def near(v, tolerances):
        # within the tolerances, or as low as rounding can tell
        return (abs(v - best) <= tolerances * _tol(best)
                or f(v) - f(best) <= 4.0 * 2.2e-16 * abs(f(best)))

    assert near(_one_node_search(f, lo, hi), 1.0)
    # scipy's search stops up to two of its tolerances short of a bound
    assert near(_scipy_bounded(f, lo, hi), 2.0)


@settings(max_examples=100, deadline=None)
@given(tilt=st.floats(-0.5, 0.5), lo=st.floats(-3, -0.1),
       hi=st.floats(0.1, 3), start=st.floats(-1, 1))
def test_scalar_search_with_two_local_minima(tilt, lo, hi, start):
    # (v^2 - 1)^2 + tilt v has a local minimum near -1 and one near 1: the
    # result is a local minimizer (or a box end) no worse than either
    # box end
    def f(v):
        return (v * v - 1.0) ** 2 + tilt * v

    def slope(v):
        return 4.0 * v * (v * v - 1.0) + tilt

    start = min(max(start, lo), hi)
    x = _one_node_search(f, lo, hi, start=start)
    assert f(x) <= min(f(lo), f(hi))
    assert x in (lo, hi) or (abs(slope(x)) < 1e-6
                             and 12.0 * x * x - 4.0 > 0.0)


def test_scalar_search_minimum_at_a_bound():
    # increasing on the box: the search lands on lo exactly
    assert _one_node_search(math.exp, -1.0, 2.0) == -1.0


def test_scalar_search_bisects_to_a_cusp():
    # sqrt|v| has no vertex: its parabolas curve downward, so the search
    # bisects its bracket down to the cusp at 0
    calls = []

    def f(v):
        calls.append(v)
        return math.sqrt(abs(v))

    x = _one_node_search(f, -1.0, 1.5)
    assert abs(x) <= 2.0 * _tol(0.0)
    assert len(calls) < 200


def test_scalar_search_stops_at_the_evaluation_cap():
    # with a negative xatol no step is within the tolerance, so only the
    # cap of 500 evaluations stops the search; it still returns the best
    # point it probed
    calls = []

    def f(v):
        calls.append(v)
        return (v - 0.3) ** 2

    x = _one_node_search(f, -1.0, 1.5, -1.0)
    assert len(calls) == 500
    assert abs(x - 0.3) < 1e-10


def _node_function(ck):
    return lambda v: (ck[0] * (v - ck[1]) ** 2 + ck[2] * math.sin(ck[3] * v)
                      + 0.01 * ck[4] * v ** 3)


@settings(max_examples=30, deadline=None)
@given(c=st.lists(st.lists(st.floats(-3, 3), min_size=5, max_size=5),
                  min_size=1, max_size=6),
       lo=st.lists(st.floats(-10, 10), min_size=6, max_size=6),
       width=st.lists(st.floats(1e-6, 20), min_size=6, max_size=6))
def test_lockstep_search_equals_one_search_per_node(c, lo, width):
    # nodes with their own functions and brackets stop in different
    # rounds; the last node is the cusp sqrt|v| at a negative xatol,
    # which only the cap of 500 evaluations stops, so the others are
    # evaluated at their last points for many rounds after they stop:
    # each row's result has the bytes of its search alone
    fns = [_node_function(ck) for ck in c] + [lambda v: math.sqrt(abs(v))]
    los = np.array(lo[:len(c)] + [-1.0])
    his = los + np.array(width[:len(c)] + [2.5])
    xatol = np.array([1e-10] * len(c) + [-1.0])
    rounds = []

    def batch(v):
        rounds.append(1)
        return np.array([f(x) for f, x in zip(fns, v.tolist())])

    got = hjb.minimize_scalar(batch, los, his, xatol)
    assert len(rounds) == 500
    for f, a, b, tol, x in zip(fns, los, his, xatol, got):
        assert x.tobytes() == np.float64(
            _one_node_search(f, a, b, tol)).tobytes()


#: one node of a search: the kind of its function, its curvature, where
#: its minimum lies, the box and the tolerance
_SEARCH_ROW = st.tuples(
    st.sampled_from(["quadratic", "quartic", "flat"]),
    st.floats(0.01, 5.0),
    st.sampled_from(["inside", "at lo", "at hi", "near lo", "near hi",
                     "beyond lo", "beyond hi"]),
    st.floats(0.0, 1.0),
    st.floats(-10.0, 10.0),
    st.one_of(st.sampled_from([0.0, 1e-9, 1e-3]), st.floats(0.0, 20.0)),
    st.sampled_from([1e-10, 1e-6, 1e-3]),
)


def _search_row(kind, curvature, where, position, lo, width, xatol):
    """(f, lo, hi, xatol, minimizer) of one node: f a quadratic or quartic
    with its minimum at where, or flat, on the box [lo, lo + width] (one
    point when width is 0), and its minimizer over the box."""
    hi = lo + width
    centre = {"inside": lo + position * width, "at lo": lo, "at hi": hi,
              "near lo": lo + 1e-7, "near hi": hi - 1e-7,
              "beyond lo": lo - 1.0, "beyond hi": hi + 1.0}[where]

    def f(v):
        if kind == "flat":
            return curvature
        square = (v - centre) * (v - centre)
        if kind == "quadratic":
            return curvature * square
        return curvature * square * square
    return f, lo, hi, xatol, min(max(centre, lo), hi)


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(_SEARCH_ROW, min_size=1, max_size=8))
def test_search_rows_reach_their_minimum(rows):
    # quadratics, quartics and flat rows, minima inside, at, near or
    # beyond either bound, one-point brackets, and tolerances and widths
    # that stop the rows in different rounds: each row's result is its
    # minimizer to the tolerance, a quadratic's bound exactly (in a box
    # wider than xatol); a flat row may take any point of its box
    fns, los, his, tols, minimizers = zip(*(_search_row(*row)
                                            for row in rows))
    got = hjb.minimize_scalar(
        lambda v: np.array([f(x) for f, x in zip(fns, v.tolist())]),
        np.array(los), np.array(his), np.array(tols))
    for (kind, *_), f, lo, hi, xatol, best, x in zip(
            rows, fns, los, his, tols, minimizers, got):
        assert lo <= x <= hi
        if kind != "flat":
            assert abs(x - best) <= 4.0 * _tol(best, xatol)
        if kind == "quadratic" and best in (lo, hi) and hi - lo > xatol:
            assert x == best


def test_a_probe_that_raises_surfaces_in_its_round():
    # func raises at the third round of one row's search: the search
    # stops there and the exception propagates
    calls = []

    def batch(v):
        calls.append(1)
        if len(calls) == 7:
            raise ValueError("probed in round 3")
        return (v - 0.3) ** 4

    with pytest.raises(ValueError, match="^probed in round 3$"):
        hjb.minimize_scalar(batch, np.array([-2.0, -1.0]),
                            np.array([3.0, 1.0]), 1e-10)
    assert len(calls) == 7


def test_minimize_box_one_control_takes_one_search(monkeypatch):
    def g(v):
        return (v - 0.3) ** 4 + math.sin(3.0 * v)

    lo, hi = np.array([-2.0]), np.array([2.0])
    calls = _counting_scalar_search(monkeypatch)
    u = _minimize_box(rows(g), lo, hi, False)
    assert len(calls) == 1
    ref = _scipy_bounded(g, lo[0], hi[0])
    assert abs(u[0, 0] - ref) <= 4.0 * _tol(ref)


def test_minimize_box_several_controls_sweep_until_still(monkeypatch):
    # coupled controls: one coordinate sweep does not reach the minimum
    h = rows(lambda a, b: (a + b - 1.0) ** 2 + 0.1 * (a - b) ** 2)
    calls = _counting_scalar_search(monkeypatch)
    u = _minimize_box(h, np.array([-2.0, -2.0]), np.array([2.0, 2.0]),
                      False)
    assert len(calls) >= 4 and len(calls) % 2 == 0
    assert np.allclose(u[0], [0.5, 0.5], atol=1e-7)


def test_minimize_box_three_controls_reach_a_bound_and_the_minimum():
    # three coupled controls, one smooth but not quadratic, the first
    # held at its upper bound: the coordinate sweeps of the search land
    # on the bound exactly and reach the box minimum of L-BFGS-B
    def f(a, b, c):
        return ((a - 2.0) ** 2 + (a - b) ** 2 + (b + c) ** 2 + 0.5 * c * c
                + 0.1 * math.exp(c))

    lo, hi = np.array([-1.0, -2.0, -2.0]), np.array([0.5, 2.0, 2.0])
    u = _minimize_box(rows(f), lo, hi, False)
    ref = sopt.minimize(lambda v: f(*v), np.zeros(3), method="L-BFGS-B",
                        bounds=list(zip(lo, hi)),
                        options={"ftol": 1e-15, "gtol": 1e-12}).x
    assert u[0, 0] == 0.5
    assert np.allclose(u[0], ref, rtol=0.0, atol=1e-6)


def test_minimize_box_quadratic_interior():
    h = rows(lambda v: v ** 2 + 2 * v)
    u = _minimize_box(h, np.array([-10.0]), np.array([10.0]), True)
    assert u[0, 0] == pytest.approx(-1.0, abs=1e-12)
    assert h(u)[0] == pytest.approx(-1.0, abs=1e-12)


def test_minimize_box_clips_to_bounds():
    h = rows(lambda v: v ** 2 + 2 * v)
    u = _minimize_box(h, np.array([0.0]), np.array([10.0]), True)
    assert u[0, 0] == 0.0
    assert h(u)[0] == pytest.approx(0.0, abs=1e-12)


def test_minimize_box_checks_endpoint_probes():
    # h has no interior minimum, so the endpoints are probed; a NaN at the
    # lower one must abort, not lose the comparison to the upper one
    h = rows(lambda v: np.nan if v < -1.5 else -v ** 2)
    with pytest.raises(SweepAbort, match="non-finite"):
        _minimize_box(h, np.array([-2.0]), np.array([2.0]), True)


def test_minimize_box_quadratic_fixed_axis_is_never_probed():
    # axis 0 is pinned (lo == hi); axis 1 still reaches its vertex
    probes = []

    def h(u):
        probes.append(u[0].copy())
        return (u[:, 0] - 0.3) ** 2 + 2 * (u[:, 1] + 0.4) ** 2

    u = _minimize_box(h, np.array([0.7, -1.0]), np.array([0.7, 1.0]), True)
    assert u[0, 0] == 0.7
    assert u[0, 1] == pytest.approx(-0.4, abs=1e-12)
    assert all(probe[0] == 0.7 for probe in probes)


def test_minimize_box_quadratic_coupled_axes_are_probed_in_turn():
    # one sweep, each axis probed from the point the earlier axes reached:
    # u0 minimizes h(., 0) -> 0.5, then u1 minimizes h(0.5, .) -> -0.25;
    # three probes per axis, and none at the returned point
    probes = []

    def h(u):
        probes.append(u[0].copy())
        return (u[:, 0] ** 2 + u[:, 1] ** 2 + u[:, 0] * u[:, 1]
                - u[:, 0])

    u = _minimize_box(h, np.array([-2.0, -2.0]), np.array([2.0, 2.0]), True)
    assert u[0] == pytest.approx([0.5, -0.25], abs=1e-12)
    assert len(probes) == 3 * 2
    assert all(probe[0] == u[0, 0] for probe in probes[3:])
    assert h(u)[0] == pytest.approx(-0.3125, abs=1e-12)


def test_minimize_box_coordinate_descent_matches_quadratic():
    h = rows(lambda a, b: (a - 0.3) ** 2 + 2 * (b + 0.4) ** 2)
    lo, hi = np.array([-1.0, -1.0]), np.array([1.0, 1.0])
    uq = _minimize_box(h, lo, hi, True)
    un = _minimize_box(h, lo, hi, False)
    assert np.allclose(uq, [[0.3, -0.4]], atol=1e-10)
    assert np.allclose(un, uq, atol=1e-7)


_CENTERS = np.linspace(-3.0, 3.0, 7)
_SHAPES = np.array([1.0, -1.0, 2.0, 0.5, -0.2, 3.0, 0.01])


def _row_function(k, controls):
    """Row k's function: a parabola (downward for some rows, so that the
    quadratic rule probes their endpoints), or two coupled controls that
    take the coordinate search a number of sweeps that varies by row."""
    c, s = _CENTERS[k], _SHAPES[k]
    if controls == 1:
        return lambda v: s * (v - c) ** 2 + 0.1 * v
    return lambda a, b: (a + b - c) ** 2 + abs(s) * (a - b) ** 2 + 0.1 * a


@pytest.mark.parametrize("controls", [1, 2])
@pytest.mark.parametrize("quadratic", [True, False])
def test_minimize_box_rows_are_independent_searches(quadratic, controls):
    # each row's result is that of a one-row minimization, and no row is
    # probed anywhere its one-row minimization does not probe, although
    # rows stop after different rounds and sweeps
    fns = [_row_function(k, controls) for k in range(len(_CENTERS))]
    lo, hi = np.full(controls, -2.0), np.full(controls, 2.5)
    probed = [set() for _ in fns]

    def h(u):
        for seen, row in zip(probed, u.tolist()):
            seen.add(tuple(row))
        return np.array([f(*row) for f, row in zip(fns, u.tolist())])

    got = _minimize_box(h, lo, hi, quadratic, len(fns))
    for k, f in enumerate(fns):
        alone = set()

        def h_alone(u, f=f):
            alone.add(tuple(u[0].tolist()))
            return rows(f)(u)

        assert np.array_equal(got[k], _minimize_box(h_alone, lo, hi,
                                                    quadratic)[0])
        assert probed[k] == alone


def test_minimizer_agrees_with_analytic_update():
    # closed-form stationary point of the two-state problem's Hamiltonian:
    # u* = -lam_1 Gamma(0.4) (1-t)^0.6 / (2 B(0.2) t^0.8), then clipped
    import dataclasses
    prob = small_field_problem()
    b1 = prob.field.coeffs[0].b_val
    rng = np.random.default_rng(3)
    grid = fo.TimeGrid(0.0, 1.0, 100)
    table = random_table(prob, grid, rng)
    lam = rng.uniform(-3, 3, (101, 2))
    u_q = minimize_node_hamiltonian(table, lam)
    # numeric (coordinate search) route agrees with the quadratic route
    prob_n = dataclasses.replace(prob, quadratic_control=False)
    u_n = minimize_node_hamiltonian(
        random_table(prob_n, grid, np.random.default_rng(3)), lam)
    for k in range(1, 100):
        t = grid.node(k)
        analytic = -lam[k, 0] * sps.gamma(0.4) * (1 - t) ** 0.6 \
            / (2 * b1 * t ** 0.8)
        analytic = min(max(analytic, -10.0), 10.0)
        assert u_q[k, 0] == pytest.approx(analytic, rel=1e-9, abs=1e-11)
        assert u_n[k, 0] == pytest.approx(u_q[k, 0], abs=1e-7)


def test_minimize_hamiltonian_public_signature():
    prob = small_field_problem()
    table = frozen_table(prob, fo.TimeGrid(0.0, 1.0, 2),
                         np.tile([1.0, 0.5], (3, 1)), np.zeros((3, 39, 2)))
    v_x = np.tile([0.2, -0.1], (3, 1))
    u = minimize_node_hamiltonian(table, v_x)
    assert u.shape == (3, prob.plant.n_controls)
    assert np.all((prob.u_lower <= u) & (u <= prob.u_upper))
    assert np.all(np.isfinite(node_hamiltonian(table, u, v_x)))


# ----------------------------------------------------------- residuals

def test_exact_solution_fixture_zero_residuals():
    # zero dynamics, zero initial state, pure control cost: the optimal
    # control is identically zero and every residual term cancels
    plant = fo.FractionalPlant(
        orders=(0.5,), rhs=lambda t, x, u: np.array([u[0]]),
        x0=np.zeros(1), n_controls=1)
    pi = fo.PerformanceIndex((fo.CostTerm(
        v=1.0, running=lambda t, x, u: u[0] ** 2),))
    prob = fo.HJBProblem(plant=plant, index=pi, tf=1.0,
                         u_lower=np.array([-1.0]), u_upper=np.array([1.0]),
                         quadratic_control=True)
    cfg = fo.SweepConfig(dt=0.01, u_init=0.0, n_a=100, n_b=100, p_max=10)
    state = fo.solve(prob, cfg)
    assert state.converged
    assert np.max(np.abs(state.residuals)) <= 1e-12
    assert state.error <= 1e-12


def test_aggregate_error_values():
    assert aggregate_error(np.zeros(7)) == 0.0
    assert aggregate_error(np.array([3.0, 4.0])) == pytest.approx(5.0)


def test_hjb_residual_recomputes_stored_residuals(cheap_state):
    prob = two_state_problem().with_field(10 ** 5, 10 ** 5, 40)
    st = cheap_state
    r = stored_residuals(prob, st, st.u_star)
    for k in (0, 1, 50, 99, 100):
        assert r[k] == pytest.approx(st.residuals[k], rel=1e-9, abs=1e-12)


def test_perturbing_control_increases_aggregate_error(cheap_state):
    prob = two_state_problem().with_field(10 ** 5, 10 ** 5, 40)
    st = cheap_state
    base = aggregate_error(stored_residuals(prob, st, st.u_star))
    u_pert = st.u_star.copy()
    u_pert[50, 0] += 1e-3
    pert = aggregate_error(stored_residuals(prob, st, u_pert))
    assert pert > base


def test_residual_is_the_hamiltonian_gap(cheap_state):
    # the residual is H(u*) - H(u), both taken on the evaluation's table
    prob = two_state_problem().with_field(10 ** 5, 10 ** 5, 40)
    cfg = two_state_config(n_a=10 ** 5, n_b=10 ** 5, p_max=40)
    st = cheap_state
    audited, value = audit_residuals(prob, st.x, st.u, cfg)
    runs = [(st.residuals, st.value, st.u_star),
            (audited, value,
             minimize_node_hamiltonian(value, value.v_x))]
    for residuals, value, u_star in runs:
        gap = (node_hamiltonian(value, u_star, value.v_x)
               - node_hamiltonian(value, st.u, value.v_x))
        assert np.array_equal(residuals, gap)


def test_value_terminal_condition(cheap_state):
    # V at the final node equals the terminal boundary value exactly
    assert cheap_state.value.v[-1] == 0.0


def test_minimizer_optimality_at_convergence(cheap_state):
    prob = two_state_problem().with_field(10 ** 5, 10 ** 5, 40)
    st = cheap_state
    grid = st.grid
    table = frozen_table(prob, grid, st.x, moment_trajectory(grid, 40, st.x))
    h0 = node_hamiltonian(table, st.u_star, st.value.v_x)
    for delta in (1e-4, -1e-4):
        hp = node_hamiltonian(table, st.u_star + delta, st.value.v_x)
        for k in range(5, grid.n_nodes - 5, 10):
            assert hp[k] >= h0[k] - 1e-12
