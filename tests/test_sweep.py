import copy
import dataclasses
import math
import re
from pathlib import Path

import mpmath as mp

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import solve_ivp

import fracopt as fo
from fracopt import (SweepAbort, SweepConfig, backward_sweep, forward_sweep,
                     hjb, solve, sweep)
from fracopt.config import build_problem, parse_problem

from conftest import (as_python_callables, frozen_table, moment_trajectory,
                      two_state_config, two_state_problem)


def lq_problem(a=-1.0, b=1.0, cx=1.0, cu=1.0, sf=0.5):
    """Scalar near-integer-order plant with a Bolza cost (v = [0, 1])."""
    plant = fo.FractionalPlant(
        orders=(0.999,),
        rhs=lambda t, x, u: np.array([a * x[0] + b * u[0]]),
        x0=np.array([1.0]), n_controls=1)
    pi = fo.PerformanceIndex((
        fo.CostTerm(v=0.0, terminal=lambda tf, x: sf * x[0] ** 2),
        fo.CostTerm(v=1.0, running=lambda t, x, u: cx * x[0] ** 2
                    + cu * u[0] ** 2),
    ))
    return fo.HJBProblem(plant=plant, index=pi, tf=1.0,
                         u_lower=np.array([-50.0]),
                         u_upper=np.array([50.0]),
                         quadratic_control=True)


def riccati_reference(a=-1.0, b=1.0, cx=1.0, cu=1.0, sf=0.5, x0=1.0):
    sol = solve_ivp(lambda t, s: -(2 * a * s - s ** 2 * b ** 2 / cu + cx),
                    [1.0, 0.0], [sf], rtol=1e-12, atol=1e-14)
    return float(sol.y[0, -1]) * x0 ** 2


LQ_CFG = SweepConfig(dt=0.01, u_init=0.0, n_a=4, n_b=4, p_max=4,
                     b_series="convergent", error_tol=1e-10)


@pytest.mark.parametrize("kw", [
    {"dt": 0.0}, {"dt": float("nan")}, {"dt": float("inf")},
    {"dt": -0.01}, {"dt": -1e-6}, {"dt": float("-inf")}])
def test_config_rejects_bad_step_sizes(kw):
    with pytest.raises(fo.DomainError):
        SweepConfig(**kw)


@pytest.mark.parametrize("kw", [
    {"p_max": 150.5}, {"max_iters": 2.7}, {"n_a": "1e9"}, {"n_b": True},
    {"n_a": float("inf")}, {"error_tol": float("nan")},
    {"error_tol": float("inf")}, {"error_tol": -1e-8}, {"u_init": "abc"},
    {"u_init": float("nan")}, {"u_init": np.array([0.0, np.inf])},
    {"dt": "0.01"}, {"dt": True}, {"relaxation": "abc"}])
def test_config_rejects_ill_typed_values(kw):
    with pytest.raises(fo.DomainError):
        SweepConfig(**kw)


def test_config_stores_integral_counts_as_int():
    cfg = SweepConfig(n_a=1.0e9, n_b=np.float64(1e4), p_max=150.0,
                      max_iters=np.int64(3))
    assert (cfg.n_a, cfg.n_b, cfg.p_max, cfg.max_iters) == (10 ** 9, 10 ** 4,
                                                             150, 3)
    assert all(type(v) is int
               for v in (cfg.n_a, cfg.n_b, cfg.p_max, cfg.max_iters))


# ------------------------------------------------------------- forward

def test_forward_zero_dynamics_zero_state():
    plant = fo.FractionalPlant(
        orders=(0.4, 0.6), rhs=lambda t, x, u: np.zeros(2),
        x0=np.zeros(2), n_controls=1)
    pi = fo.PerformanceIndex((fo.CostTerm(v=1.0,
                                          running=lambda t, x, u: 0.0),))
    prob = fo.HJBProblem(plant=plant, index=pi, tf=1.0,
                         u_lower=np.array([-1.0]), u_upper=np.array([1.0]))
    cfg = SweepConfig(dt=0.02, n_a=50, n_b=50, p_max=10)
    x, nodes = forward_sweep(prob, 0.0, cfg)
    assert np.all(x == 0.0)
    # zero rhs and zero memory correction: a zero field at every row
    assert np.all(nodes.correction == 0.0)


def test_forward_pins_initial_condition():
    prob = two_state_problem()
    cfg = two_state_config(n_a=10 ** 4, n_b=10 ** 4, p_max=20)
    x, _ = forward_sweep(prob, 5.0, cfg)
    assert x[0, 0] == 1.0 and x[0, 1] == 0.5


def test_forward_near_integer_order_matches_classical_integration():
    # q = 0.999 scalar linear plant vs a classical high-accuracy solve
    prob = lq_problem().with_field(4, 4, 4, "convergent")
    cfg = LQ_CFG
    u_const = 0.3
    x, _ = forward_sweep(prob, u_const, cfg)
    ref = solve_ivp(lambda t, xv: -xv + u_const, [0.0, 1.0], [1.0],
                    rtol=1e-10, atol=1e-12, dense_output=True)
    x_ref = ref.sol(1.0)[0]
    assert x[-1, 0] == pytest.approx(x_ref, rel=2e-2)


@pytest.mark.filterwarnings("ignore:overflow")
def test_forward_aborts_on_blowup():
    plant = fo.FractionalPlant(
        orders=(0.5,), rhs=lambda t, x, u: np.array([x[0] ** 3 * 1e6]),
        x0=np.array([2.0]), n_controls=1)
    pi = fo.PerformanceIndex((fo.CostTerm(v=1.0,
                                          running=lambda t, x, u: 0.0),))
    prob = fo.HJBProblem(plant=plant, index=pi, tf=1.0,
                         u_lower=np.array([-1.0]), u_upper=np.array([1.0]))
    cfg = SweepConfig(dt=0.01, n_a=10, n_b=10, p_max=5)
    with pytest.raises(SweepAbort):
        forward_sweep(prob, 0.0, cfg)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("edit, message", [
    ({"plant": {"dynamics": ["1.0e308 + 0*x1 + 0*u1"]}},
     "non-finite state at node 2$"),
    ({"cost": {"terms": [{"order": 1.0, "operand": "1.5e308 + 0*x1"}]},
      "solver": {"tf": 2.0, "max_iters": 0}},
     "non-finite value at node 80$"),
], ids=["state", "value-chain"])
def test_overflow_aborts_without_a_warning(edit, message):
    # an overflow in the forward loop or in the value chain is the sweep's
    # own check to report: no RuntimeWarning escapes before the abort
    doc = yaml.safe_load(Path("perfbench/lq_bounded.yaml").read_text())
    for block, values in edit.items():
        doc[block].update(values)
    parsed = build_problem(doc)
    with pytest.raises(SweepAbort, match=message):
        solve(parsed.problem, parsed.config)


# ------------------------------------------------------------ backward

def test_backward_zero_costs_give_zero_value_and_costate():
    plant = fo.FractionalPlant(
        orders=(0.5,), rhs=lambda t, x, u: np.array([u[0]]),
        x0=np.zeros(1), n_controls=1)
    pi = fo.PerformanceIndex((fo.CostTerm(v=1.0,
                                          running=lambda t, x, u: 0.0),))
    prob = fo.HJBProblem(plant=plant, index=pi, tf=1.0,
                         u_lower=np.array([-1.0]), u_upper=np.array([1.0]))
    cfg = SweepConfig(dt=0.01, n_a=20, n_b=20, p_max=5)
    prob = prob.with_field(cfg.n_a, cfg.n_b, cfg.p_max)
    u = np.zeros((101, 1))
    x, nodes = forward_sweep(prob, u, cfg)
    value = backward_sweep(nodes, u, cfg)
    assert np.all(fo.cost_to_go(prob.index, nodes.grid, x, u) == 0.0)
    assert np.all(value.v_x == 0.0)


def test_backward_sweep_stores_its_value_data_on_the_node_table():
    # the table is the evaluation's one record: the backward sweep fills
    # it, and the minimizer takes its box from the table's problem
    prob = dataclasses.replace(lq_problem().with_field(4, 4, 4, "convergent"),
                               u_lower=np.array([-0.01]),
                               u_upper=np.array([0.02]))
    u = np.linspace(-0.01, 0.02, 101)[:, None]
    x, nodes = forward_sweep(prob, u, LQ_CFG)
    assert backward_sweep(nodes, u, LQ_CFG) is nodes
    assert nodes.v is None   # the cost-to-go is summed once, by solve
    assert nodes.h.shape == (101,)
    assert nodes.v_x.shape == (101, 1)
    assert np.array_equal(nodes.h, hjb.node_hamiltonian(nodes, u, nodes.v_x))
    u_star = hjb.minimize_node_hamiltonian(nodes, nodes.v_x)
    assert np.all((-0.01 <= u_star) & (u_star <= 0.02))
    assert np.any(u_star == -0.01)


def test_node_table_repr_names_its_grid_and_node_count(cheap_state):
    assert repr(cheap_state.value) == (
        "NodeTable(grid=TimeGrid(t0=0.0, tf=1.0, n_steps=100), nodes=101)")


def test_cost_to_go_is_summed_once_per_solve_and_once_per_audit(
        monkeypatch):
    # V is summed on the final pair alone: every other evaluation's table
    # keeps v None, and the audit sums it once on its own table
    summed = _count_calls(monkeypatch, fo.cost, "cost_to_go")
    tables = []
    evaluate = sweep._evaluate

    def recorded(*args):
        out = evaluate(*args)
        assert out[1].v is None
        tables.append(out[1])
        return out

    monkeypatch.setattr(sweep, "_evaluate", recorded)
    prob = lq_problem()
    state = solve(prob, LQ_CFG)
    assert len(summed) == 1 and len(tables) > 2
    assert [t for t in tables if t.v is not None] == [state.value]
    _, nodes = sweep.audit_residuals(prob, state.x, state.u, LQ_CFG)
    assert len(summed) == 2
    assert np.array_equal(nodes.v, state.value.v)


@pytest.mark.parametrize("path", ["problems/example.yaml",
                                  "perfbench/lq_bounded.yaml"])
def test_value_is_the_reference_cost_to_go_on_the_bundled_problems(path):
    # V[k] is cost.evaluate from node k up to the order of summation, and
    # V[0] is J*
    parsed = parse_problem(path)
    state = solve(parsed.problem, parsed.config)
    index = parsed.problem.index
    ref = [fo.evaluate(index, state.grid, state.x, state.u, k)
           for k in range(state.grid.n_nodes)]
    assert np.max(np.abs(state.value.v - ref)) <= 1e-15
    assert abs(state.value.v[0] - state.j_star) <= 1e-15


def test_backward_classical_limit_matches_riccati_costate():
    # at q ~ 1 with the optimal control frozen in, lambda(t) ~ 2 S(t) x(t)
    prob = lq_problem().with_field(4, 4, 4, "convergent")
    state = solve(prob, LQ_CFG)
    sol = solve_ivp(lambda t, s: -(-2 * s - s ** 2 + 1.0), [1.0, 0.0], [0.5],
                    rtol=1e-12, atol=1e-14, dense_output=True)
    for k in (20, 50, 80):
        t = state.grid.node(k)
        s_t = sol.sol(t)[0]
        assert state.value.v_x[k, 0] == pytest.approx(
            2 * s_t * state.x[k, 0], rel=4e-2)


# ----------------------------------------------------------- node data

def test_backward_names_the_first_node_of_a_non_finite_hamiltonian():
    # the running operand is infinite from t = 0.505 on while its
    # gradient stays finite, so the costate is finite and H is not
    plant = fo.FractionalPlant(
        orders=(0.5,), rhs=lambda t, x, u: np.array([u[0]]),
        x0=np.ones(1), n_controls=1)
    pi = fo.PerformanceIndex((fo.CostTerm(
        v=1.0, running=lambda t, x, u: math.inf if t > 0.505 else x[0] ** 2,
        gradient=lambda t, x, u: np.array([2.0 * x[0]])),))
    prob = fo.HJBProblem(plant=plant, index=pi, tf=1.0,
                         u_lower=np.array([-1.0]), u_upper=np.array([1.0]))
    cfg = SweepConfig(dt=0.01, n_a=20, n_b=20, p_max=5)
    x, nodes = forward_sweep(prob, 0.0, cfg)
    with pytest.raises(SweepAbort, match="Hamiltonian along the sweep, "
                                         "first at node 51$"):
        backward_sweep(nodes, 0.0, cfg)


def _count_calls(monkeypatch, owner, name, rows=lambda *args: 1):
    """Each call of owner.name as rows(its arguments): one entry per call,
    or with rows the number of node rows it evaluates."""
    calls = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.extend([1] * rows(*args))
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_solve_corrects_each_node_about_twice_per_evaluation(monkeypatch):
    # one memory correction per node in the Euler forward step and one in
    # the node's frozen record, shared by the costate's Hamiltonian chain,
    # the minimizer and the residual
    cfg = two_state_config(n_a=10 ** 4, n_b=10 ** 4, p_max=20, max_iters=3)
    corrections = _count_calls(monkeypatch, fo.TransformedField, "correction")
    evaluations = _count_calls(monkeypatch, sweep, "forward_sweep")
    state = solve(two_state_problem(), cfg)
    assert len(evaluations) >= 4
    per_node = len(corrections) / (state.grid.n_nodes * len(evaluations))
    assert per_node <= 2.1


@pytest.mark.parametrize("stepper", ["euler", "heun"])
def test_evaluation_corrects_each_node_once_per_stage(monkeypatch, stepper):
    # the forward sweep freezes each of the 101 nodes once and only Heun's
    # predictor corrects again; the backward sweep, the minimizer and the
    # residual reuse the records
    cfg = two_state_config(n_a=10 ** 4, n_b=10 ** 4, p_max=20,
                           stepper=stepper)
    prob = two_state_problem().with_field(cfg.n_a, cfg.n_b, cfg.p_max)
    corrections = _count_calls(monkeypatch, fo.TransformedField, "correction")
    sweep._evaluate(prob, 5.0, cfg)
    if stepper == "euler":
        assert len(corrections) == 101
    else:
        assert len(corrections) <= 2 * 101


def _table_rows(table, *args):
    return len(table)


def test_evaluation_takes_five_hamiltonians_per_node(monkeypatch):
    # quadratic mode: three parabola probes per node, then h at u in the
    # backward sweep and the residual at u*; the minimizer's own control
    # is not evaluated again (counted in node rows evaluated)
    cfg = two_state_config(n_a=10 ** 4, n_b=10 ** 4, p_max=20)
    prob = two_state_problem().with_field(cfg.n_a, cfg.n_b, cfg.p_max)
    probes = _count_calls(monkeypatch, hjb, "node_hamiltonian", _table_rows)
    stages = _count_calls(monkeypatch, sweep, "node_hamiltonian", _table_rows)
    sweep._evaluate(prob, 5.0, cfg)
    assert (len(probes), len(stages)) == (3 * 101, 2 * 101)


def test_bounded_evaluation_takes_the_searches_plus_two_per_node(
        monkeypatch):
    cfg = two_state_config(n_a=10 ** 4, n_b=10 ** 4, p_max=20)
    prob = dataclasses.replace(two_state_problem(), quadratic_control=False)
    prob = prob.with_field(cfg.n_a, cfg.n_b, cfg.p_max)
    searched = []
    real_search = hjb.minimize_scalar

    def counted_search(func, *args):
        def counted(val):
            searched.extend([1] * len(val))
            return func(val)
        return real_search(counted, *args)

    # counted in node rows evaluated
    monkeypatch.setattr(hjb, "minimize_scalar", counted_search)
    probes = _count_calls(monkeypatch, hjb, "node_hamiltonian", _table_rows)
    stages = _count_calls(monkeypatch, sweep, "node_hamiltonian", _table_rows)
    sweep._evaluate(prob, 5.0, cfg)
    assert len(searched) > 101
    assert len(probes) + len(stages) == len(searched) + 2 * 101


def _vertex_blowup_problem():
    """Hamiltonian u^2 - u (the costate is 0): finite at the parabola
    probes 0 and +-1, infinite at their vertex 0.5 from node 30 on."""
    plant = fo.FractionalPlant(orders=(0.5,), rhs=lambda t, x, u: -x,
                               x0=np.ones(1), n_controls=1)

    def running(t, x, u):
        return math.inf if u[0] == 0.5 and t > 0.295 else u[0] ** 2 - u[0]

    index = fo.PerformanceIndex((fo.CostTerm(v=1.0, running=running),))
    return fo.HJBProblem(plant=plant, index=index, tf=1.0,
                         u_lower=np.array([-2.0]), u_upper=np.array([2.0]),
                         quadratic_control=True)


def test_non_finite_hamiltonian_at_the_minimizer_aborts():
    # the minimizer does not evaluate its vertex, so the residual must
    # catch it rather than report an Error of inf or nan
    prob = _vertex_blowup_problem()
    cfg = SweepConfig(dt=0.01, u_init=0.0, n_a=100, n_b=100, p_max=10)
    message = "non-finite residual, first at node 30"
    with pytest.raises(SweepAbort, match=message):
        solve(prob, cfg)
    x, _ = forward_sweep(prob, 0.0, cfg)
    with pytest.raises(SweepAbort, match=message):
        sweep.audit_residuals(prob, x, 0.0, cfg)


@pytest.mark.parametrize("stepper", ["euler", "heun"])
def test_forward_records_equal_records_frozen_from_scratch(stepper):
    cfg = two_state_config(n_a=10 ** 4, n_b=10 ** 4, p_max=20,
                           stepper=stepper)
    prob = two_state_problem().with_field(cfg.n_a, cfg.n_b, cfg.p_max)
    x, nodes = forward_sweep(prob, np.linspace(-0.5, 0.3, 101), cfg)
    grid = fo.TimeGrid(0.0, 1.0, 100)
    fresh = frozen_table(prob, grid, x, moment_trajectory(grid, cfg.p_max, x))
    # the rows hold what H and the field read beside the plan's factors
    assert nodes.x.tobytes() == fresh.x.tobytes()
    assert nodes.correction.tobytes() == fresh.correction.tobytes()


def test_tables_past_2048_nodes_equal_tables_frozen_from_scratch():
    # 2501 nodes: more times than the field's old denominator memo kept
    # (2048), which it cleared and refilled within every sweep
    cfg = two_state_config(dt=1 / 2500, n_a=10 ** 4, n_b=10 ** 4, p_max=20)
    prob = two_state_problem().with_field(cfg.n_a, cfg.n_b, cfg.p_max)
    u = np.linspace(-0.5, 0.3, 2501)
    x, nodes = forward_sweep(prob, u, cfg)
    grid = fo.TimeGrid(0.0, 1.0, 2500)
    fresh = frozen_table(prob, grid, x, moment_trajectory(grid, cfg.p_max, x))
    _, value = sweep.audit_residuals(prob, x, u, cfg)
    assert len(nodes) == len(value) == 2501
    for name in ("t_run", "t_field", "x", "weights", "correction",
                 "denominator"):
        assert np.array_equal(getattr(nodes, name), getattr(fresh, name))
        assert np.array_equal(getattr(value, name),
                              getattr(fresh, name))


def test_heun_forward_sweep_on_a_plan_evaluates_the_field_on_its_rows(
        monkeypatch):
    # the predictor's slope comes from the node table's row k+1, frozen
    # at the predictor, and its denominator from the plan
    cfg = two_state_config(n_a=10 ** 4, n_b=10 ** 4, p_max=20,
                           stepper="heun")
    prob = two_state_problem().with_field(cfg.n_a, cfg.n_b, cfg.p_max)
    plan = hjb.GridPlan(prob, fo.TimeGrid(0.0, 1.0, 100))
    calls = _count_calls(monkeypatch, fo.TransformedField, "__call__")
    denominators = _count_calls(monkeypatch, fo.TransformedField,
                                "denominator")
    forward_sweep(prob, 5.0, cfg, plan)
    assert (calls, denominators) == ([], [])


def test_heun_forward_sweep_equals_a_reference_loop():
    cfg = two_state_config(n_a=10 ** 4, n_b=10 ** 4, p_max=20,
                           stepper="heun")
    prob = two_state_problem().with_field(cfg.n_a, cfg.n_b, cfg.p_max)
    u = np.linspace(-0.5, 0.3, 101)[:, None]
    grid = fo.TimeGrid(0.0, 1.0, 100)
    times, dt = grid.times(), grid.dt
    decay, fac = fo.moment_factors(grid, cfg.p_max - 1)
    x = np.empty((101, 2))
    x[0] = prob.plant.x0
    m = np.zeros((cfg.p_max - 1, 2))
    # the first cell is one Euler step of the Caputo rhs; from node 1 on
    # Heun steps the transformed field, computed from scratch at each
    # stage, with the moments M_{k+1} at the predictor
    x[1] = x[0] + dt * prob.plant.rhs(times[0], x[0], u[0])
    m = fo.advance_moments(m, x[0], decay[0], fac[0])
    for k in range(1, grid.n_steps):
        slope = prob.field(times[k], x[k], m, u[k])
        m = fo.advance_moments(m, x[k], decay[k], fac[k])
        y = x[k] + dt * slope
        x[k + 1] = x[k] + 0.5 * dt * (
            slope + prob.field(times[k + 1], y, m, u[k + 1]))
    got, _ = forward_sweep(prob, u[:, 0], cfg)
    assert np.array_equal(got, x)


def _reference_forward(prob, grid, u, stepper):
    """x and the final correction rows of forward_sweep, from scratch:
    the field called at the node times (node 0's correction at t_1), the
    allocating moment step, and the Euler or Heun step as array
    arithmetic."""
    times, dt = grid.times(), grid.dt
    decay, fac = fo.moment_factors(grid, prob.field.coeffs[0].p_max - 1)
    n, n_states = grid.n_steps, prob.plant.n_states
    x, corr = np.empty((n + 1, n_states)), np.empty((n + 1, n_states))
    x[0] = prob.plant.x0
    m = np.zeros((decay.shape[1], n_states))
    for k in range(n):
        corr[k] = prob.field.correction(float(times[max(k, 1)]), x[k], m)
        slope = prob.field(times[k], x[k], m, u[k]) if k else \
            prob.plant.rhs(times[0], x[0], u[0])
        m = fo.advance_moments(m, x[k], decay[k], fac[k])
        x[k + 1] = x[k] + dt * slope
        if stepper == "heun" and k:
            x[k + 1] = x[k] + 0.5 * dt * (
                slope + prob.field(times[k + 1], x[k + 1], m, u[k + 1]))
    corr[n] = prob.field.correction(float(times[n]), x[n], m)
    return x, corr


@settings(max_examples=40, deadline=None)
@given(n_states=st.integers(1, 3), p_max=st.integers(2, 40),
       n_steps=st.integers(1, 300), n_terms=st.integers(2, 10 ** 4),
       stepper=st.sampled_from(["euler", "heun"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_forward_sweep_equals_a_reference_loop_bit_for_bit(
        n_states, p_max, n_steps, n_terms, stepper, seed):
    # random orders, a random plant that reads t, x and u, and random
    # controls: the sweep's states and every correction row of its table
    # are those of the from-scratch loop, bit for bit
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1, 1, (n_states, n_states))
    b = rng.uniform(-1, 1, n_states)
    plant = fo.FractionalPlant(
        orders=tuple(rng.uniform(0.05, 0.95, n_states)),
        rhs=lambda t, x, u: a @ x + b * u[0] + 0.5 * np.sin(x + 3.0 * t),
        x0=rng.uniform(-2, 2, n_states), n_controls=1)
    index = fo.PerformanceIndex((fo.CostTerm(
        v=0.5, running=lambda t, x, u: float(x @ x + u[0] ** 2)),))
    prob = fo.HJBProblem(plant=plant, index=index, tf=1.0,
                         u_lower=np.array([-1.0]), u_upper=np.array([1.0]))
    prob = prob.with_field(n_terms, n_terms, p_max)
    grid = fo.TimeGrid(0.0, 1.0, n_steps)
    u = rng.uniform(-1, 1, (grid.n_nodes, 1))
    cfg = SweepConfig(dt=grid.dt, n_a=n_terms, n_b=n_terms, p_max=p_max,
                      stepper=stepper)
    x, nodes = forward_sweep(prob, u, cfg, hjb.GridPlan(prob, grid))
    x_ref, corr_ref = _reference_forward(prob, grid, u, stepper)
    assert np.array_equal(x, x_ref)
    assert np.array_equal(nodes.correction, corr_ref)


def test_moment_overflow_aborts_before_the_rhs_is_called():
    # x0 = 1e306 is finite, but the first moment step takes M_p(t_1) =
    # (1 - p) x0 / 2, which overflows for p > 360: the moment check at
    # node 1 must fire before any user expression runs at node 0
    calls = []

    def rhs(t, x, u):
        calls.append(t)
        return np.zeros(1)

    plant = fo.FractionalPlant(orders=(0.5,), rhs=rhs,
                               x0=np.array([1e306]), n_controls=1)
    index = fo.PerformanceIndex((fo.CostTerm(
        v=1.0, running=lambda t, x, u: 0.0),))
    prob = fo.HJBProblem(plant=plant, index=index, tf=1.0,
                         u_lower=np.array([-1.0]), u_upper=np.array([1.0]))
    cfg = SweepConfig(dt=0.01, n_a=10, n_b=10, p_max=1000)
    with pytest.raises(SweepAbort,
                       match="^non-finite moment state at node 1$"):
        forward_sweep(prob, 0.0, cfg)
    assert calls == []


def _floor_rates(t, x, u):
    """Integer-valued rates of the two-state plant, as a float array."""
    return np.array([np.floor(4.0 * x[1]) + u[0], -np.floor(3.0 * x[0])])


@pytest.mark.parametrize("stepper", ["euler", "heun"])
@pytest.mark.parametrize("form", [
    lambda t, x, u: _floor_rates(t, x, u).tolist(),
    lambda t, x, u: _floor_rates(t, x, u).astype(int),
], ids=["list", "int-array"])
def test_rhs_returning_a_list_or_an_int_array_gives_the_same_states(
        form, stepper):
    cfg = two_state_config(n_a=10 ** 4, n_b=10 ** 4, p_max=20,
                           stepper=stepper)
    base = two_state_problem()
    states = []
    for rhs in (_floor_rates, form):
        prob = dataclasses.replace(
            base, plant=dataclasses.replace(base.plant, rhs=rhs))
        states.append(forward_sweep(prob, 5.0, cfg)[0])
    assert np.array_equal(states[0], states[1])
    assert np.ptp(states[0][:, 1]) > 0.0


def _floor_rate(t, x, u):
    """One integer-valued rate for both states of the two-state plant."""
    return math.floor(4.0 * x[1]) + float(u[0])


@pytest.mark.parametrize("stepper", ["euler", "heun"])
def test_rhs_returning_a_broadcast_scalar_gives_the_same_states(stepper):
    # one rate for every state is broadcast, as numpy arithmetic would
    cfg = two_state_config(n_a=10 ** 4, n_b=10 ** 4, p_max=20,
                           stepper=stepper)
    base = two_state_problem()
    sweeps = []
    for rhs in (lambda t, x, u: np.full(2, _floor_rate(t, x, u)),
                _floor_rate):
        prob = dataclasses.replace(
            base, plant=dataclasses.replace(base.plant, rhs=rhs))
        sweeps.append(forward_sweep(prob, 5.0, cfg))
    (x_array, nodes_array), (x_scalar, nodes_scalar) = sweeps
    assert x_scalar.tobytes() == x_array.tobytes()
    assert nodes_scalar.correction.tobytes() == \
        nodes_array.correction.tobytes()
    assert np.ptp(x_array[:, 1]) > 0.0


@pytest.mark.parametrize("stepper", ["euler", "heun"])
@pytest.mark.parametrize("problem", ["problems/example.yaml",
                                     "perfbench/lq_bounded.yaml"])
def test_compiled_rhs_floats_give_the_states_of_its_array_form(problem,
                                                               stepper):
    # the forward step reads a problem file's rhs as Python floats; the
    # same evaluator called as a Python callable returns its array,
    # which the step converts: the states and rows are the same bits
    parsed = parse_problem(problem, [f"solver.stepper={stepper}"])
    prob, cfg = parsed.problem, parsed.config
    assert hasattr(prob.plant.rhs, "floats")
    rhs = prob.plant.rhs
    as_callable = dataclasses.replace(prob, plant=dataclasses.replace(
        prob.plant, rhs=lambda t, x, u: rhs(t, x, u)))
    u = np.linspace(-1.0, 3.0, 101)
    (x_floats, nodes_floats), (x_array, nodes_array) = (
        forward_sweep(p, u, cfg) for p in (prob, as_callable))
    assert x_floats.tobytes() == x_array.tobytes()
    assert nodes_floats.correction.tobytes() == \
        nodes_array.correction.tobytes()


def _array_costate(grad, jac, lam_n, dt, heun):
    """backward_sweep's costate recursion on numpy rows (any number of
    states): the reference of the one-state float recursion."""
    n = grad.shape[0] - 1
    lam = np.zeros(grad.shape)
    lam[n] = lam_n
    with np.errstate(all="ignore"):
        for k in range(n - 1, -1, -1):
            slope = grad[k + 1] + jac[k + 1].T @ lam[k + 1]
            lam[k] = lam[k + 1] + dt * slope
            if heun and k:
                lam[k] = lam[k + 1] + 0.5 * dt * (
                    slope + (grad[k] + jac[k].T @ lam[k]))
    return lam


_COSTATE_VALUE = st.one_of(
    st.floats(-10.0, 10.0), st.sampled_from([0.0, -0.0, 5e-324, -5e-324,
                                             1e-300, -1e-300, 1e300]))


@st.composite
def _linearizations(draw):
    """(grad, jac, lam_n) of one, two or three states on 2 to 40 nodes."""
    k = draw(st.sampled_from([1, 2, 3]))
    n_nodes = draw(st.integers(2, 40))
    return tuple(draw(arrays(np.float64, shape, elements=_COSTATE_VALUE))
                 for shape in ((n_nodes, k), (n_nodes, k, k), (k,)))


@settings(max_examples=100, deadline=None)
@given(rows=_linearizations(), dt=st.sampled_from([0.01, 0.37, 1e-4]),
       heun=st.booleans())
@example(rows=(np.full((3, 1), -0.0), np.full((3, 1, 1), 1.0),
               np.array([-0.0])), dt=0.01, heun=False)
@example(rows=(np.full((3, 1), -0.0), np.full((3, 1, 1), -2.0),
               np.array([-0.0])), dt=0.01, heun=True)
def test_costate_has_the_bits_of_the_array_recursion(rows, dt, heun):
    # one to three states, zeros of either sign, subnormals and
    # overflowing products included: one state steps Python floats,
    # whose product sums from 0.0 as numpy's one-state matrix product
    # does, and more step numpy rows; every other operation is the
    # array form's (the examples: a -0.0 product beside a -0.0 gradient
    # and costate)
    ref = _array_costate(*rows, dt, heun)
    with np.errstate(all="ignore"):
        got = sweep._costate(*rows, dt, heun)
    assert got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


def _box_doc(block: str, expression: str, quadratic: bool) -> dict:
    """perfbench/lq_bounded.yaml with expression as its dynamics or its
    running operand, the control box [-2, 2] and the quadratic rule or
    the bounded search."""
    doc = yaml.safe_load(Path("perfbench/lq_bounded.yaml").read_text())
    if block == "plant":
        doc["plant"]["dynamics"] = [expression]
    else:
        doc["cost"]["terms"][1]["operand"] = expression
    doc["plant"]["control_lower"] = [-2.0]
    doc["plant"]["control_upper"] = [2.0]
    doc["solver"]["quadratic_control"] = quadratic
    return doc


@pytest.mark.parametrize("block, expression, quadratic, node_time", [
    ("cost", "x1**2 + u1**2 + log(u1 + 1)", False, "0.0"),
    ("cost", "x1**2 + u1**2 + log(u1 + 1)", True, "0.0"),
    ("cost", "x1**2 + u1**2 + sqrt(u1)", False, "0.0"),
    ("cost", "x1**2 + u1**2 + sqrt(u1)", True, "0.0"),
    ("cost", "x1**2 + log(u1 + 3 - 2*t)", False, "0.5"),
    ("cost", "x1**2 + log(u1 + 3 - 2*t)", True, "0.5"),
    ("cost", "x1**2 + u1**2 + sqrt(u1 + 3 - 2*t)", False, "0.51"),
    ("plant", "-x1 + u1 + 0.1*log(u1 + 3 - 2*t)", False, "0.5"),
    ("plant", "-x1 + u1 + 0.1*log(u1 + 3 - 2*t)", True, "1.0"),
    ("cost", "x1**2 + u1**2 + 1e308*(u1 - 1)*(u1 - 1)", False, None),
    ("cost", "x1**2 + u1**2 + 1e308*(u1 - 1)*(u1 - 1)", True, None),
])
def test_minimization_abort_names_the_expression_and_node(
        block, expression, quadratic, node_time):
    # characterization: each expression is finite at the initial control
    # u = 0 and fails on part of the box, so the bounded search or the
    # quadratic rule probes it there (the bounded search at the box ends
    # of every node, so at the first node where lo = -2 fails, the
    # quadratic rule where its probes at +-1 or its endpoint fallback
    # fail); the abort is the one node-by-node
    # evaluation raised: the failing expression at the first node that
    # fails alone, or (an overflow, no math error) the minimizer's own
    # check.  solve and the audit of the initial trajectory abort alike,
    # and so do the evaluators behind plain lambdas, which raise their
    # abort as Python callables
    parsed = build_problem(_box_doc(block, expression, quadratic))
    message = ("non-finite Hamiltonian during minimization"
               if node_time is None else
               f"cannot evaluate {expression!r} at t = {node_time}: "
               "math domain error")
    for prob in (parsed.problem, as_python_callables(parsed.problem)):
        with pytest.raises(SweepAbort) as info:
            solve(prob, parsed.config)
        assert str(info.value) == message
        x, _ = forward_sweep(prob, 0.0, parsed.config)
        with pytest.raises(SweepAbort) as info:
            sweep.audit_residuals(prob, x, 0.0, parsed.config)
        assert str(info.value) == message


def test_quadratic_rule_probes_stay_in_the_box():
    # perfbench/lq_bounded.yaml with an operand undefined below u = 0 and
    # the box [0, 2]: the clipped origin is on the lower end, so the
    # quadratic rule's probes must move off it, not reach u = -1; it then
    # solves the problem as the bounded search does
    doc = yaml.safe_load(Path("perfbench/lq_bounded.yaml").read_text())
    doc["cost"]["terms"][1]["operand"] = "x1**2 + (u1 - 1)**2 + 0*sqrt(u1)"
    doc["plant"]["control_lower"] = [0.0]
    doc["plant"]["control_upper"] = [2.0]
    states = []
    for quadratic in (True, False):
        doc["solver"]["quadratic_control"] = quadratic
        parsed = build_problem(doc)
        states.append(solve(parsed.problem, parsed.config))
    got, ref = states
    assert got.converged and ref.converged
    assert got.iteration == ref.iteration
    assert got.j_star == pytest.approx(ref.j_star, rel=1e-15)
    assert np.all((got.u_star >= 0.0) & (got.u_star <= 2.0))


def test_bounded_search_lands_exactly_on_an_active_bound():
    # perfbench/lq_bounded.yaml with its box cut to [-0.2, 50]: where the
    # Hamiltonian's vertex (the quadratic rule's on the same table, over
    # the uncut box) lies below -0.2, the search returns -0.2 itself;
    # elsewhere it returns the vertex to its tolerance
    doc = yaml.safe_load(Path("perfbench/lq_bounded.yaml").read_text())
    doc["plant"]["control_lower"] = [-0.2]
    parsed = build_problem(doc)
    state = solve(parsed.problem, parsed.config)
    assert state.converged
    table = copy.copy(state.value)
    table.prob = dataclasses.replace(
        table.prob, u_lower=np.array([-50.0]), quadratic_control=True)
    vertex = fo.minimize_node_hamiltonian(table, table.v_x)[:, 0]
    active = vertex < -0.2
    assert 0 < np.count_nonzero(active) < len(vertex) - 10
    assert np.all(state.u_star[active, 0] == -0.2)
    assert np.allclose(state.u_star[~active, 0], vertex[~active],
                       rtol=0.0, atol=1e-8)


# ------------------------------------------------ Python-callable problems

def assert_same_solve(got, ref):
    """Two converged solves with the same iterations and the same bytes
    in every output."""
    assert got.iteration == ref.iteration > 0
    for name in ("x", "u", "u_star", "residuals", "error_history",
                 "j_star"):
        assert np.array(getattr(got, name)).tobytes() == \
            np.array(getattr(ref, name)).tobytes()
    assert got.value.v.tobytes() == ref.value.v.tobytes()


@pytest.mark.parametrize("problem", ["problems/example.yaml",
                                     "perfbench/lq_bounded.yaml"])
def test_python_callables_solve_a_bundled_problem_to_the_same_bytes(problem):
    # every compiled evaluator behind a plain lambda: the forward step
    # on the wrapper's floats, the Hamiltonian on its unchecked forms
    # and the cost on its row loops give the compiled forms' bits
    parsed = parse_problem(problem)
    got, ref = (solve(prob, parsed.config) for prob in (
        as_python_callables(parsed.problem), parsed.problem))
    assert_same_solve(got, ref)


class _OperandFailure(Exception):
    pass


@pytest.mark.parametrize("error", [ZeroDivisionError, _OperandFailure])
@pytest.mark.parametrize("where, u_failing", [("sweep", 0.0),
                                              ("minimization", 1.0)])
def test_an_exception_of_a_python_callable_propagates_from_solve(
        where, u_failing, error):
    # the running operand raises at node 40 alone: along the sweep (at
    # the control u = 0) or at the quadratic rule's probe u = 1.  Its
    # gradient is given, so the Hamiltonian is the first to call it: the
    # unchecked forms must not swallow the error, and the Hamiltonian's
    # replay of the failing rows raises it again, unchanged
    bad = fo.TimeGrid(0.0, 1.0, 100).times()[40].item()

    def running(t, x, u):
        if t == bad and (where == "sweep" or u[0] == 1.0):
            raise error(f"operand fails at t = {t!r}, u = {float(u[0])!r}")
        return x[0] ** 2 + u[0] ** 2
    plant = fo.FractionalPlant(
        orders=(0.5,), rhs=lambda t, x, u: np.array([-x[0] + u[0]]),
        x0=np.ones(1), n_controls=1)
    pi = fo.PerformanceIndex((fo.CostTerm(
        v=1.0, running=running,
        gradient=lambda t, x, u: np.array([2.0 * x[0]])),))
    prob = fo.HJBProblem(plant=plant, index=pi, tf=1.0,
                         u_lower=np.array([-2.0]), u_upper=np.array([2.0]),
                         quadratic_control=True)
    cfg = SweepConfig(dt=0.01, n_a=20, n_b=20, p_max=5)
    with pytest.raises(error, match=re.escape(
            f"operand fails at t = {bad!r}, u = {u_failing!r}") + "$"):
        solve(prob, cfg)


def test_python_callables_are_wrapped_once():
    # wrapping is idempotent, so a rebuilt plant or term keeps its
    # wrappers and a problem keeps its plant (the attached field is
    # reused only for the same plant)
    prob = two_state_problem()
    plant, term = prob.plant, prob.index.terms[0]
    assert fo.expansion.as_evaluator(plant.rhs) is plant.rhs
    assert dataclasses.replace(plant).rhs is plant.rhs
    assert dataclasses.replace(term).running is term.running
    with_field = prob.with_field(4, 4, 4)
    assert with_field.plant is plant
    plan = hjb.GridPlan(with_field, fo.TimeGrid(0.0, 1.0, 10))
    running, rhs = plan.forms
    assert len(running) == 2 and len(rhs) == 1


def test_an_rhs_giving_one_rate_for_every_state_solves_as_its_broadcast():
    # one value broadcasts to every state's rate over node arrays as it
    # does in the forward step, so the Hamiltonian and the central
    # differences of jacobian_x see the (N, n) field of the full vector
    prob = two_state_problem()

    def with_rhs(rhs):
        return dataclasses.replace(
            prob, plant=dataclasses.replace(prob.plant, rhs=rhs))
    cfg = two_state_config()
    got, ref = (solve(with_rhs(rhs), cfg) for rhs in (
        lambda t, x, u: x[1] + float(u[0]),
        lambda t, x, u: np.full(2, x[1] + float(u[0]))))
    assert_same_solve(got, ref)


_MISMATCHED_SETTINGS = [
    {"n_a": 10 ** 3}, {"n_b": 10 ** 3}, {"p_max": 10},
    {"b_series": "convergent"}]


@pytest.mark.parametrize("setting", _MISMATCHED_SETTINGS)
def test_mismatched_attached_field_is_rebuilt_by_each_sweep(setting):
    cfg = two_state_config(n_a=10 ** 4, n_b=10 ** 4, p_max=20)
    other = dict(n_a=cfg.n_a, n_b=cfg.n_b, p_max=cfg.p_max,
                 b_series=cfg.b_series)
    other.update(setting)
    stale = two_state_problem().with_field(**other)
    u = np.linspace(-0.5, 0.3, 101)
    results = []
    for prob in (stale, two_state_problem()):
        x, nodes = forward_sweep(prob, u, cfg)
        results.append((x, backward_sweep(nodes, u, cfg)))
    (x, value), (x_ref, value_ref) = results
    assert np.array_equal(x, x_ref)
    for name in ("correction", "denominator", "v", "v_x", "h"):
        assert np.array_equal(getattr(value, name), getattr(value_ref, name))


@pytest.mark.parametrize("setting", _MISMATCHED_SETTINGS)
def test_mismatched_attached_field_is_rebuilt(setting):
    cfg = two_state_config(n_a=10 ** 4, n_b=10 ** 4, p_max=20, max_iters=0)
    other = dict(n_a=cfg.n_a, n_b=cfg.n_b, p_max=cfg.p_max,
                 b_series=cfg.b_series)
    other.update(setting)
    prob = two_state_problem().with_field(**other)
    fixed = sweep._ensure_field(prob, cfg)
    assert [(c.n_a, c.n_b, c.p_max, c.b_series) for c in fixed.field.coeffs] \
        == [(cfg.n_a, cfg.n_b, cfg.p_max, cfg.b_series)] * 2
    got, ref = solve(prob, cfg), solve(two_state_problem(), cfg)
    assert np.array_equal(got.x, ref.x)
    assert np.array_equal(got.u_star, ref.u_star)


def test_matching_attached_field_is_not_rebuilt(monkeypatch):
    cfg = two_state_config(n_a=10 ** 4, n_b=10 ** 4, p_max=20, max_iters=2)
    prob = two_state_problem().with_field(cfg.n_a, cfg.n_b, cfg.p_max,
                                          cfg.b_series)
    builds = _count_calls(monkeypatch, fo.HJBProblem, "with_field")
    assert sweep._ensure_field(prob, cfg) is prob
    state = solve(prob, cfg)
    sweep.audit_residuals(prob, state.x, state.u, cfg)
    assert builds == []


# ------------------------------------------------------- control update

def test_update_control_fixed_point_on_trivial_problem():
    # zero dynamics and a pure control cost: the pointwise minimizer of
    # the zero control is the zero control
    plant = fo.FractionalPlant(
        orders=(0.5,), rhs=lambda t, x, u: np.array([u[0]]),
        x0=np.zeros(1), n_controls=1)
    pi = fo.PerformanceIndex((fo.CostTerm(
        v=1.0, running=lambda t, x, u: u[0] ** 2),))
    prob = fo.HJBProblem(plant=plant, index=pi, tf=1.0,
                         u_lower=np.array([-1.0]), u_upper=np.array([1.0]),
                         quadratic_control=True)
    cfg = SweepConfig(dt=0.01, u_init=0.0, n_a=50, n_b=50, p_max=5)
    state = solve(prob, cfg)
    assert np.allclose(state.u_star, 0.0, atol=1e-14)
    assert np.allclose(state.u, 0.0, atol=1e-14)


def test_update_control_blends_with_relaxation():
    # one accepted iteration replaces u by theta u* + (1 - theta) u, with
    # u* the pointwise minimizers evaluated at u
    cheap = dict(n_a=10 ** 4, n_b=10 ** 4, p_max=20, relaxation=0.25)
    start = solve(two_state_problem(), two_state_config(max_iters=0, **cheap))
    state = solve(two_state_problem(), two_state_config(max_iters=1, **cheap))
    assert state.iteration == 1
    assert np.allclose(state.u, 0.25 * start.u_star + 0.75 * start.u,
                       atol=1e-12)


# --------------------------------------------------------------- solve

def test_trivial_problem_converges_immediately():
    plant = fo.FractionalPlant(
        orders=(0.5,), rhs=lambda t, x, u: np.array([u[0]]),
        x0=np.zeros(1), n_controls=1)
    pi = fo.PerformanceIndex((fo.CostTerm(
        v=1.0, running=lambda t, x, u: u[0] ** 2),))
    prob = fo.HJBProblem(plant=plant, index=pi, tf=1.0,
                         u_lower=np.array([-1.0]), u_upper=np.array([1.0]),
                         quadratic_control=True)
    cfg = SweepConfig(dt=0.01, u_init=0.0, n_a=50, n_b=50, p_max=5)
    state = solve(prob, cfg)
    assert state.converged
    assert state.iteration <= 1
    assert state.error <= 1e-12
    assert state.j_star == pytest.approx(0.0, abs=1e-14)


def test_error_history_non_increasing(cheap_state):
    hist = cheap_state.error_history
    assert all(b <= a for a, b in zip(hist, hist[1:]))
    assert cheap_state.converged


def test_first_update_strictly_decreases_error(cheap_state):
    hist = cheap_state.error_history
    assert len(hist) >= 2
    assert hist[1] < hist[0]


def test_initial_condition_pinned_every_iteration(cheap_state):
    assert cheap_state.x[0, 0] == 1.0
    assert cheap_state.x[0, 1] == 0.5


def test_solver_determinism():
    cfg = two_state_config(n_a=10 ** 4, n_b=10 ** 4, p_max=20, max_iters=8)
    s1 = solve(two_state_problem(), cfg)
    s2 = solve(two_state_problem(), cfg)
    assert np.array_equal(s1.u, s2.u)
    assert np.array_equal(s1.x, s2.x)
    assert np.array_equal(s1.value.v, s2.value.v)
    assert s1.error == s2.error


def test_per_node_initial_control_guess():
    cfg = two_state_config(n_a=10 ** 4, n_b=10 ** 4, p_max=20, max_iters=0,
                           u_init=np.linspace(5.0, 0.0, 101))
    state = solve(two_state_problem(), cfg)
    assert state.u[0, 0] == 5.0 and state.u[-1, 0] == 0.0


def test_max_iters_zero_reports_nonconverged():
    cfg = two_state_config(n_a=10 ** 4, n_b=10 ** 4, p_max=20, max_iters=0)
    state = solve(two_state_problem(), cfg)
    assert not state.converged
    assert state.iteration == 0
    assert state.x.shape[0] == state.grid.n_nodes


def test_classical_lq_matches_riccati_cost():
    state = solve(lq_problem(), LQ_CFG)
    assert state.converged
    ref = riccati_reference()
    assert state.j_star == pytest.approx(ref, rel=2e-2)


def test_heun_bounded_search_lq_matches_riccati_cost():
    prob = dataclasses.replace(lq_problem(), quadratic_control=False)
    state = solve(prob, dataclasses.replace(LQ_CFG, stepper="heun"))
    assert state.converged
    assert state.j_star == pytest.approx(riccati_reference(), rel=2e-2)


def _per_stage_costate(prob, grid, x, u, stepper):
    """The costate as stepped before each node was linearized once: the
    running-cost gradient and the field Jacobian are recomputed at every
    stage of every step."""
    n, dt, times = grid.n_steps, grid.dt, grid.times()

    def gradient(fn, xv):
        out = np.zeros(xv.shape[0])
        for i in range(out.shape[0]):
            h = 1e-6 * max(1.0, abs(xv[i]))
            xp, xm = xv.copy(), xv.copy()
            xp[i] += h
            xm[i] -= h
            out[i] = (fn(xp) - fn(xm)) / (2 * h)
        return out

    def rhs(k, lam_k):
        t_run = times[n - 1] if k == n else times[k]
        terms = prob.index.running_terms
        weights = [fo.running_weight(term.v, t_run, prob.tf)
                   for term in terms]
        gg = gradient(lambda xv: sum(w * term.running(t_run, xv, u[k])
                                     for w, term in zip(weights, terms)),
                      x[k])
        jac = prob.field.jacobian_x(times[k:k + 1], x[k:k + 1],
                                    u[k:k + 1])[0]
        return -(gg + jac.T @ lam_k)

    lam = np.zeros_like(x)
    lam[n] = gradient(lambda xv: fo.terminal_value(prob.index, prob.tf, xv),
                      x[n])
    if stepper == "euler":
        for k in range(n - 1, -1, -1):
            lam[k] = lam[k + 1] - dt * rhs(k + 1, lam[k + 1])
        return lam
    for k in range(n - 1, 0, -1):
        r1 = rhs(k + 1, lam[k + 1])
        pred = lam[k + 1] - dt * r1
        lam[k] = lam[k + 1] - 0.5 * dt * (r1 + rhs(k, pred))
    lam[0] = lam[1] - dt * rhs(1, lam[1])
    return lam


@pytest.mark.parametrize("stepper", ["euler", "heun"])
@pytest.mark.parametrize("which", ["lq", "two_state"])
def test_costate_equals_per_stage_transcription(which, stepper):
    if which == "lq":
        prob = lq_problem().with_field(4, 4, 4, "convergent")
        cfg = dataclasses.replace(LQ_CFG, stepper=stepper)
    else:
        prob = two_state_problem().with_field(10 ** 4, 10 ** 4, 20)
        cfg = two_state_config(n_a=10 ** 4, n_b=10 ** 4, p_max=20,
                               stepper=stepper)
    u = np.linspace(-0.5, 0.3, 101)[:, None]
    x, nodes = forward_sweep(prob, u, cfg)
    value = backward_sweep(nodes, u, cfg)
    expected = _per_stage_costate(prob, value.grid, x, u, stepper)
    assert np.array_equal(value.v_x, expected)


@pytest.mark.parametrize("stepper", ["euler", "heun"])
def test_backward_sweep_linearizes_each_node_once(monkeypatch, stepper):
    prob = lq_problem().with_field(4, 4, 4, "convergent")
    cfg = dataclasses.replace(LQ_CFG, stepper=stepper)
    x, nodes = forward_sweep(prob, 0.0, cfg)
    # counted in node rows linearized
    calls = _count_calls(monkeypatch, fo.TransformedField, "jacobian_x",
                         lambda field, t, x, u: len(t))
    value = backward_sweep(nodes, 0.0, cfg)
    assert len(calls) == value.grid.n_steps


def test_grid_refinement_consistency():
    # J* moves less when the grid is refined from dt=0.01 to 0.005 than
    # from 0.02 to 0.01
    cfg = {dt: two_state_config(dt=dt, n_a=10 ** 6, n_b=10 ** 6, p_max=80)
           for dt in (0.02, 0.01, 0.005)}
    js = {dt: solve(two_state_problem(), c).j_star
          for dt, c in cfg.items()}
    d_coarse = abs(js[0.01] - js[0.02])
    d_fine = abs(js[0.005] - js[0.01])
    assert d_fine < d_coarse


def test_divergent_x2_decays_like_dt_to_the_0_3(example_parsed):
    # characterization, not a convergence check: under u = 5 the bundled
    # divergent expansion's x2(1) has no grid limit; it falls like dt**0.3
    x2 = [forward_sweep(example_parsed.problem, 5.0,
                        dataclasses.replace(example_parsed.config, dt=dt))[0]
          [-1, 1] for dt in (1e-2, 1e-3, 1e-4)]
    slopes = [math.log10(coarse / fine) for coarse, fine in zip(x2, x2[1:])]
    assert all(0.28 <= slope <= 0.31 for slope in slopes), (x2, slopes)


def test_divergent_j_star_falls_under_refinement(example_parsed,
                                                  example_state):
    # characterization: the converged J* of the bundled example falls from
    # 0.0476 at dt = 0.01 to 0.0270 at dt = 0.005
    j_coarse = example_state[0].j_star
    j_fine = solve(example_parsed.problem,
                   dataclasses.replace(example_parsed.config, dt=0.005)).j_star
    assert j_fine / j_coarse < 0.6, (j_coarse, j_fine)


MANUFACTURED_FILE = "problems/manufactured.yaml"
MANUFACTURED_DTS = (0.01, 0.005, 0.0025, 0.001)


@pytest.fixture(scope="module")
def manufactured():
    """The manufactured problem file, parsed, and the J* its header states."""
    header = re.search(r"^#\s+J\* = .* = (\S+)$",
                       Path(MANUFACTURED_FILE).read_text(), re.M)
    return parse_problem(MANUFACTURED_FILE), float(header.group(1))


def test_manufactured_optimum_is_the_one_its_header_states(manufactured):
    # J* of x* = 1 + t^2, u* = -(1 - t)^2 by mpmath quadrature at 30
    # digits, where x* - r = (1 - t)^2 + c (1 - t)^1.5
    parsed, j_star = manufactured
    with mp.workdps(30):
        c = mp.gamma(3) / mp.gamma(mp.mpf(5) / 2)
        quad = mp.quad(lambda t: ((1 - t) ** 2 + c * (1 - t) ** 1.5) ** 2 / 2
                       + (1 - t) ** 4 / 2, [0, 1])
    assert abs(float(quad) - j_star) <= 1e-15
    # the file's expressions at the optimum: D^0.5 x* = c t^1.5 is the
    # dynamics, the integrand is the one above, and the costate
    # lambda* = (1 - t)^2 has tD1^0.5 lambda* = c (1 - t)^1.5 = H_x
    c = float(c)
    prob = parsed.problem
    (term,) = prob.index.running_terms
    for t in np.linspace(0.0, 1.0, 11):
        x, u, lam = np.array([1 + t * t]), np.array([-(1 - t) ** 2]), \
            (1 - t) ** 2
        assert prob.plant.rhs(t, x, u)[0] == pytest.approx(c * t ** 1.5,
                                                             abs=1e-14)
        g = ((1 - t) ** 2 + c * (1 - t) ** 1.5) ** 2 / 2 + (1 - t) ** 4 / 2
        assert term.running(t, x, u) == pytest.approx(g, abs=1e-14)
        h_x = term.gradient(t, x, u)[0] \
            + lam * prob.plant.rhs_jacobian(t, x, u)[0, 0]
        assert h_x == pytest.approx(c * (1 - t) ** 1.5, abs=1e-14)


@pytest.mark.parametrize("dt", MANUFACTURED_DTS)
def test_manufactured_divergent_mode_stops_at_iteration_0_far_below_j_star(
        manufactured, dt):
    # characterization: B = 4.0e4 leaves the control a gain of about
    # 3.5e-5, so u = 0 already meets error_tol; J* - J* measured
    # -0.166 / -0.183 / -0.193 / -0.201 over the four grids
    parsed, j_star = manufactured
    state = solve(parsed.problem, dataclasses.replace(parsed.config, dt=dt))
    assert state.converged and state.iteration == 0
    assert state.j_star - j_star < -0.1, state.j_star


@pytest.mark.parametrize("dt", MANUFACTURED_DTS)
def test_manufactured_convergent_n4_mode_converges_above_j_star(
        manufactured, dt):
    # characterization: J* - J* measured +0.0204 / +0.0192 / +0.0186 /
    # +0.0179 over the four grids
    parsed, j_star = manufactured
    cfg = dataclasses.replace(parsed.config, dt=dt, n_a=4, n_b=4, p_max=4,
                              b_series="convergent")
    state = solve(parsed.problem, cfg)
    assert state.converged
    assert state.j_star - j_star > 0.015, state.j_star
