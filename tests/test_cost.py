import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import trapezoid

from fracopt import (CostTerm, DomainError, PerformanceIndex,
                     SingularTimeError, TimeGrid, cost_to_go, evaluate, gamma,
                     running_weight, solve, terminal_index_set,
                     terminal_value)
from fracopt.config import build_problem, load_raw, parse_problem
from fracopt.operators import kernel_cell_weights, singular_kernel_weights

from conftest import EXAMPLE_FILE


def running(v, fn):
    return CostTerm(v=v, running=fn)


def terminal(fn):
    return CostTerm(v=0.0, terminal=fn)


def test_term_validation():
    with pytest.raises(DomainError):
        CostTerm(v=2.5, running=lambda t, x, u: 0.0)
    with pytest.raises(DomainError):
        CostTerm(v=0.0, running=lambda t, x, u: 0.0)
    with pytest.raises(DomainError):
        CostTerm(v=0.5, terminal=lambda tf, x: 0.0)
    with pytest.raises(DomainError):
        PerformanceIndex(())


def test_terminal_index_set_all_running():
    pi = PerformanceIndex((running(0.3, lambda t, x, u: 0.0),
                           running(0.4, lambda t, x, u: 0.0)))
    assert terminal_index_set(pi) == frozenset()


def test_terminal_index_set_bolza():
    pi = PerformanceIndex((terminal(lambda tf, x: 0.0),
                           running(1.0, lambda t, x, u: 0.0)))
    assert terminal_index_set(pi) == frozenset({0})


def test_running_terms_are_built_once():
    g = running(1.0, lambda t, x, u: 0.0)
    pi = PerformanceIndex((terminal(lambda tf, x: 0.0), g))
    assert pi.running_terms == (g,)
    assert pi.running_terms is pi.running_terms


def test_terminal_value_empty_set_is_zero():
    pi = PerformanceIndex((running(0.3, lambda t, x, u: 1.0),))
    assert terminal_value(pi, 1.0, np.array([4.0])) == 0.0


def test_terminal_value_quadratic():
    pi = PerformanceIndex((terminal(lambda tf, x: float(x @ x)),
                           running(1.0, lambda t, x, u: 0.0)))
    assert terminal_value(pi, 1.0, np.array([1.0, 2.0])) == pytest.approx(5.0)


def test_terminal_value_additive():
    pi = PerformanceIndex((terminal(lambda tf, x: x[0]),
                           terminal(lambda tf, x: 2 * x[0])))
    assert terminal_value(pi, 1.0, np.array([3.0])) == pytest.approx(9.0)


def test_terminal_value_adds_left_to_right_in_index_order():
    # 1e16 + 1.0 rounds to 1e16, so the left-to-right sum is 0.0; the
    # builtin sum compensates float sums from Python 3.12 on, giving 1.0
    doc = load_raw("perfbench/lq_bounded.yaml")
    doc["cost"]["terms"][:1] = [{"order": 0.0, "operand": operand}
                                for operand in ("1e16", "1.0", "-1e16")]
    index = build_problem(doc).problem.index
    assert terminal_value(index, 1.0, np.array([2.0])) == 0.0


def test_terminal_value_and_gradient_add_their_terms_in_index_order():
    # 1e16 x, -1e16 x and x at indices 2, 3 and 10 give x in index order;
    # a frozenset iterates {2, 3, 10} as 10, 2, 3, where 1.0 + 1e16
    # rounds to 1e16 and the gradient to 0.0
    doc = load_raw("perfbench/lq_bounded.yaml")
    terms = [doc["cost"]["terms"][1]] * 11
    for i, operand in ((2, "1e16*x1"), (3, "-1e16*x1"), (10, "1.0*x1")):
        terms[i] = {"order": 0.0, "operand": operand}
    doc["cost"]["terms"] = terms
    index = build_problem(doc).problem.index
    assert terminal_index_set(index) == {2, 3, 10}
    x_tf = np.array([1.0])
    assert terminal_value(index, 1.0, x_tf) == 1.0
    assert index.terminal_gradient(1.0, x_tf).tolist() == [1.0]


def test_running_weight_order_one_is_unity():
    for t in (0.0, 0.4, 1.0):
        assert running_weight(1.0, t, 1.0) == pytest.approx(1.0)


def test_running_weight_low_order_value():
    assert running_weight(0.3, 0.0, 1.0) == pytest.approx(1 / gamma(0.3),
                                                          rel=1e-12)


def test_running_weight_monotonicity():
    ts = np.linspace(0.0, 0.99, 50)
    low = [running_weight(0.5, t, 1.0) for t in ts]
    assert all(np.diff(low) > 0)        # cheap initial behavior
    high = [running_weight(1.5, t, 1.0) for t in ts]
    assert all(np.diff(high) < 0)       # expensive initial behavior


def test_running_weight_singular_at_final_time():
    with pytest.raises(SingularTimeError):
        running_weight(0.5, 1.0, 1.0)
    assert running_weight(1.5, 1.0, 1.0) == 0.0


def grid_and_trajs(n=100):
    grid = TimeGrid(0.0, 1.0, n)
    ts = grid.times()
    x = np.stack([np.sin(ts), np.cos(2 * ts)], axis=1)
    u = (ts ** 2 - 0.3)[:, None]
    return grid, x, u


def test_evaluate_constant_operand_order_one():
    grid, x, u = grid_and_trajs()
    pi = PerformanceIndex((running(1.0, lambda t, x, u: 1.0),))
    assert evaluate(pi, grid, x, u) == pytest.approx(1.0, abs=1e-12)


def test_evaluate_constant_operand_half_order():
    grid, x, u = grid_and_trajs()
    pi = PerformanceIndex((running(0.5, lambda t, x, u: 1.0),))
    assert evaluate(pi, grid, x, u) == pytest.approx(1 / gamma(1.5),
                                                     rel=1e-12)


def test_evaluate_bolza_reduction():
    grid, x, u = grid_and_trajs(200)
    ts = grid.times()

    def h(tf, xv):
        return xv[0] ** 2 + 3 * xv[1]

    def g(t, xv, uv):
        return xv[0] * xv[1] + uv[0] ** 2

    pi = PerformanceIndex((terminal(h), running(1.0, g)))
    plain = h(1.0, x[-1]) + trapezoid(
        [g(t, xv, uv) for t, xv, uv in zip(ts, x, u)], ts)
    assert evaluate(pi, grid, x, u) == pytest.approx(plain, abs=1e-10)


def test_evaluate_additive_over_terms():
    grid, x, u = grid_and_trajs()
    t1 = running(0.3, lambda t, xv, uv: xv[0] ** 2)
    t2 = running(1.2, lambda t, xv, uv: uv[0] ** 2)
    joint = evaluate(PerformanceIndex((t1, t2)), grid, x, u)
    split = (evaluate(PerformanceIndex((t1,)), grid, x, u)
             + evaluate(PerformanceIndex((t2,)), grid, x, u))
    assert joint == pytest.approx(split, rel=1e-13)


def test_evaluate_from_interior_node():
    grid, x, u = grid_and_trajs()
    pi = PerformanceIndex((running(1.0, lambda t, x, u: 1.0),))
    assert evaluate(pi, grid, x, u, from_node=40) == pytest.approx(
        0.6, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(v=st.floats(0.1, 2.0),
       seed=st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_evaluate_nonnegative_for_nonnegative_operands(v, seed):
    rng = np.random.default_rng(seed)
    grid = TimeGrid(0.0, 1.0, 30)
    x = rng.uniform(-1, 1, (31, 1))
    u = rng.uniform(-1, 1, (31, 1))
    pi = PerformanceIndex((running(v, lambda t, xv, uv: xv[0] ** 2 + 0.1),))
    assert evaluate(pi, grid, x, u) >= 0.0


def cell_scale(pi, grid, x, u):
    """|terminal value| plus, over the running terms and cells, the
    absolute parts of each cell's quadrature term: the scale of the sums
    that cost_to_go and evaluate round."""
    times = grid.times()
    total = abs(terminal_value(pi, grid.tf, x[-1]))
    for term in pi.running_terms:
        g = np.abs(term.running.nodes(times, x, u))
        far_w, near_w, far, near = kernel_cell_weights(
            grid, term.v, 0, grid.n_steps, "upper")
        total += np.sum(np.abs(far_w) * g[far]
                        + np.abs(near_w) * g[near]) / gamma(term.v)
    return total


_ORDERS = st.one_of(st.floats(0.05, 0.95), st.just(1.0), st.floats(1.05, 2.0))


@settings(max_examples=12, deadline=None)
@given(n=st.integers(1, 2000), tf=st.floats(0.25, 4.0),
       orders=st.lists(_ORDERS, min_size=1, max_size=2),
       with_terminal=st.booleans(),
       seed=st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_cost_to_go_is_the_reference_quadrature_from_every_node(
        n, tf, orders, with_terminal, seed):
    # V[k] and evaluate(from_node=k) sum the same cell terms in different
    # orders, so they differ by rounding alone.  Each side rounds a sum
    # of at most n + 1 cell terms, at most two running terms and a few
    # operations per cell term, so it is within (n + 5) eps/2 times the
    # scale of its terms, and the two within (n + 5) eps times it
    rng = np.random.default_rng(seed)
    grid = TimeGrid(0.0, tf, n)
    x = rng.uniform(-2, 2, (n + 1, 2))
    u = rng.uniform(-2, 2, (n + 1, 1))
    terms = [running(v, lambda t, xv, uv, c=rng.uniform(-1, 1):
                     xv[0] * uv[0] + c * xv[1] ** 2 + t)
             for v in orders]
    if with_terminal:
        terms.append(terminal(lambda tf, xv: xv[0] - xv[1] ** 2))
    pi = PerformanceIndex(tuple(terms))
    v = cost_to_go(pi, grid, x, u)
    ref = np.array([evaluate(pi, grid, x, u, k) for k in range(n + 1)])
    bound = (n + 5) * np.finfo(float).eps * cell_scale(pi, grid, x, u)
    assert v.shape == (n + 1,)
    assert v[-1] == terminal_value(pi, tf, x[-1])
    assert np.max(np.abs(v - ref)) <= bound


def evaluate_by_scalar_forms(pi, grid, x, u, from_node):
    """evaluate with each running operand's scalar form called node by
    node from from_node on."""
    times = grid.times()
    total = terminal_value(pi, grid.tf, x[-1])
    for term in pi.running_terms:
        w = singular_kernel_weights(grid, term.v, from_node, grid.n_steps,
                                    "upper")
        samples = np.array([term.running(times[k], x[k], u[k])
                            for k in range(from_node, grid.n_nodes)])
        total += float(w[from_node:] @ samples)
    return total


@pytest.mark.parametrize("path", [EXAMPLE_FILE, "perfbench/lq_bounded.yaml"])
def test_evaluate_is_the_scalar_forms_quadrature_on_the_bundled_problems(
        path):
    # bit for bit: the node forms of these polynomial operands round as
    # their scalar forms do, and both sums take the same order
    parsed = parse_problem(path)
    state = solve(parsed.problem, parsed.config)
    pi, grid = parsed.problem.index, state.grid
    for k in range(grid.n_nodes):
        assert evaluate(pi, grid, state.x, state.u, k) == \
            evaluate_by_scalar_forms(pi, grid, state.x, state.u, k)


def test_evaluate_calls_each_running_operand_once_over_the_nodes():
    parsed = parse_problem(EXAMPLE_FILE)
    calls = []

    def counted(fn, kind):
        def call(*args):
            calls.append(kind)
            return fn(*args)
        return call

    terms = []
    for term in parsed.problem.index.terms:
        running = counted(term.running, "scalar")
        running.nodes = counted(term.running.nodes, "nodes")
        terms.append(dataclasses.replace(term, running=running))
    pi = PerformanceIndex(tuple(terms))
    grid, x, u = grid_and_trajs()
    for from_node in (0, 37, grid.n_steps):
        calls.clear()
        evaluate(pi, grid, x, u, from_node)
        assert calls == ["nodes"] * len(pi.running_terms)
