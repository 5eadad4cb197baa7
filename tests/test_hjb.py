import math

import numpy as np
import pytest
import scipy.optimize as sopt
import scipy.special as sps
from hypothesis import given, settings
from hypothesis import strategies as st

import fracopt as fo
from fracopt import (SweepAbort, aggregate_error, freeze_node, gamma,
                     minimize_node_hamiltonian, node_hamiltonian,
                     running_weight)
from fracopt import hjb
from fracopt.hjb import _minimize_box
from fracopt.sweep import audit_residuals

from conftest import moment_trajectory, two_state_config, two_state_problem


def small_field_problem():
    prob = two_state_problem()
    return prob.with_field(10 ** 5, 10 ** 5, 40)


def stored_residual(prob, st, u, k):
    """Residual at node k: the Hamiltonian at the stored data minus the
    sweep's own Hamiltonian h."""
    node = freeze_node(prob, st.grid, k, st.x[k],
                       moment_trajectory(st.grid, 40, st.x)[k])
    return node_hamiltonian(node, u[k], st.value.v_x[k]) - st.value.h[k]


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
    node = freeze_node(prob, fo.TimeGrid(0.0, 1.0, 2), 1, np.zeros(1),
                       np.zeros((4, 1)))
    h = node_hamiltonian(node, np.array([0.7]), np.zeros(1))
    assert h == pytest.approx(0.0, abs=1e-15)


def test_hamiltonian_matches_independent_transcription():
    # straight-line transcription of the two-state problem's Hamiltonian
    prob = small_field_problem()
    coeffs = prob.field.coeffs
    a_vals = np.array([c.a_val for c in coeffs])
    b_vals = np.array([c.b_val for c in coeffs])
    grid = fo.TimeGrid(0.0, 1.0, 100)
    rng = np.random.default_rng(7)
    for _ in range(10):
        k = int(rng.integers(1, 100))
        t = grid.node(k)
        x = rng.uniform(-1, 1, 2)
        lam = rng.uniform(-1, 1, 2)
        u = rng.uniform(-2, 2, 1)
        w = np.zeros((39, 2))
        got = node_hamiltonian(freeze_node(prob, grid, k, x, w), u, lam)
        w1 = (1 - t) ** (0.3 - 1) / gamma(0.3)
        w2 = (1 - t) ** (0.4 - 1) / gamma(0.4)
        k1 = (-1.0 / gamma(0.8) + a_vals[0] * x[0]) * t ** (-0.2)
        k2 = (-0.5 / gamma(0.3) + a_vals[1] * x[1]) * t ** (-0.7)
        f1 = (x[1] + u[0] - k1) / (b_vals[0] * t ** 0.8)
        f2 = (-x[0] - k2) / (b_vals[1] * t ** 0.3)
        ref = (w1 * (x[0] ** 2 + x[1] ** 2)
               + w2 * (x[0] ** 2 + u[0] ** 2)
               + lam[0] * f1 + lam[1] * f2)
        assert got == pytest.approx(ref, rel=1e-12)


def test_node_hamiltonian_on_record_equals_from_scratch():
    # the frozen record reproduces, bit for bit, the Hamiltonian computed
    # afresh from the weights, the operands and the full transformed field
    prob = small_field_problem()
    grid = fo.TimeGrid(0.0, 1.0, 100)
    n = grid.n_steps
    rng = np.random.default_rng(11)
    for k in (0, 1, 37, n - 1, n):
        x = rng.uniform(-1, 1, 2)
        m_node = rng.uniform(-2, 2, (39, 2))
        u = rng.uniform(-2, 2, 1)
        lam = rng.uniform(-1, 1, 2)
        t_run = grid.node(n - 1) if k == n else grid.node(k)
        t_field = grid.node(1) if k == 0 else grid.node(k)
        total = 0.0
        for term in prob.index.running_terms:
            total += running_weight(term.v, t_run, prob.tf) \
                * term.running(t_run, x, u)
        ref = total + float(np.dot(lam, prob.field(t_field, x, m_node, u)))
        node = freeze_node(prob, grid, k, x, m_node)
        assert (node.t_run, node.t_field) == (t_run, t_field)
        assert node_hamiltonian(node, u, lam) == ref


def test_node_hamiltonian_takes_any_control_form():
    prob = small_field_problem()
    grid = fo.TimeGrid(0.0, 1.0, 100)
    rng = np.random.default_rng(12)
    node = freeze_node(prob, grid, 40, rng.uniform(-1, 1, 2),
                       rng.uniform(-2, 2, (39, 2)))
    lam = rng.uniform(-1, 1, 2)
    want = node_hamiltonian(node, np.array([3.0]), lam)
    for u in (3.0, 3, [3.0], np.array([3]), np.array(3.0)):
        assert node_hamiltonian(node, u, lam) == want


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


@settings(max_examples=200, deadline=None)
@given(c=st.lists(st.floats(-3, 3), min_size=5, max_size=5),
       lo=st.floats(-10, 10), width=st.floats(1e-6, 20))
def test_scalar_search_matches_scipy_bounded(c, lo, width):
    # a smooth function with up to several local minima in the box
    def f(v):
        return (c[0] * (v - c[1]) ** 2 + c[2] * math.sin(c[3] * v)
                + 0.01 * c[4] * v ** 3)

    hi = lo + width
    assert hjb.minimize_scalar(f, lo, hi, 1e-10) == _scipy_bounded(f, lo, hi)


def test_scalar_search_minimum_at_a_bound():
    # increasing on the box: the search closes in on lo, but never probes
    # nearer to it than its step floor sqrt(eps) |x| + xatol / 3
    f = math.exp
    x = hjb.minimize_scalar(f, -1.0, 2.0, 1e-10)
    assert x == _scipy_bounded(f, -1.0, 2.0)
    assert -1.0 < x < -1.0 + 3e-8


def test_scalar_search_stops_at_the_evaluation_cap():
    # sqrt|v| has a cusp at 0 and xatol is below every step the search
    # can take there, so only the cap of 500 evaluations stops it
    calls = []

    def f(v):
        calls.append(v)
        return math.sqrt(abs(v))

    x = hjb.minimize_scalar(f, -1.0, 1.0, 1e-300)
    assert len(calls) == 500
    assert x == _scipy_bounded(lambda v: math.sqrt(abs(v)), -1.0, 1.0,
                               1e-300)


def test_minimize_box_one_control_takes_one_search(monkeypatch):
    def h(u):
        return (u[0] - 0.3) ** 4 + np.sin(3.0 * u[0])

    lo, hi = np.array([-2.0]), np.array([2.0])
    # reference: two full coordinate sweeps of the bounded search
    ref = np.clip(np.zeros(1), lo, hi)
    for _ in range(2):
        res = sopt.minimize_scalar(lambda v: h(np.array([v])),
                                   bounds=(lo[0], hi[0]),
                                   method="bounded",
                                   options={"xatol": 1e-10})
        ref[0] = res.x
    calls = _counting_scalar_search(monkeypatch)
    u, h_u = _minimize_box(h, lo, hi, False)
    assert len(calls) == 1
    assert u[0] == ref[0]
    assert h_u == h(ref)


def test_minimize_box_several_controls_sweep_until_still(monkeypatch):
    # coupled controls: one coordinate sweep does not reach the minimum
    def h(u):
        return (u[0] + u[1] - 1.0) ** 2 + 0.1 * (u[0] - u[1]) ** 2

    calls = _counting_scalar_search(monkeypatch)
    u, _ = _minimize_box(h, np.array([-2.0, -2.0]), np.array([2.0, 2.0]),
                         False)
    assert len(calls) >= 4 and len(calls) % 2 == 0
    assert np.allclose(u, [0.5, 0.5], atol=1e-7)


def test_minimize_box_quadratic_interior():
    u, h = _minimize_box(lambda u: u[0] ** 2 + 2 * u[0],
                         np.array([-10.0]), np.array([10.0]), True)
    assert u[0] == pytest.approx(-1.0, abs=1e-12)
    assert h == pytest.approx(-1.0, abs=1e-12)


def test_minimize_box_clips_to_bounds():
    u, h = _minimize_box(lambda u: u[0] ** 2 + 2 * u[0],
                         np.array([0.0]), np.array([10.0]), True)
    assert u[0] == 0.0
    assert h == pytest.approx(0.0, abs=1e-12)


def test_minimize_box_checks_endpoint_probes():
    # h has no interior minimum, so the endpoints are probed; a NaN at the
    # lower one must abort, not lose the comparison to the upper one
    def h(u):
        return np.nan if u[0] < -1.5 else -u[0] ** 2

    with pytest.raises(SweepAbort, match="non-finite"):
        _minimize_box(h, np.array([-2.0]), np.array([2.0]), True)


def test_minimize_box_quadratic_fixed_axis_is_never_probed():
    # axis 0 is pinned (lo == hi); axis 1 still reaches its vertex
    probes = []

    def h(u):
        probes.append(u.copy())
        return (u[0] - 0.3) ** 2 + 2 * (u[1] + 0.4) ** 2

    u, _ = _minimize_box(h, np.array([0.7, -1.0]), np.array([0.7, 1.0]),
                         True)
    assert u[0] == 0.7
    assert u[1] == pytest.approx(-0.4, abs=1e-12)
    assert all(probe[0] == 0.7 for probe in probes)


def test_minimize_box_quadratic_coupled_axes_are_probed_in_turn():
    # one sweep, each axis probed from the point the earlier axes reached:
    # u0 minimizes h(., 0) -> 0.5, then u1 minimizes h(0.5, .) -> -0.25;
    # three probes per axis and one final evaluation
    probes = []

    def h(u):
        probes.append(u.copy())
        return u[0] ** 2 + u[1] ** 2 + u[0] * u[1] - u[0]

    u, hu = _minimize_box(h, np.array([-2.0, -2.0]), np.array([2.0, 2.0]),
                          True)
    assert u == pytest.approx([0.5, -0.25], abs=1e-12)
    assert hu == pytest.approx(-0.3125, abs=1e-12)
    assert len(probes) == 3 * 2 + 1
    assert all(probe[0] == u[0] for probe in probes[3:])


def test_minimize_box_coordinate_descent_matches_quadratic():
    def h(u):
        return (u[0] - 0.3) ** 2 + 2 * (u[1] + 0.4) ** 2

    lo, hi = np.array([-1.0, -1.0]), np.array([1.0, 1.0])
    uq, _ = _minimize_box(h, lo, hi, True)
    un, _ = _minimize_box(h, lo, hi, False)
    assert np.allclose(uq, [0.3, -0.4], atol=1e-10)
    assert np.allclose(un, uq, atol=1e-7)


def test_minimizer_agrees_with_analytic_update():
    # closed-form stationary point of the two-state problem's Hamiltonian:
    # u* = -lam_1 Gamma(0.4) (1-t)^0.6 / (2 B(0.2) t^0.8), then clipped
    prob = small_field_problem()
    b1 = prob.field.coeffs[0].b_val
    rng = np.random.default_rng(3)
    grid = fo.TimeGrid(0.0, 1.0, 100)
    for _ in range(20):
        k = int(rng.integers(1, 100))
        t = grid.node(k)
        x = rng.uniform(-1, 1, 2)
        lam = rng.uniform(-3, 3, 2)
        w = np.zeros((39, 2))
        analytic = -lam[0] * sps.gamma(0.4) * (1 - t) ** 0.6 \
            / (2 * b1 * t ** 0.8)
        analytic = min(max(analytic, -10.0), 10.0)
        node = freeze_node(prob, grid, k, x, w)
        u_q, _ = minimize_node_hamiltonian(prob, node, lam)
        assert u_q[0] == pytest.approx(analytic, rel=1e-9, abs=1e-11)
        # numeric (coordinate search) route agrees with the quadratic route
        import dataclasses
        prob_n = dataclasses.replace(prob, quadratic_control=False)
        u_n, _ = minimize_node_hamiltonian(prob_n, node, lam)
        assert u_n[0] == pytest.approx(u_q[0], abs=1e-7)


def test_minimize_hamiltonian_public_signature():
    prob = small_field_problem()
    node = freeze_node(prob, fo.TimeGrid(0.0, 1.0, 2), 1,
                       np.array([1.0, 0.5]), np.zeros((39, 2)))
    u, h = minimize_node_hamiltonian(prob, node, np.array([0.2, -0.1]))
    assert prob.u_lower[0] <= u[0] <= prob.u_upper[0]
    assert np.isfinite(h)


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
    for k in (0, 1, 50, 99, 100):
        r = stored_residual(prob, st, st.u_star, k)
        assert r == pytest.approx(st.residuals[k], rel=1e-9, abs=1e-12)


def test_perturbing_control_increases_aggregate_error(cheap_state):
    prob = two_state_problem().with_field(10 ** 5, 10 ** 5, 40)
    st = cheap_state
    base = aggregate_error([stored_residual(prob, st, st.u_star, k)
                            for k in range(st.grid.n_nodes)])
    u_pert = st.u_star.copy()
    u_pert[50, 0] += 1e-3
    pert = aggregate_error([stored_residual(prob, st, u_pert, k)
                            for k in range(st.grid.n_nodes)])
    assert pert > base


def test_residual_is_the_hamiltonian_gap(cheap_state):
    # the residual is H(u*) - H(u), both taken on the evaluation's records
    prob = two_state_problem().with_field(10 ** 5, 10 ** 5, 40)
    cfg = two_state_config(n_a=10 ** 5, n_b=10 ** 5, p_max=40)
    st = cheap_state
    audited, value = audit_residuals(prob, st.x, st.u, cfg)
    runs = [(st.residuals, st.value, st.u_star),
            (audited, value,
             [minimize_node_hamiltonian(prob, node, value.v_x[k])[0]
              for k, node in enumerate(value.nodes)])]
    for residuals, value, u_star in runs:
        for k, node in enumerate(value.nodes):
            gap = (node_hamiltonian(node, u_star[k], value.v_x[k])
                   - node_hamiltonian(node, st.u[k], value.v_x[k]))
            assert residuals[k] == gap


def test_value_terminal_condition(cheap_state):
    # V at the final node equals the terminal boundary value exactly
    assert cheap_state.value.v[-1] == 0.0


def test_minimizer_optimality_at_convergence(cheap_state):
    prob = two_state_problem().with_field(10 ** 5, 10 ** 5, 40)
    st = cheap_state
    grid = st.grid
    moments = moment_trajectory(grid, 40, st.x)
    for k in range(5, grid.n_nodes - 5, 10):
        node = freeze_node(prob, grid, k, st.x[k], moments[k])
        h0 = node_hamiltonian(node, st.u_star[k], st.value.v_x[k])
        for delta in (1e-4, -1e-4):
            hp = node_hamiltonian(node, st.u_star[k] + delta,
                                  st.value.v_x[k])
            assert hp >= h0 - 1e-12
