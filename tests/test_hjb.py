import numpy as np
import pytest
import scipy.special as sps

import fracopt as fo
from fracopt import (aggregate_error, gamma, minimize_node_hamiltonian,
                     node_hamiltonian)
from fracopt.hjb import _minimize_box

from conftest import two_state_problem


def small_field_problem():
    prob = two_state_problem()
    return prob.with_field(10 ** 5, 10 ** 5, 40)


def stored_residual(prob, st, u, k):
    """Residual at node k: the Hamiltonian at the stored data plus V_t."""
    return node_hamiltonian(prob, st.grid, k, st.x[k], st.moments.at_node(k),
                            u[k], st.value.v_x[k]) + st.value.v_t[k]


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
    h = node_hamiltonian(prob, fo.TimeGrid(0.0, 1.0, 2), 1, np.zeros(1),
                         np.zeros((4, 1)), np.array([0.7]), np.zeros(1))
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
        got = node_hamiltonian(prob, grid, k, x, w, u, lam)
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


# ---------------------------------------------------------- minimizers

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
        u_q, _ = minimize_node_hamiltonian(prob, grid, k, x, w, lam)
        assert u_q[0] == pytest.approx(analytic, rel=1e-9, abs=1e-11)
        # numeric (coordinate search) route agrees with the quadratic route
        import dataclasses
        prob_n = dataclasses.replace(prob, quadratic_control=False)
        u_n, _ = minimize_node_hamiltonian(prob_n, grid, k, x, w, lam)
        assert u_n[0] == pytest.approx(u_q[0], abs=1e-7)


def test_minimize_hamiltonian_public_signature():
    prob = small_field_problem()
    u, h = minimize_node_hamiltonian(prob, fo.TimeGrid(0.0, 1.0, 2), 1,
                                     np.array([1.0, 0.5]), np.zeros((39, 2)),
                                     np.array([0.2, -0.1]))
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


def test_value_terminal_condition(cheap_state):
    # V at the final node equals the terminal boundary value exactly
    assert cheap_state.value.v[-1] == 0.0


def test_minimizer_optimality_at_convergence(cheap_state):
    prob = two_state_problem().with_field(10 ** 5, 10 ** 5, 40)
    st = cheap_state
    grid = st.grid
    for k in range(5, grid.n_nodes - 5, 10):
        h0 = node_hamiltonian(prob, grid, k, st.x[k], st.moments.at_node(k),
                              st.u_star[k], st.value.v_x[k])
        for delta in (1e-4, -1e-4):
            hp = node_hamiltonian(prob, grid, k, st.x[k],
                                  st.moments.at_node(k),
                                  st.u_star[k] + delta, st.value.v_x[k])
            assert hp >= h0 - 1e-12
