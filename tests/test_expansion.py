import math
import time

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sps
from hypothesis import given, settings
from hypothesis import strategies as st

import fracopt as fo
from fracopt import (DomainError, ExpansionCoeffs,
                     SampledFunction, SingularTimeError, TimeGrid,
                     TransformedField, advance_moments, caputo_derivative,
                     derivative_coeff, gamma, moment_coeff, moment_factors,
                     rl_derivative, series_partial_sum, state_coeff)
from fracopt.expansion import _poch

from conftest import bracket_closed_form, moment_trajectory, one_state_field

mp.mp.dps = 40


# ------------------------------------------------------------- series

def test_partial_sum_small_counts_exact():
    # direct term-by-term oracle at high precision
    for q in (0.2, 0.5, 0.9):
        for n in (2, 3, 7, 25):
            direct = float(sum(mp.gamma(p - 1 + q) / (mp.gamma(q)
                                                      * mp.factorial(p - 1))
                               for p in range(2, n + 1)))
            assert series_partial_sum(q, n) == pytest.approx(direct,
                                                             rel=1e-13)


def test_partial_sum_matches_closed_form_large_counts():
    # up to N = 1e5 the term recurrence accumulates rounding along the
    # cumprod chain (measured <= 5e-13); above it the closed form through
    # the large-argument Pochhammer series is within a few ulps
    for q in (0.2, 0.7):
        for n, rel in ((10 ** 4, 1e-12), (10 ** 5, 1e-12),
                       (10 ** 5 + 1, 1e-14), (10 ** 6, 1e-14),
                       (10 ** 9, 1e-14), (10 ** 12, 1e-14)):
            assert series_partial_sum(q, n) == pytest.approx(
                bracket_closed_form(q, n), rel=rel)


@settings(max_examples=300, deadline=None)
@given(log_n=st.floats(5, 12, exclude_min=True),
       q=st.floats(0, 1, exclude_min=True, exclude_max=True))
def test_poch_series_matches_scipy_poch(log_n, q):
    # the range series_partial_sum takes the closed form on: integer N in
    # (1e5, 1e12], q in (0, 1)
    n = float(int(10.0 ** log_n))
    assert _poch(n, q) == sps.poch(n, q)


def state_coeff_oracle(q, n):
    """A(q,N) = (1 + S(q,N)) / Gamma(1-q), S from the mpmath closed form."""
    return (1 + bracket_closed_form(q, n)) / float(mp.gamma(1 - mp.mpf(q)))


def derivative_coeff_oracle(q, n):
    """Divergent B(q,N) = (2 + S(q,N)) / Gamma(2-q), S as above."""
    return (2 + bracket_closed_form(q, n)) / float(mp.gamma(2 - mp.mpf(q)))


def test_state_coeff_hand_value():
    # (1 + Gamma(1.5)/(Gamma(0.5) 1!)) / Gamma(0.5) = 1.5 / sqrt(pi)
    assert state_coeff(0.5, 2) == pytest.approx(0.8462843753, rel=1e-9)


def test_state_coeff_monotone_in_truncation():
    assert state_coeff(0.5, 10 ** 4) > state_coeff(0.5, 10 ** 2)


def test_state_coeff_frozen_regression_values():
    # mpmath values at 40 digits; each pin is also held to the closed-form
    # oracle, so a pin cannot record the drift of an approximation
    for q, pin in ((0.2, 23.49842819972555), (0.7, 29221.98593042229)):
        assert pin == pytest.approx(state_coeff_oracle(q, 10 ** 7),
                                    rel=1e-12)
        assert state_coeff(q, 10 ** 7) == pytest.approx(pin, rel=1e-12)


def test_derivative_coeff_hand_value():
    # p=1 term equals 1: (1 + 1) / Gamma(1.5)
    assert derivative_coeff(0.5, 1) == pytest.approx(2.2567583342, rel=1e-9)


def test_derivative_coeff_frozen_regression_values():
    for q, pin in ((0.2, 30.446706523687772), (0.7, 97407.734010582834)):
        assert pin == pytest.approx(derivative_coeff_oracle(q, 10 ** 7),
                                    rel=1e-12)
        assert derivative_coeff(q, 10 ** 7) == pytest.approx(pin, rel=1e-12)


def test_full_truncation_frozen_regression_values():
    # the full-fidelity tables used by the bundled example (mpmath values)
    for q, a_pin, b_pin in ((0.2, 59.025383424173741, 74.855400554248011),
                            (0.7, 734023.107234086, 2446744.8050227948)):
        assert a_pin == pytest.approx(state_coeff_oracle(q, 10 ** 9),
                                      rel=1e-12)
        assert b_pin == pytest.approx(derivative_coeff_oracle(q, 10 ** 9),
                                      rel=1e-12)
        assert state_coeff(q, 10 ** 9) == pytest.approx(a_pin, rel=1e-12)
        assert derivative_coeff(q, 10 ** 9) == pytest.approx(b_pin,
                                                             rel=1e-12)


def test_coeff_build_cost_independent_of_truncation():
    # the coefficients come from a closed form above N = 1e5; an O(N)
    # summation would take tens of seconds at N = 1e9.  The budget is
    # checked after every build so such a sum fails at the first one.
    budget, spent = 0.5, 0.0
    for n in (10 ** 9, 10 ** 15):
        for q in (0.2, 0.7):
            start = time.perf_counter()
            ExpansionCoeffs.build(q, n, n, 150)
            spent += time.perf_counter() - start
            assert spent < budget, (q, n, spent)


def test_derivative_coeff_dominates_matching_state_sum():
    # B's series holds one extra positive term over A's at matching counts
    for q in (0.25, 0.6):
        for n in (5, 50):
            lhs = derivative_coeff(q, n)
            rhs = state_coeff(q, n + 1) * gamma(1 - q) / gamma(2 - q)
            assert lhs > rhs


def test_convergent_derivative_coeff_matches_direct_sum():
    # closed form vs direct summation of the Gamma(p-1+q)/(Gamma(q-1) p!)
    # kernel, the variant whose series actually converges
    for q, n in ((0.3, 7), (0.8, 12), (0.5, 30)):
        direct = float(
            (1 + sum(mp.gamma(p - 1 + q) / (mp.gamma(q - 1)
                                            * mp.factorial(p))
                     for p in range(1, n + 1))) / mp.gamma(2 - q))
        assert derivative_coeff(q, n, "convergent") == pytest.approx(
            direct, rel=1e-12)


def test_convergent_derivative_coeff_matches_mpmath_large_counts():
    # Gamma(N+q) / (Gamma(q) Gamma(N+1) Gamma(2-q)) at 40 digits
    for q in (0.2, 0.7, 0.999):
        for n in (10 ** 4, 10 ** 6, 10 ** 9):
            qm = mp.mpf(q)
            ref = float(mp.gamma(qm + n) / (mp.gamma(qm) * mp.gamma(n + 1)
                                            * mp.gamma(2 - qm)))
            assert derivative_coeff(q, n, "convergent") == pytest.approx(
                ref, rel=1e-12)


def test_convergent_derivative_coeff_integer_limit():
    # the convergent variant approaches 1 as q -> 1 for any truncation
    for n in (2, 10, 150):
        assert derivative_coeff(0.999, n, "convergent") == pytest.approx(
            1.0, abs=6e-3)


def test_moment_coeff_hand_value():
    # C(0.5, 2) = 1/Gamma(-0.5) = -1/(2 sqrt(pi))
    assert moment_coeff(0.5, 2) == pytest.approx(-0.2820947918, rel=1e-9)


def test_moment_coeff_sign_and_ratio():
    for p in range(2, 40):
        assert moment_coeff(0.5, p) < 0
        ratio = moment_coeff(0.5, p + 1) / moment_coeff(0.5, p)
        assert ratio == pytest.approx((p - 0.5) / p, rel=1e-12)
        assert abs(ratio) < 1


def test_sign_structure_across_orders():
    for q in (0.1, 0.3, 0.5, 0.7, 0.9):
        assert state_coeff(q, 20) > 0
        assert derivative_coeff(q, 20) > 0
        assert derivative_coeff(q, 20, "convergent") > 0
        assert all(moment_coeff(q, p) < 0 for p in (2, 5, 17))


def test_coeff_build_validates():
    with pytest.raises(DomainError):
        ExpansionCoeffs.build(1.2, 10, 10, 10)
    with pytest.raises(DomainError):
        ExpansionCoeffs.build(0.5, 10, 10, 1)
    with pytest.raises(DomainError):
        state_coeff(0.5, 1)


# ------------------------------------------------------- moment states

def test_moments_p2_constant_state():
    grid = TimeGrid(0.0, 1.0, 50)
    moments = moment_trajectory(grid, 4, np.ones((grid.n_nodes, 1)))
    # W_2 solves W' = -x, so W_2(t) = -(t - a) exactly; W_2 = (t-a) M_2
    for k in (10, 25, 50):
        w = grid.node(k) * moments[k, 0, 0]
        assert w == pytest.approx(-grid.node(k), rel=1e-12)


def test_moments_p3_constant_state():
    grid = TimeGrid(0.0, 1.0, 200)
    moments = moment_trajectory(grid, 3, np.ones((grid.n_nodes, 1)))
    # W_3' = -2(t-a): the trapezoidal step integrates linear rates
    # exactly; W_3 = (t-a)^2 M_3
    for k in (40, 120, 200):
        w = grid.node(k) ** 2 * moments[k, 1, 0]
        assert w == pytest.approx(-grid.node(k) ** 2, rel=1e-12)


def test_moments_zero_state_stay_zero():
    grid = TimeGrid(0.0, 1.0, 20)
    moments = moment_trajectory(grid, 10, np.zeros((grid.n_nodes, 2)))
    assert np.all(moments == 0.0)


@settings(max_examples=25, deadline=None)
@given(a=st.floats(-3, 3), b=st.floats(-3, 3),
       seed=st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_moment_advance_is_linear_in_state(a, b, seed):
    rng = np.random.default_rng(seed)
    grid = TimeGrid(0.0, 1.0, 30)
    xs = rng.uniform(-1, 1, (grid.n_nodes, 1))
    ys = rng.uniform(-1, 1, (grid.n_nodes, 1))

    def run(traj):
        return moment_trajectory(grid, 6, traj)

    combo = run(a * xs + b * ys)
    split = a * run(xs) + b * run(ys)
    assert np.allclose(combo, split, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------- memory correction

def test_correction_zero_state_zero_initial():
    coeffs = ExpansionCoeffs.build(0.4, 50, 50, 6)
    w = np.zeros(5)
    field = one_state_field(coeffs)
    assert field.correction(0.5, np.zeros(1), w[:, None])[0] == 0.0


def test_correction_constant_state_hand_formula():
    # x identically c with p_max = 2: W_2(t) = -c (t-a), so M_2 = -c
    c, q, t = 2.0, 0.3, 0.5
    coeffs = ExpansionCoeffs.build(q, 10, 10, 2)
    w = -c * t
    field = one_state_field(coeffs, x0=c)
    got = field.correction(t, np.array([c]), np.array([[w / t]]))[0]
    expected = (-c / gamma(1 - q) * t ** (-q)
                + coeffs.a_val * t ** (-q) * c
                - moment_coeff(q, 2) * t ** (-1 - q) * w)
    assert got == pytest.approx(expected, rel=1e-12)


def test_correction_singular_at_anchor():
    coeffs = ExpansionCoeffs.build(0.4, 10, 10, 4)
    field = one_state_field(coeffs, x0=1.0)
    with pytest.raises(SingularTimeError):
        field.correction(0.0, np.ones(1), np.zeros((3, 1)))


def test_correction_caputo_limit_with_growing_truncation():
    # Caputo(x) ~ correction + B (t-a)^(1-q) x'(t) under the convergent
    # series as every truncation grows together; x(t) = t^2
    q, t = 0.5, 0.5
    grid = TimeGrid(0.0, 1.0, 1000)
    f = SampledFunction.from_callable(grid, lambda s: s ** 2)
    node = 500
    target = caputo_derivative(f, q, node)
    errs = []
    for n in (8, 16, 32):
        coeffs = ExpansionCoeffs.build(q, n, n, n, b_series="convergent")
        ps = np.arange(2, n + 1)
        m = (1.0 - ps) * t ** 2 / (ps + 1.0)   # exact moments of t^2
        field = one_state_field(coeffs)
        approx = (field.correction(t, np.array([t ** 2]), m[:, None])[0]
                  + field.denominator(t)[0] * 2 * t)
        errs.append(abs(approx - target))
    assert errs[0] > errs[1] > errs[2]


# ---------------------------------------------------- transformed field

def probe_plant():
    return fo.FractionalPlant(
        orders=(0.2, 0.7),
        rhs=lambda t, x, u: np.array([x[1] + u[0], -x[0]]),
        x0=np.array([1.0, 0.5]),
        n_controls=1)


def test_field_zero_everything_is_zero():
    plant = fo.FractionalPlant(
        orders=(0.5,), rhs=lambda t, x, u: np.zeros(1),
        x0=np.zeros(1), n_controls=1)
    coeffs = (ExpansionCoeffs.build(0.5, 20, 20, 10),)
    field = TransformedField(plant, coeffs)
    out = field(0.3, np.zeros(1), np.zeros((9, 1)), np.zeros(1))
    assert np.all(out == 0.0)


def test_field_probe_frozen_value():
    # regression constants from the mpmath coefficient values.  With
    # M = 0 and x = x0 each component is
    # (f_i - x0_i t^(-q) (A_i - 1/Gamma(1-q))) / (B_i t^(1-q)).
    plant = probe_plant()
    coeffs = tuple(ExpansionCoeffs.build(q, 10 ** 7, 10 ** 7, 150)
                   for q in plant.orders)
    field = TransformedField(plant, coeffs)
    t, x0 = 0.5, np.array([1.0, 0.5])
    out = field(t, x0, np.zeros((149, 2)), np.array([0.0]))
    rhs = plant.rhs(t, x0, np.array([0.0]))
    pins = (-1.4585627434992201, -0.30000577571087076)
    for i, q in enumerate(plant.orders):
        shift = x0[i] * t ** (-q) * (state_coeff_oracle(q, 10 ** 7)
                                     - 1 / gamma(1 - q))
        oracle = ((rhs[i] - shift)
                  / (derivative_coeff_oracle(q, 10 ** 7) * t ** (1 - q)))
        assert pins[i] == pytest.approx(oracle, rel=1e-12)
        assert out[i] == pytest.approx(pins[i], rel=1e-12)


def test_field_integer_order_limit_recovers_plant_rhs():
    # q -> 1 with the convergent series and a small consistent truncation:
    # the transformed field approaches the original right-hand side
    plant = fo.FractionalPlant(
        orders=(0.999, 0.999),
        rhs=lambda t, x, u: np.array([x[1] + u[0], -x[0]]),
        x0=np.array([1.0, 0.5]),
        n_controls=1)
    n = 8
    coeffs = tuple(ExpansionCoeffs.build(q, n, n, n, b_series="convergent")
                   for q in plant.orders)
    field = TransformedField(plant, coeffs)
    grid = TimeGrid(0.0, 1.0, 100)
    moments = np.zeros((grid.n_nodes, n - 1, 2))
    x = np.empty((grid.n_nodes, 2))
    x[0] = plant.x0
    u = np.array([0.3])
    x[1] = x[0] + grid.dt * plant.rhs(0.0, x[0], u)
    decay, fac = moment_factors(grid, n - 1)
    moments[1] = advance_moments(moments[0], x[0], decay[0], fac[0])
    for k in range(1, grid.n_steps):
        x[k + 1] = x[k] + grid.dt * field(grid.node(k), x[k],
                                          moments[k], u)
        moments[k + 1] = advance_moments(moments[k], x[k], decay[k],
                                         fac[k])
    for k in (20, 50, 80):
        ft = field(grid.node(k), x[k], moments[k], u)
        f0 = plant.rhs(grid.node(k), x[k], u)
        assert np.max(np.abs(ft - f0)) <= 0.05 * max(1.0, np.max(np.abs(f0)))


def test_field_singular_at_anchor():
    plant = probe_plant()
    coeffs = tuple(ExpansionCoeffs.build(q, 10, 10, 5)
                   for q in plant.orders)
    field = TransformedField(plant, coeffs)
    with pytest.raises(SingularTimeError):
        field(0.0, plant.x0, np.zeros((4, 2)), np.array([0.0]))


# ------------------------------------------- factors kept per time

INTERLEAVED = [TimeGrid.from_step(0.0, 1.0, dt) for dt in (0.01, 0.005)] * 2


def test_field_factors_survive_interleaved_grids():
    # one field through two grids in turn gives, at every node, what a
    # field built afresh for that pass gives, and what the formulas give
    from conftest import two_state_problem
    prob = two_state_problem().with_field(10 ** 4, 10 ** 4, 20)
    shared = prob.field
    plant = prob.plant
    rng = np.random.default_rng(3)
    for grid in INTERLEAVED:
        fresh = TransformedField(plant, shared.coeffs)
        for k in range(1, grid.n_nodes):
            for t in (grid.times()[k], grid.node(k)):
                x = rng.uniform(-2, 2, 2)
                m_node = rng.uniform(-2, 2, (19, 2))
                u = rng.uniform(-2, 2, 1)
                corr = shared.correction(t, x, m_node)
                assert np.array_equal(corr, fresh.correction(t, x, m_node))
                assert np.array_equal(corr, [
                    (t - plant.t0) ** (-c.q)
                    * (-plant.x0[i] / math.gamma(1 - c.q) + c.a_val * x[i]
                       - float(np.dot(c.c_vals, m_node[:, i])))
                    for i, c in enumerate(shared.coeffs)])
                denom = shared.denominator(t)
                assert np.array_equal(denom, fresh.denominator(t))
                assert np.array_equal(   # in numpy's array power
                    denom, np.array([c.b_val for c in shared.coeffs])
                    * (t - plant.t0) ** (1.0 - np.array(plant.orders)))
                assert np.array_equal(   # over node arrays of one node
                    shared.jacobian_x(np.array([t]), x[None], u[None]),
                    fresh.jacobian_x(np.array([t]), x[None], u[None]))


def test_field_factors_are_read_only_and_singular_time_is_not_kept():
    from conftest import two_state_problem
    field = two_state_problem().with_field(100, 100, 5).field
    with pytest.raises(ValueError):
        field.denominator(0.5)[0] = 1.0
    for _ in range(2):
        with pytest.raises(SingularTimeError):
            field.correction(0.0, np.ones(2), np.zeros((4, 2)))
        with pytest.raises(SingularTimeError):
            field.jacobian_x(np.array([-0.1]), np.ones((1, 2)),
                             np.zeros((1, 1)))


def test_moment_step_equals_its_formula_on_interleaved_grids():
    ps = np.arange(2, 151, dtype=float)
    rng = np.random.default_rng(4)
    for grid in INTERLEAVED:
        m = np.zeros((149, 2))
        decay, fac = moment_factors(grid, 149)
        for k in range(grid.n_steps):
            x = rng.uniform(-2, 2, 2)
            t_next = grid.node(k + 1) - grid.t0
            rho = (grid.node(k) - grid.t0) / t_next
            want = (rho ** (ps - 1.0))[:, None] * m + np.outer(
                0.5 * grid.dt / t_next * (1.0 - ps) * (rho ** (ps - 2.0) + 1.0),
                x)
            m = advance_moments(m, x, decay[k], fac[k])
            assert np.array_equal(m, want)


@settings(max_examples=25, deadline=None)
@given(t0=st.floats(-10.0, 10.0), span=st.floats(1e-3, 100.0),
       n_steps=st.integers(1, 3000), p_max=st.integers(2, 200))
def test_moment_tables_equal_the_scalar_step_at_every_node(t0, span,
                                                           n_steps, p_max):
    # the tables are taken with the base rho as a column against the
    # p-vectors; each row must round as the step of one node does, with
    # rho a float base: t_{k+1} - a, rho and the powers as
    # advance_moments took them before the tables
    grid = TimeGrid(t0, t0 + span, n_steps)
    decay, fac = moment_factors(grid, p_max - 1)
    assert decay.shape == fac.shape == (n_steps, p_max - 1)
    ps = np.arange(2, p_max + 1).astype(float)
    for k in range(n_steps):
        t_next = grid.node(k + 1) - grid.t0
        rho = (grid.node(k) - grid.t0) / t_next
        half_step = 0.5 * grid.dt / t_next
        assert np.array_equal(decay[k], rho ** (ps - 1.0))
        assert np.array_equal(
            fac[k], half_step * (1.0 - ps) * (rho ** (ps - 2.0) + 1.0))


# ------------------------------------------------------- reconstruction

def exact_moments(ps, t, m):
    """M_p(t) = t^(1-p) W_p(t) for x(s) = s^m, integrated in closed form."""
    return (1.0 - ps) * t ** m / (m + ps - 1.0)


def reconstruction_errors(q, levels, t, m, series):
    true = gamma(m + 1) / gamma(m + 1 - q) * t ** (m - q)
    errs = []
    for n in levels:
        coeffs = ExpansionCoeffs.build(q, n, n, n, b_series=series)
        ps = coeffs.p_values.astype(float)
        xd = m * t ** (m - 1)
        field = one_state_field(coeffs)
        got = (field.correction(t, np.array([t ** m]),
                                exact_moments(ps, t, m)[:, None])[0]
               + field.denominator(t)[0] * xd)
        errs.append(abs(got - true))
    return errs


def test_reconstruction_converges_for_linear_and_quadratic():
    for m in (1, 2):
        for q in (0.2, 0.5, 0.7):
            errs = reconstruction_errors(q, (8, 16, 32), 0.5, m,
                                         "convergent")
            # linear inputs reconstruct to rounding at every level; the
            # quadratic case decreases strictly
            assert all(e < 1e-12 for e in errs) \
                or errs[0] > errs[1] > errs[2]
            assert errs[2] < 5e-3


def test_reconstruction_matches_grid_operator():
    # cross-check against the quadrature-based derivative at grid nodes
    q = 0.5
    grid = TimeGrid(0.0, 1.0, 1000)
    f = SampledFunction.from_callable(grid, lambda s: s ** 2)
    coeffs = ExpansionCoeffs.build(q, 64, 64, 64, b_series="convergent")
    ps = coeffs.p_values.astype(float)
    field = one_state_field(coeffs)
    for node in (300, 500, 800):
        t = grid.node(node)
        got = (field.correction(t, np.array([t ** 2]),
                                exact_moments(ps, t, 2)[:, None])[0]
               + field.denominator(t)[0] * 2 * t)
        ref = rl_derivative(f, q, node)
        assert got == pytest.approx(ref, rel=2e-3)


def test_reconstruction_diverges_with_partial_sum_series():
    # characterization of the divergent convention: the same refinement
    # schedule drives the reconstruction away from the true derivative
    errs = reconstruction_errors(0.5, (8, 16, 32), 0.5, 2, "divergent")
    assert errs[0] < errs[1] < errs[2]


def test_moment_term_tail_shrinks_with_cutoff():
    # adding moment terms shrinks the neglected tail for t - a <= 1
    q, t = 0.4, 0.8
    coeffs = ExpansionCoeffs.build(q, 200, 200, 200)
    ps = coeffs.p_values.astype(float)
    m = exact_moments(ps, t, 1)
    terms = np.abs(coeffs.c_vals * t ** (-q) * m)
    tails = np.cumsum(terms[::-1])[::-1]
    assert np.all(np.diff(tails[:100]) < 0)
