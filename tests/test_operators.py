import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, trapezoid

from fracopt import (DomainError, SampledFunction, TimeGrid,
                     caputo_derivative, gamma, rl_derivative,
                     rl_integral_left, rl_integral_right)
from fracopt.operators import kernel_cell_weights, singular_kernel_weights

mp.mp.dps = 30


def sampled(fn, n=100, t0=0.0, tf=1.0):
    return SampledFunction.from_callable(TimeGrid(t0, tf, n), fn)


# ---------------------------------------------------------------- gamma

def test_gamma_integers():
    assert gamma(1) == pytest.approx(1.0, rel=1e-14)
    assert gamma(5) == pytest.approx(24.0, rel=1e-14)


def test_gamma_half():
    # high-precision oracle value, frozen: Gamma(1/2) = sqrt(pi)
    assert gamma(0.5) == pytest.approx(1.7724538509055160273, rel=1e-13)


def test_gamma_accuracy_against_mpmath():
    for v in np.linspace(0.05, 50.0, 37):
        ref = float(mp.gamma(mp.mpf(float(v))))
        assert gamma(float(v)) == pytest.approx(ref, rel=1e-12)


def test_gamma_pole_rejected():
    for v in (0.0, -1.0, -7.0):
        with pytest.raises(DomainError):
            gamma(v)


def test_gamma_overflow_rejected():
    # Gamma(200) and Gamma(1e-320) exceed the largest float
    for v in (200.0, 1e-320):
        with pytest.raises(DomainError, match=f"overflows at {v}"):
            gamma(v)


def test_gamma_negative_noninteger_allowed():
    # Gamma(-0.5) = -2 sqrt(pi)
    assert gamma(-0.5) == pytest.approx(-2 * math.sqrt(math.pi), rel=1e-12)


# ------------------------------------------------------- left integral

def test_left_integral_constant_order_one():
    f = sampled(lambda t: 1.0)
    assert rl_integral_left(f, 1.0, 100) == pytest.approx(1.0, abs=1e-12)


def test_left_integral_constant_half_order():
    f = sampled(lambda t: 1.0)
    expected = 1.0 / gamma(1.5)
    assert rl_integral_left(f, 0.5, 100) == pytest.approx(expected, rel=1e-12)


def test_left_integral_linear_power_rule():
    f = sampled(lambda t: t)
    expected = gamma(2) / gamma(2.3)
    assert rl_integral_left(f, 0.3, 100) == pytest.approx(expected, rel=1e-12)
    # independent adaptive-quadrature oracle with the algebraic weight
    oracle = quad(lambda tau: tau, 0.0, 1.0, weight="alg",
                  wvar=(0.0, -0.7))[0] / gamma(0.3)
    assert rl_integral_left(f, 0.3, 100) == pytest.approx(oracle, rel=1e-10)


def test_left_integral_rejects_nonpositive_order():
    f = sampled(lambda t: 1.0)
    with pytest.raises(DomainError):
        rl_integral_left(f, 0.0, 100)
    with pytest.raises(DomainError):
        rl_integral_left(f, -0.5, 100)


def test_left_integral_order_one_is_trapezoid():
    f = sampled(lambda t: math.sin(3 * t) + t ** 2)
    grid = f.grid
    for node in (17, 60, 100):
        ref = trapezoid(f.values[:node + 1], grid.times()[:node + 1])
        assert rl_integral_left(f, 1.0, node) == pytest.approx(ref, abs=1e-12)


# ------------------------------------------------------ right integral

def test_right_integral_constant():
    f = sampled(lambda t: 1.0)
    assert rl_integral_right(f, 1.0, 0) == pytest.approx(1.0, abs=1e-12)
    assert rl_integral_right(f, 0.5, 0) == pytest.approx(1 / gamma(1.5),
                                                         rel=1e-12)


def test_right_integral_mirror_power_rule():
    f = sampled(lambda t: 1.0 - t)
    expected = gamma(2) / gamma(2.3)
    assert rl_integral_right(f, 0.3, 0) == pytest.approx(expected, rel=1e-12)
    oracle = quad(lambda tau: 1 - tau, 0.0, 1.0, weight="alg",
                  wvar=(-0.7, 0.0))[0] / gamma(0.3)
    assert rl_integral_right(f, 0.3, 0) == pytest.approx(oracle, rel=1e-10)


# ---------------------------------------------------- Caputo derivative

def test_caputo_of_constant_vanishes():
    f = sampled(lambda t: 3.7)
    for node in range(0, 101, 10):
        assert caputo_derivative(f, 0.5, node) == pytest.approx(0.0, abs=1e-13)


def test_caputo_linear_power_rule():
    f = sampled(lambda t: t, n=400)
    expected = 1.0 / gamma(1.5)
    assert caputo_derivative(f, 0.5, 400) == pytest.approx(expected, rel=1e-10)
    oracle = quad(lambda tau: 1.0, 0.0, 1.0, weight="alg",
                  wvar=(0.0, -0.5))[0] / gamma(0.5)
    assert caputo_derivative(f, 0.5, 400) == pytest.approx(oracle, rel=1e-10)


def test_caputo_near_integer_order_limit():
    # lim_{q->1} of the derivative of t at t=1 is 1
    f = sampled(lambda t: t, n=400)
    assert caputo_derivative(f, 0.999, 400) == pytest.approx(1.0, abs=1e-2)


def test_caputo_rejects_bad_order():
    f = sampled(lambda t: t)
    for q in (0.0, 1.0, 1.3, -0.2):
        with pytest.raises(DomainError):
            caputo_derivative(f, q, 50)


def test_q_to_one_consistency_monotone():
    # error against the central difference shrinks as q -> 1
    f = sampled(lambda t: t ** 3, n=10000)
    node = 5000
    dt = f.grid.dt
    central = (f.values[node + 1] - f.values[node - 1]) / (2 * dt)
    errs = [abs(caputo_derivative(f, 1 - eps, node) - central)
            for eps in (1e-1, 1e-2, 1e-3)]
    assert errs[0] > errs[1] > errs[2]


# ------------------------------------------------------- RL derivative

def test_rl_equals_caputo_for_zero_initial_value():
    f = sampled(lambda t: t * (1 - t), n=200)
    for node in range(1, 201, 20):
        assert rl_derivative(f, 0.4, node) == pytest.approx(
            caputo_derivative(f, 0.4, node), rel=1e-12, abs=1e-14)


def test_rl_of_constant():
    f = sampled(lambda t: 1.0)
    expected = 1.0 / gamma(0.5)   # c (t-a)^{-q} / Gamma(1-q) at t = 1
    assert rl_derivative(f, 0.5, 100) == pytest.approx(expected, rel=1e-10)


def test_rl_near_integer_order_limit():
    f = sampled(lambda t: t, n=400)
    assert rl_derivative(f, 0.999, 400) == pytest.approx(1.0, abs=2e-2)


def test_rl_singular_marker_at_initial_node():
    f = sampled(lambda t: 1.0 + t)
    out = rl_derivative(f, 0.5, 0)
    assert math.isinf(out) and out > 0
    g = sampled(lambda t: -2.0 + t)
    assert rl_derivative(g, 0.5, 0) == -math.inf
    h = sampled(lambda t: t)
    assert rl_derivative(h, 0.5, 0) == 0.0


def test_caputo_rl_relation():
    # RL - Caputo = f(t0) (t-t0)^{-q} / Gamma(1-q) at interior nodes
    f = sampled(lambda t: 2.0 + t ** 2, n=100)
    q = 0.3
    for node in range(1, 101, 9):
        t = f.grid.node(node)
        corr = 2.0 * t ** (-q) / gamma(1 - q)
        got = rl_derivative(f, q, node) - caputo_derivative(f, q, node)
        assert got == pytest.approx(corr, rel=1e-10)


# ------------------------------------------------------------ linearity

@settings(max_examples=30, deadline=None)
@given(a=st.floats(-5, 5), b=st.floats(-5, 5),
       seed=st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_operator_linearity(a, b, seed):
    rng = np.random.default_rng(seed)
    grid = TimeGrid(0.0, 1.0, 40)
    fv = rng.uniform(-1, 1, grid.n_nodes)
    gv = rng.uniform(-1, 1, grid.n_nodes)
    f = SampledFunction(grid, fv)
    g = SampledFunction(grid, gv)
    combo = SampledFunction(grid, a * fv + b * gv)
    ops = [lambda h: rl_integral_left(h, 0.6, 40),
           lambda h: rl_integral_right(h, 0.6, 0),
           lambda h: caputo_derivative(h, 0.5, 40)]
    for op in ops:
        lhs = op(combo)
        rhs = a * op(f) + b * op(g)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


# --------------------------------------------- order-of-accuracy helpers

def observed_order(op, true_value, fn, n_values=(64, 128, 256)):
    """log2 error ratio under grid halving; returns the two measured rates."""
    errs = []
    for n in n_values:
        f = sampled(fn, n=n)
        errs.append(abs(op(f, f.grid.n_steps) - true_value))
    return [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]


def test_integral_order_of_accuracy_quadratic():
    for v in (0.3, 0.5, 1.5):
        true = gamma(3) / gamma(3 + v)
        rates = observed_order(lambda f, n: rl_integral_left(f, v, n),
                               true, lambda t: t ** 2)
        for r in rates:
            assert r == pytest.approx(2.0, abs=0.3)


def test_caputo_order_of_accuracy_quadratic():
    for q in (0.2, 0.5, 0.7):
        true = gamma(3) / gamma(3 - q)
        rates = observed_order(lambda f, n: caputo_derivative(f, q, n),
                               true, lambda t: t ** 2)
        for r in rates:
            assert r == pytest.approx(2.0 - q, abs=0.3)


def test_power_rule_exact_for_piecewise_linear_inputs():
    # constants and linears are reproduced to rounding by construction
    c = sampled(lambda t: 1.0)
    lin = sampled(lambda t: t)
    assert rl_integral_left(c, 0.5, 100) == pytest.approx(1 / gamma(1.5),
                                                          rel=1e-13)
    assert rl_integral_left(lin, 0.5, 100) == pytest.approx(
        gamma(2) / gamma(2.5), rel=1e-13)
    assert caputo_derivative(lin, 0.5, 100) == pytest.approx(
        1 / gamma(1.5), rel=1e-13)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 1000), tf=st.floats(0.25, 4.0),
       v=st.one_of(st.floats(0.05, 0.95), st.just(1.0), st.floats(1.05, 2.0)),
       side=st.sampled_from(["upper", "lower"]), data=st.data())
def test_kernel_weights_equal_a_scatter_add_reference(n, tf, v, side, data):
    # the far and near cells are contiguous slices with no repeated
    # index, so slice adds give np.add.at's bits
    lo = data.draw(st.integers(0, n), label="lo")
    hi = data.draw(st.integers(lo, n), label="hi")
    grid = TimeGrid(0.0, tf, n)
    ref = np.zeros(grid.n_nodes)
    if hi > lo:
        far_w, near_w, far, near = kernel_cell_weights(grid, v, lo, hi, side)
        np.add.at(ref, far, far_w)
        np.add.at(ref, near, near_w)
        ref = ref / gamma(v)
    w = singular_kernel_weights(grid, v, lo, hi, side)
    assert w.tobytes() == ref.tobytes()
