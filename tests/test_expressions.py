import math
import random

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from fracopt.expressions import (ExpressionError, compile_expression,
                                 compile_gradient)


def test_basic_arithmetic():
    fn = compile_expression("x1**2 + 2*x2 - u1/4", ["x1", "x2", "u1"])
    assert fn(3.0, 1.5, 8.0) == pytest.approx(10.0)


def test_functions_and_constants():
    fn = compile_expression("sin(pi*t) + exp(0) + sqrt(4)", ["t"])
    assert fn(0.5) == pytest.approx(4.0)


def test_unary_and_power():
    fn = compile_expression("-x1**2", ["x1"])
    assert fn(2.0) == pytest.approx(-4.0)


def test_unknown_name_rejected():
    with pytest.raises(ExpressionError, match="x3"):
        compile_expression("x1 + x3", ["x1", "x2"])


def test_syntax_error_reported_with_column():
    with pytest.raises(ExpressionError, match="column"):
        compile_expression("x1 + * 2", ["x1"])


def test_disallowed_constructs_rejected():
    bad = [
        "__import__('os')",
        "x1.real",
        "[1, 2]",
        "x1 if t > 0 else 0",
        "x1 > 2",
        "lambda v: v",
        "'text'",
        "sin(x=1)",
        "min(x1, 2)",
        "x1 + True",
        "False * x1",
    ]
    for text in bad:
        with pytest.raises(ExpressionError):
            compile_expression(text, ["x1", "t"])


def test_empty_rejected():
    with pytest.raises(ExpressionError):
        compile_expression("   ", ["t"])


def test_integer_literals_are_floats():
    # in exact integer arithmetic 10**400 / 10**399 is 10; in floats the
    # power overflows, as 9**9**9 does at once instead of running on
    assert compile_expression("7 % 3 + 2**-1", [])() == 1.5
    with pytest.raises(OverflowError):
        compile_expression("x1 + 10**400 / 10**399", ["x1"])(1.0)


def test_integer_literal_too_large_for_a_float_rejected():
    for text in ("x1 + 1" + "0" * 400, "x1 + 1e999"):
        with pytest.raises(ExpressionError, match="too large"):
            compile_expression(text, ["x1"])


def test_evaluation_is_pure_float():
    fn = compile_expression("log(e)", [])
    out = fn()
    assert isinstance(out, float)
    assert out == pytest.approx(1.0)


def test_source_attached():
    fn = compile_expression("t + 1", ["t"])
    assert fn.source == "t + 1"
    assert fn(0.0) == 1.0


def test_mod_operator():
    fn = compile_expression("t % 2", ["t"])
    assert fn(5.0) == pytest.approx(1.0)


def test_nested_functions():
    fn = compile_expression("exp(-abs(t) * log10(100))", ["t"])
    assert fn(1.0) == pytest.approx(math.exp(-2.0))


def test_arguments_bind_in_declared_order():
    assert compile_expression("x1 - u1", ["t", "x1", "u1"])(0.0, 3.0, 1.0) \
        == 2.0
    assert compile_expression("x1 - u1", ["u1", "x1", "t"])(0.0, 3.0, 1.0) \
        == 3.0


def test_evaluator_runs_without_builtins():
    fn = compile_expression("abs(x1) + pi", ["x1"])
    assert fn.__globals__["__builtins__"] == {}
    assert fn(-1.0) == pytest.approx(1.0 + math.pi)


# ---------------------------------------------------------- derivatives

VARS = ["t", "x1", "x2"]
FUNCTIONS = ["sin", "cos", "tan", "asin", "acos", "atan", "sinh", "cosh",
             "tanh", "exp", "log", "log10", "sqrt", "abs"]


def _difference(fn, point, j, h):
    """(fn(point + h e_j) - fn(point - h e_j)) / 2h."""
    up, down = list(point), list(point)
    up[j] += h
    down[j] -= h
    return (fn(*up) - fn(*down)) / (2 * h)


def _matches_central_difference(text, point):
    """Whether compile_gradient(text) at point matches central
    differences in x1 and x2 within rel 1e-6 (absolute floor 1e-6).
    Points where the expression or its derivative cannot be evaluated,
    is large, or is not smooth on the difference stencil (two step sizes
    disagree: a kink of abs, a jump of %, a pole) are skipped."""
    fn = compile_expression(text, VARS)
    grad = compile_gradient(text, VARS, ["x1", "x2"])
    try:
        value = fn(*point)
        exact = grad(*point)
        diffs = [[_difference(fn, point, j, h * max(1.0, abs(point[j])))
                  for h in (1e-5, 5e-6)] for j in (1, 2)]
    except (ArithmeticError, ValueError, TypeError):
        return None
    if abs(value) > 1e3 or not all(abs(d) <= 1e3 for d in exact):
        return None
    for d, (fd, fd_half) in zip(exact, diffs):
        if abs(fd - fd_half) > 1e-8 * max(abs(fd), 1.0):
            return None
        if abs(d - fd) > 1e-6 * max(abs(fd), 1.0):
            return False
    return True


_LEAVES = st.sampled_from(["x1", "x2", "t", "0.5", "3", "pi", "e"])


def _extend(children):
    # % by a literal only: a variable modulus can be tiny, and a sawtooth
    # whose period is below the difference step has a derivative the
    # differences cannot see (test_gradient_of_every_construct has x1 % x2)
    return st.one_of(
        st.tuples(children, st.sampled_from("+-*/"), children).map(
            lambda a: f"({a[0]} {a[1]} {a[2]})"),
        st.tuples(children, st.sampled_from(["0.5", "3", "pi"])).map(
            lambda a: f"({a[0]}) % {a[1]}"),
        st.tuples(children, children).map(lambda a: f"({a[0]})**({a[1]})"),
        st.tuples(st.sampled_from(FUNCTIONS), children).map(
            lambda a: f"{a[0]}({a[1]})"),
        children.map(lambda c: f"-({c})"),
    )


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(text=st.recursive(_LEAVES, _extend, max_leaves=6),
       seed=st.integers(0, 2 ** 32 - 1))
def test_gradient_matches_central_differences(text, seed):
    # at a generic point: abs and % have derivatives almost everywhere,
    # and the differences cannot tell a kink at the point from a slope
    rng = random.Random(seed)
    point = (rng.uniform(0.0, 1.0), rng.uniform(-2.0, 2.0),
             rng.uniform(-2.0, 2.0))
    verdict = _matches_central_difference(text, point)
    assume(verdict is not None)
    assert verdict, (text, point)


@pytest.mark.parametrize("text", [f"{f}(0.3*x2 - 0.2*x1)" for f in FUNCTIONS]
                         + ["x1**x2", "(x1 + 2)**(x2*x1)", "2**x2",
                            "x1**3", "x2**-2", "abs(x1*x2)", "x1 % 0.3",
                            "x1 % x2", "(x1*x2) % (x2 + 1)", "log(x1, x2)",
                            "exp(x1)/(1 + x2**2) - x1*x2"])
def test_gradient_of_every_construct(text):
    # a point where each of them is smooth, away from kinks and jumps
    assert _matches_central_difference(text, (0.4, 0.7, 1.3))


def test_gradient_folds_constants():
    grad = compile_gradient("0.5*x1**2 + 3*x2 + t", VARS, ["x1", "x2"])
    assert grad(0.0, 2.0, -1.0) == (2.0, 3.0)
    assert compile_gradient("-x1", VARS, ["x2"])(0.0, 1.0, 1.0) == (0.0,)


def test_gradient_source_and_almost_everywhere_rules():
    grad = compile_gradient("abs(x1) + x2 % 2", VARS, ["x1", "x2"])
    assert grad.source == "abs(x1) + x2 % 2"
    assert grad(0.0, -3.0, 5.5) == (-1.0, 1.0)
    assert grad(0.0, 0.0, 1.0) == (0.0, 1.0)   # sign(0) = 0, as the FD


def test_gradient_power_needs_no_log_of_a_constant_exponent():
    # x1**2 at x1 < 0: no ln(x1) term, so it differentiates
    assert compile_gradient("x1**2", VARS, ["x1"])(0.0, -3.0, 0.0) == (-6.0,)
    with pytest.raises(ValueError):      # ln of a negative base
        compile_gradient("x1**x2", VARS, ["x2"])(0.0, -3.0, 2.0)


def test_gradient_rejects_a_call_of_the_wrong_arity():
    with pytest.raises(ExpressionError, match="one argument"):
        compile_gradient("sin(x1, x2)", VARS, ["x1"])
