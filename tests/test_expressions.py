import math

import pytest

from fracopt.expressions import ExpressionError, compile_expression


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
