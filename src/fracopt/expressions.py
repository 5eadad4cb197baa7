"""A small, safe arithmetic expression grammar for problem files.

Expressions are Python-syntax arithmetic over declared variable names,
numeric literals that fit a float (not True or False), the constants pi
and e, and a fixed set of elementary functions.  Anything else
(attributes, comprehensions, calls to unknown names, comparisons, ...) is
rejected at compile time, so evaluating a compiled expression can execute
only arithmetic, in floats: every literal is made a float, so 9**9**9
overflows instead of running on.
"""

from __future__ import annotations

import ast
import math
from typing import Callable, Sequence

from .errors import ConfigError

__all__ = ["ExpressionError", "compile_expression"]

_FUNCTIONS = {
    "sin": math.sin, "cos": math.cos, "tan": math.tan,
    "asin": math.asin, "acos": math.acos, "atan": math.atan,
    "sinh": math.sinh, "cosh": math.cosh, "tanh": math.tanh,
    "exp": math.exp, "log": math.log, "log10": math.log10,
    "sqrt": math.sqrt, "abs": abs,
}
_CONSTANTS = {"pi": math.pi, "e": math.e}

_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.Mod)
_ALLOWED_UNARY = (ast.UAdd, ast.USub)


class ExpressionError(ConfigError):
    """An operand or dynamics expression failed to compile."""


def _validate(node: ast.AST, variables: set, text: str) -> None:
    for child in ast.walk(node):
        if isinstance(child, (ast.Expression, ast.Load)):
            continue
        if isinstance(child, ast.BinOp):
            if not isinstance(child.op, _ALLOWED_BINOPS):
                raise ExpressionError(
                    f"operator {type(child.op).__name__} not allowed "
                    f"in {text!r}")
            continue
        if isinstance(child, ast.UnaryOp):
            if not isinstance(child.op, _ALLOWED_UNARY):
                raise ExpressionError(
                    f"operator {type(child.op).__name__} not allowed "
                    f"in {text!r}")
            continue
        if isinstance(child, _ALLOWED_BINOPS + _ALLOWED_UNARY):
            continue
        if isinstance(child, ast.Constant):
            if type(child.value) not in (int, float):   # not bool either
                raise ExpressionError(
                    f"literal {child.value!r} not allowed in {text!r}")
            try:   # in place: the compiled lambda sees a float literal
                child.value = float(child.value)
            except OverflowError:
                child.value = math.inf
            if not math.isfinite(child.value):   # 10**400 or 1e999
                raise ExpressionError(
                    f"literal too large for a float in {text!r}")
            continue
        if isinstance(child, ast.Call):
            if not isinstance(child.func, ast.Name) \
                    or child.func.id not in _FUNCTIONS \
                    or child.keywords:
                raise ExpressionError(
                    f"only calls to {sorted(_FUNCTIONS)} are allowed "
                    f"in {text!r}")
            continue
        if isinstance(child, ast.Name):
            if child.id in _FUNCTIONS or child.id in _CONSTANTS \
                    or child.id in variables:
                continue
            raise ExpressionError(
                f"unknown name {child.id!r} in {text!r} "
                f"(declared: {sorted(variables)})")
        raise ExpressionError(
            f"syntax element {type(child).__name__} not allowed in {text!r}")


def compile_expression(text: str,
                       variables: Sequence[str]) -> Callable[..., float]:
    """Compile an arithmetic expression into a function of its variables.

    variables lists, in order, the names the expression may reference
    (e.g. "t", "x1", "u1"); the returned function takes their values by
    position in that order and returns a float.  It runs with no
    builtins: its globals hold only the allowed functions and constants,
    and float under the name _float, which no validated text can reach.
    """
    if not isinstance(text, str) or not text.strip():
        raise ExpressionError("expression must be a non-empty string")
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ExpressionError(
            f"cannot parse {text!r}: {exc.msg} (column {exc.offset})") from exc
    _validate(tree, set(variables), text)
    body = ast.Call(func=ast.Name(id="_float", ctx=ast.Load()),
                    args=[tree.body], keywords=[])
    params = ast.arguments(posonlyargs=[],
                           args=[ast.arg(arg=name) for name in variables],
                           kwonlyargs=[], kw_defaults=[], defaults=[])
    lam = ast.fix_missing_locations(
        ast.Expression(body=ast.Lambda(args=params, body=body)))
    scope = {"__builtins__": {}, "_float": float, **_FUNCTIONS, **_CONSTANTS}
    evaluate = eval(compile(lam, filename="<expression>", mode="eval"), scope)
    evaluate.source = text
    return evaluate
