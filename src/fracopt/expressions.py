"""A small, safe arithmetic expression grammar for problem files.

Expressions are Python-syntax arithmetic over declared variable names,
numeric literals that fit a float (not True or False), the constants pi
and e, and a fixed set of elementary functions.  Anything else
(attributes, comprehensions, calls to unknown names, comparisons, ...) is
rejected at compile time, so evaluating a compiled expression can execute
only arithmetic, in floats: every literal is made a float, so 9**9**9
overflows instead of running on.

Each expression compiles from its validated tree in two forms: a
function of Python floats on the scalar ``math`` functions, which raises
on a math error, and (over_nodes=True) the same function over arrays of
node values on numpy ufuncs, which gives nan or inf there instead.  The
array form raises a to the power b by ``numpy.float_power``, which gives
the bits of the scalar form's ``**``.
"""

from __future__ import annotations

import ast
import math
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError

__all__ = ["ExpressionError", "compile_expression", "compile_gradient",
           "derivative"]

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


def _parse(text: str, variables: Sequence[str]) -> ast.expr:
    """The validated body of text, every literal a float."""
    if not isinstance(text, str) or not text.strip():
        raise ExpressionError("expression must be a non-empty string")
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ExpressionError(
            f"cannot parse {text!r}: {exc.msg} (column {exc.offset})") from exc
    _validate(tree, set(variables), text)
    return tree.body


def _lambda(body: ast.expr, variables: Sequence[str], text: str,
            over_nodes: bool):
    """body compiled into a function of variables, by position, that runs
    with no builtins: its globals hold only the allowed functions and
    constants and the helpers below, whose underscore names no validated
    text can reach.  over_nodes: on numpy ufuncs, with every a**b a call
    of _pow."""
    if over_nodes:
        body = _PowerCalls().visit(body)
    params = ast.arguments(posonlyargs=[],
                           args=[ast.arg(arg=name) for name in variables],
                           kwonlyargs=[], kw_defaults=[], defaults=[])
    lam = ast.fix_missing_locations(
        ast.Expression(body=ast.Lambda(args=params, body=body)))
    evaluate = eval(compile(lam, filename="<expression>", mode="eval"),
                    dict(_NODE_SCOPE if over_nodes else _SCOPE))
    evaluate.source = text
    return evaluate


def _as_float(node: ast.expr) -> ast.expr:
    return ast.Call(func=ast.Name(id="_float", ctx=ast.Load()),
                    args=[node], keywords=[])


def compile_expression(text: str, variables: Sequence[str],
                       over_nodes: bool = False) -> Callable[..., float]:
    """Compile an arithmetic expression into a function of its variables.

    variables lists, in order, the names the expression may reference
    (e.g. "t", "x1", "u1"); the returned function takes their values by
    position in that order and returns a float.  It runs with no
    builtins: its globals hold only the allowed functions and constants,
    and float under the name _float, which no validated text can reach.
    With over_nodes it takes arrays of node values and returns an array,
    or a float where the expression reads no variable.
    """
    return _lambda(_as_float(_parse(text, variables)), variables, text,
                   over_nodes)


def compile_gradient(text: str, variables: Sequence[str],
                     wrt: Sequence[str],
                     over_nodes: bool = False) -> Callable[..., tuple]:
    """Compile the partial derivatives of an expression in the names wrt.

    The returned function takes the values of variables by position, as
    compile_expression's does, and returns the tuple of floats
    (d text/d wrt[0], d text/d wrt[1], ...), differentiated symbolically
    by derivative; with over_nodes, a tuple of arrays or floats.
    """
    body = _parse(text, variables)
    return _lambda(ast.Tuple(elts=[_as_float(derivative(body, name))
                                   for name in wrt], ctx=ast.Load()),
                   variables, text, over_nodes)


# ------------------------------------------------------------ derivatives


def _num(node: ast.expr):
    """The value of a literal node, None for any other node."""
    return node.value if isinstance(node, ast.Constant) else None


def _const(value: float) -> ast.expr:
    return ast.Constant(value=float(value))


def _binop(left: ast.expr, op: ast.operator, right: ast.expr) -> ast.expr:
    return ast.BinOp(left=left, op=op, right=right)


def _add(a: ast.expr, b: ast.expr) -> ast.expr:
    if _num(a) == 0.0:
        return b
    if _num(b) == 0.0:
        return a
    return _binop(a, ast.Add(), b)


def _neg(a: ast.expr) -> ast.expr:
    if _num(a) == 0.0:
        return _const(0.0)
    return ast.UnaryOp(op=ast.USub(), operand=a)


def _sub(a: ast.expr, b: ast.expr) -> ast.expr:
    if _num(b) == 0.0:
        return a
    if _num(a) == 0.0:
        return _neg(b)
    return _binop(a, ast.Sub(), b)


def _mul(a: ast.expr, b: ast.expr) -> ast.expr:
    if _num(a) == 0.0 or _num(b) == 0.0:
        return _const(0.0)
    if _num(a) == 1.0:
        return b
    if _num(b) == 1.0:
        return a
    return _binop(a, ast.Mult(), b)


def _div(a: ast.expr, b: ast.expr) -> ast.expr:
    if _num(a) == 0.0:
        return _const(0.0)
    if _num(b) == 1.0:
        return a
    return _binop(a, ast.Div(), b)


def _pow(a: ast.expr, b: ast.expr) -> ast.expr:
    if _num(b) == 1.0:
        return a
    if _num(b) == 0.0:
        return _const(1.0)
    return _binop(a, ast.Pow(), b)


def _call(name: str, *args: ast.expr) -> ast.expr:
    return ast.Call(func=ast.Name(id=name, ctx=ast.Load()),
                    args=list(args), keywords=[])


#: f'(a) for each function f of one argument a, as text in a
_OUTER = {"sin": "cos(a)", "cos": "-sin(a)", "tan": "1 + tan(a)**2",
          "asin": "1/sqrt(1 - a**2)", "acos": "-1/sqrt(1 - a**2)",
          "atan": "1/(1 + a**2)", "sinh": "cosh(a)", "cosh": "sinh(a)",
          "tanh": "1 - tanh(a)**2", "exp": "exp(a)", "log": "1/a",
          "log10": "1/(a*log(10))", "sqrt": "0.5/sqrt(a)",
          "abs": "_sign(a)"}


class _Substitute(ast.NodeTransformer):
    """Replaces the name a by a given tree."""

    def __init__(self, arg: ast.expr):
        self.arg = arg

    def visit_Name(self, node: ast.Name) -> ast.expr:
        return self.arg if node.id == "a" else node


def derivative(node: ast.expr, name: str) -> ast.expr:
    """d node / d name for a validated expression tree, as a new tree.

    The rules are the usual ones, simplified only by the zero and one
    rules on literal operands (x*0, x*1, x+0, 0-x, 0/x, x/1, x**1,
    x**0) and by the power rule's exponent b - 1, which is taken when
    the rule is built if b is a literal, so x**2 gives 2.0 * x; any
    other operation on literals is left to the compiled code.  abs
    and % get their derivatives almost everywhere: sign(a) da (0 at a = 0,
    where the central difference is 0 too) and da - floor(a/b) db.  For
    a**b the a**b ln(a) db term is emitted only when db is not the
    literal 0, and at run time it is 0 wherever db is 0, without taking
    ln(a): so x**2 and x2**(x1 - x1) differentiate at a negative base,
    while x2**x1 does not.  log(a, b) is log(a)/log(b).  A call with
    another number of arguments than its function takes raises
    ExpressionError.
    """
    if isinstance(node, ast.Constant):
        return _const(0.0)
    if isinstance(node, ast.Name):
        return _const(1.0 if node.id == name else 0.0)
    if isinstance(node, ast.UnaryOp):
        d = derivative(node.operand, name)
        return d if isinstance(node.op, ast.UAdd) else _neg(d)
    if isinstance(node, ast.BinOp):
        a, b = node.left, node.right
        da, db = derivative(a, name), derivative(b, name)
        if isinstance(node.op, ast.Add):
            return _add(da, db)
        if isinstance(node.op, ast.Sub):
            return _sub(da, db)
        if isinstance(node.op, ast.Mult):
            return _add(_mul(da, b), _mul(a, db))
        if isinstance(node.op, ast.Div):
            # da/b - (a/b) db/b
            return _sub(_div(da, b), _div(_mul(_div(a, b), db), b))
        if isinstance(node.op, ast.Mod):
            # a % b = a - b floor(a/b), floor constant almost everywhere
            return _sub(da, _mul(_call("_floor", _div(a, b)), db))
        # a**b: b a**(b-1) da + a**b ln(a) db, a literal b - 1 taken here
        b_less_1 = (_sub(b, _const(1.0)) if _num(b) is None
                    else _const(_num(b) - 1.0))
        power = _mul(_mul(b, _pow(a, b_less_1)), da)
        if _num(db) == 0.0:
            return power
        return _add(power, _call("_log_term", a, b, db))
    # a call of one of _FUNCTIONS
    fn, args = node.func.id, node.args
    if fn == "log" and len(args) == 2:
        return derivative(_div(_call("log", args[0]), _call("log", args[1])),
                          name)
    if len(args) != 1:
        raise ExpressionError(
            f"{fn} takes one argument, got {len(args)} in {ast.unparse(node)!r}")
    da = derivative(args[0], name)
    if _num(da) == 0.0:
        return da
    outer = ast.parse(_OUTER[fn], mode="eval").body
    return _mul(_Substitute(args[0]).visit(outer), da)


def _sign(v: float) -> float:
    return 1.0 if v > 0.0 else -1.0 if v < 0.0 else 0.0


def _floor(v: float) -> float:
    return float(math.floor(v))


def _log_term(a: float, b: float, db: float) -> float:
    """The power rule's a**b ln(a) db: 0 where db is 0, so a**b need not
    have a real logarithm there."""
    if db == 0.0:
        return 0.0
    return a ** b * math.log(a) * db


_SCOPE = {"__builtins__": {}, "_float": float, "_sign": _sign,
          "_floor": _floor, "_log_term": _log_term, **_FUNCTIONS,
          **_CONSTANTS}


class _PowerCalls(ast.NodeTransformer):
    """Rewrites every a**b as _pow(a, b)."""

    def visit_BinOp(self, node: ast.BinOp) -> ast.expr:
        self.generic_visit(node)
        if isinstance(node.op, ast.Pow):
            return _call("_pow", node.left, node.right)
        return node


def _log_nodes(a, base=None):
    """log over node arrays, with math.log's optional base."""
    return np.log(a) if base is None else np.log(a) / np.log(base)


def _log_term_nodes(a, b, db):
    """_log_term over node arrays: 0 wherever db is 0."""
    return np.where(db == 0.0, 0.0, np.float_power(a, b) * np.log(a) * db)


#: _SCOPE's names over node arrays (numpy before 2.0 has no asin, acos
#: or atan)
_NODE_SCOPE = {"__builtins__": {}, "_float": np.asarray,
               "_pow": np.float_power, "_sign": np.sign, "_floor": np.floor,
               "_log_term": _log_term_nodes,
               "sin": np.sin, "cos": np.cos, "tan": np.tan,
               "asin": np.arcsin, "acos": np.arccos, "atan": np.arctan,
               "sinh": np.sinh, "cosh": np.cosh, "tanh": np.tanh,
               "exp": np.exp, "log": _log_nodes, "log10": np.log10,
               "sqrt": np.sqrt, "abs": np.abs, **_CONSTANTS}
