"""Problem-file loading, strict validation, overrides, and round-trip write.

Problem files are YAML with four blocks:

    plant:   orders, initial_state, dynamics (one expression per state),
             controls, control_lower, control_upper
    cost:    terms: list of {order, operand}; order 0 terms are terminal
             operands over t and x, others run over t, x and u
    solver:  t0, tf plus any SweepConfig field, and quadratic_control
    output:  csv, report paths (optional)

Every dynamics expression and cost operand is compiled together with its
partial derivatives in x1..xn (expressions.compile_gradient): the plant
carries the Jacobian of its dynamics and each cost term its gradient, so
the solver takes no difference quotients of a problem file.  A math
error in an expression or a derivative aborts the sweep naming it.
The dynamics, the running operands and their derivatives are also
compiled over node arrays, for the solver's stages that evaluate every
grid node at once; a non-finite value there is evaluated again at its
node by the scalar form, so the same math error aborts the sweep.

Unknown keys anywhere are rejected.  Validation errors name the offending
field; YAML errors name the file or override, with their line/column mark.
A key given twice in one mapping is an error, and booleans and numbers
are read as YAML 1.2 reads them (_Loader: 1e-2 is a float, 010 is 10,
and yes, off, 1:30 and 1_0.5 are text).  An override's value is read by
the same loader as the same text in the file, except that a key holding
a string takes the text as it is; build_problem checks both alike.
"""

from __future__ import annotations

import math
import re
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Sequence

import numpy as np
import yaml

from .cost import CostTerm, PerformanceIndex
from .errors import ConfigError, SweepAbort
from .expressions import compile_expression, compile_gradient
from .plant import FractionalPlant
from .problem import HJBProblem
from .sweep import SweepConfig

__all__ = ["ParsedProblem", "parse_problem", "load_raw", "write_problem",
           "apply_overrides", "build_problem"]

_PLANT_KEYS = {"orders", "initial_state", "dynamics", "controls",
               "control_lower", "control_upper"}
_COST_KEYS = {"terms"}
_TERM_KEYS = {"order", "operand"}
_PROBLEM_SOLVER_KEYS = {"t0", "tf", "quadratic_control"}
_SOLVER_KEYS = _PROBLEM_SOLVER_KEYS | {f.name for f in fields(SweepConfig)}
_OUTPUT_KEYS = {"csv", "report"}
_TOP_KEYS = {"plant", "cost", "solver", "output"}

#: what a valid expression can raise at a bad point: division by zero,
#: overflow, a math domain error, or float() of a complex power
_MATH_ERRORS = (ArithmeticError, ValueError, TypeError)


@dataclass
class ParsedProblem:
    """A validated problem file: solver-ready objects plus the normalized
    document for round-tripping."""

    problem: HJBProblem
    config: SweepConfig
    csv_path: Optional[str]
    report_path: Optional[str]
    raw: Dict = field(repr=False)


def _reject_unknown(block: Dict, allowed: set, where: str) -> None:
    if not isinstance(block, dict):
        raise ConfigError(f"{where}: expected a mapping")
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")


def _need(block: Dict, key: str, where: str):
    if key not in block:
        raise ConfigError(f"{where}.{key}: missing required field")
    return block[key]


def _finite_number(value, where: str) -> float:
    """value as a float; a bool or a non-finite value is rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not math.isfinite(value):
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    return float(value)


def _float_list(value, where: str) -> List[float]:
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"{where}: expected a non-empty list of numbers")
    out = []
    for i, item in enumerate(value):
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            raise ConfigError(f"{where}[{i}]: expected a number")
        out.append(float(item))
    return out


@contextmanager
def file_errors(path):
    """A file error in the block as a ConfigError that names path."""
    try:
        yield
    except (OSError, UnicodeDecodeError) as exc:
        reason = "file not found" if isinstance(exc, FileNotFoundError) \
            else getattr(exc, "strerror", None) or exc
        raise ConfigError(f"{path}: {reason}") from None


def _yaml_error(exc: yaml.YAMLError) -> str:
    """A YAML error in one line, with its line and column if it has a
    mark (a reader error, a non-printable character, has none)."""
    mark = getattr(exc, "problem_mark", None)
    loc = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
    problem = getattr(exc, "problem", None) or str(exc).splitlines()[0]
    return f"YAML parse error{loc}: {problem}"


class _Loader(yaml.SafeLoader):
    """The YAML reader of problem files and overrides: a key given twice
    in one mapping is an error, and booleans and numbers are YAML 1.2's
    (1e-2 and .inf are floats, 010 is 10, yes, 1:30 and 1_0.5 are
    text)."""

    def construct_mapping(self, node, deep=False):
        # a key merged in (<<) may be given again; the mapping's own may not
        own = [k for k, _ in node.value if k.tag != "tag:yaml.org,2002:merge"]
        mapping, keys = super().construct_mapping(node, deep), set()
        for key_node in own:   # each built (and hashable) by now
            key = self.constructed_objects[key_node]
            if key in keys:
                raise yaml.constructor.ConstructorError(
                    None, None, f"found duplicate key {key!r}",
                    key_node.start_mark)
            keys.add(key)
        return mapping


# YAML 1.2's core schema: null, true/false, decimal, 0o and 0x integers
# (tried before floats), and floats with .inf and .nan, not YAML 1.1's
# yes/off, octal 010, 1:30, 1_0, 1_0.5, dates or = (the merge key stays)
_Loader.yaml_implicit_resolvers = {
    first: [r for r in resolvers if r[0].endswith((":null", ":merge"))]
    for first, resolvers in yaml.SafeLoader.yaml_implicit_resolvers.items()}
for _tag, _rx in (("bool", r"true|True|TRUE|false|False|FALSE"),
                  ("int", r"[-+]?[0-9]+|0o[0-7]+|0x[0-9a-fA-F]+"),
                  ("float", r"[-+]?(\.[0-9]+|[0-9]+(\.[0-9]*)?)"
                            r"([eE][-+]?[0-9]+)?"
                            r"|[-+]?\.(inf|Inf|INF)|\.(nan|NaN|NAN)")):
    _Loader.add_implicit_resolver(f"tag:yaml.org,2002:{_tag}",
                                  re.compile(f"^(?:{_rx})$"), None)
_Loader.add_constructor("tag:yaml.org,2002:int", lambda loader, node: int(
    node.value, 0 if node.value[:2] in ("0o", "0x") else 10))


def load_raw(path: str) -> Dict:
    """Read and parse the YAML document, reporting line/column on errors."""
    try:
        with file_errors(path), open(path, "r", encoding="utf-8") as fh:
            doc = yaml.load(fh, Loader=_Loader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: {_yaml_error(exc)}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: document must be a mapping")
    return doc


def apply_overrides(doc: Dict, overrides: List[str]) -> Dict:
    """Apply dotted key=value overrides, each value read as the problem
    file reads the same text (_Loader), but a leaf that holds a string
    (a stepper, a path) takes the text as it is.

    Example: solver.max_iters=0.  Paths must already exist in the
    document (strict mode); build_problem checks the values.
    """
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        dotted, text = item.split("=", 1)
        parts = dotted.strip().split(".")
        node = doc
        for part in parts[:-1]:
            if not isinstance(node, dict) or part not in node:
                raise ConfigError(f"override path {dotted!r} does not exist")
            node = node[part]
        leaf = parts[-1]
        if not isinstance(node, dict) or leaf not in node:
            raise ConfigError(f"override path {dotted!r} does not exist")
        try:
            node[leaf] = text if isinstance(node[leaf], str) \
                else yaml.load(text, Loader=_Loader)
        except yaml.YAMLError as exc:
            raise ConfigError(
                f"override {dotted!r}: {_yaml_error(exc)}") from None
    return doc


#: what an evaluator names when a compiled derivative fails
_DERIVATIVE = "the x-derivative of "

_NO_CONTROLS = np.empty(0)


def _evaluator(fns: Sequence, what: str = "", stacked: bool = False,
               node_fns: Sequence = None):
    """The compiled fns as one function of (t, x, u), u empty by default
    for terminal operands.  It returns fns[0]'s value, or with stacked
    the array of every fn's value.  They get Python floats, not numpy
    scalars: they do scalar arithmetic, which is cheaper on floats and
    gives the same bits.  A math error aborts the sweep naming the first
    fn that fails there, prefixed by what.  With stacked, the function's
    floats attribute takes t and x and u as Python floats and sequences
    of them, and returns the list of every fn's value, with no array
    made or read.  node_fns, fns compiled over node arrays, become the
    function's nodes attribute (_node_evaluator).
    """
    def call(args):
        try:
            return [fn(*args) for fn in fns] if stacked else fns[0](*args)
        except _MATH_ERRORS as exc:
            for fn in fns:
                try:
                    fn(*args)
                except _MATH_ERRORS:
                    break
            raise SweepAbort(f"cannot evaluate {what}{fn.source!r} at "
                             f"t = {args[0]!r}: {exc}") from None

    def evaluate(t, x, u=_NO_CONTROLS):
        value = call((float(t), *x.tolist(), *u.tolist()))
        return np.array(value) if stacked else value
    if stacked:
        evaluate.floats = lambda t, x, u: call((t, *x, *u))
    if node_fns is not None:
        evaluate.nodes = _node_evaluator(node_fns, evaluate, stacked)
    return evaluate


def _rows(value, n: int) -> np.ndarray:
    """A node-array form's value with n rows: a gradient's tuple stacked
    into columns, a float (an expression reading no variable) repeated."""
    if isinstance(value, tuple):
        return np.stack([_rows(v, n) for v in value], axis=-1)
    return value if np.shape(value) == (n,) else np.full(n, value)


def _node_evaluator(fns: Sequence, scalar, stacked: bool):
    """The node-array forms fns as one function of node arrays t (N,),
    x (N, n) and u (N, m), with scalar's value at each row.  Where a row
    is not finite, scalar evaluates that row again, lowest row first, so
    a math error there aborts the sweep as it does at one node.  The
    function's forms(n_states) are fns themselves, unchecked, with
    stacked each paired with its column of the value: each takes the
    columns t, x1..xn, u1..um by position and gives nan or inf where a
    math error would abort (expansion.as_evaluator's forms need n_states
    to split the columns)."""
    def evaluate(t, x, u):
        n = t.shape[0]
        args = (t, *x.T, *u.T)
        with np.errstate(all="ignore"):
            values = [_rows(fn(*args), n) for fn in fns]
        out = np.stack(values, axis=1) if stacked else values[0]
        if not np.isfinite(out).all():
            for k in np.flatnonzero(
                    ~np.isfinite(out.reshape(n, -1)).all(axis=1)):
                scalar(t[k], x[k], u[k])
        return out
    forms = tuple(enumerate(fns)) if stacked else tuple(fns)
    evaluate.forms = lambda n_states: forms
    return evaluate


def build_problem(doc: Dict) -> ParsedProblem:
    """Validate a parsed document and assemble solver objects."""
    _reject_unknown(doc, _TOP_KEYS, "document")
    plant_block = _need(doc, "plant", "document")
    cost_block = _need(doc, "cost", "document")
    solver_block = _need(doc, "solver", "document")
    output_block = doc.get("output", {}) or {}
    _reject_unknown(plant_block, _PLANT_KEYS, "plant")
    _reject_unknown(cost_block, _COST_KEYS, "cost")
    _reject_unknown(solver_block, _SOLVER_KEYS, "solver")
    _reject_unknown(output_block, _OUTPUT_KEYS, "output")

    orders = _float_list(_need(plant_block, "orders", "plant"), "plant.orders")
    for i, q in enumerate(orders):
        if not 0.0 < q < 1.0:
            raise ConfigError(
                f"plant.orders[{i}]: order must lie in (0,1), got {q}")
    x0 = _float_list(_need(plant_block, "initial_state", "plant"),
                     "plant.initial_state")
    for i, value in enumerate(x0):
        _finite_number(value, f"plant.initial_state[{i}]")
    if len(x0) != len(orders):
        raise ConfigError("plant.initial_state: length must match plant.orders")
    n_controls = _need(plant_block, "controls", "plant")
    if isinstance(n_controls, bool) or not isinstance(n_controls, int) \
            or n_controls < 1:
        raise ConfigError("plant.controls: expected a positive integer")
    dynamics_src = _need(plant_block, "dynamics", "plant")
    if not isinstance(dynamics_src, list) or len(dynamics_src) != len(orders):
        raise ConfigError("plant.dynamics: one expression per state required")
    lo = _float_list(_need(plant_block, "control_lower", "plant"),
                     "plant.control_lower")
    hi = _float_list(_need(plant_block, "control_upper", "plant"),
                     "plant.control_upper")
    if len(lo) != n_controls or len(hi) != n_controls:
        raise ConfigError("plant.control_lower/upper: one bound per control")

    n = len(orders)
    state_names = [f"x{i + 1}" for i in range(n)]
    control_names = [f"u{j + 1}" for j in range(n_controls)]
    dyn_vars = ["t"] + state_names + control_names
    try:
        dyn_fns, dyn_nodes = (
            [compile_expression(src, dyn_vars, on_nodes)
             for src in dynamics_src] for on_nodes in (False, True))
        jac_fns, jac_nodes = (
            [compile_gradient(src, dyn_vars, state_names, on_nodes)
             for src in dynamics_src] for on_nodes in (False, True))
    except ConfigError as exc:
        raise ConfigError(f"plant.dynamics: {exc}")

    terms_block = _need(cost_block, "terms", "cost")
    if not isinstance(terms_block, list) or not terms_block:
        raise ConfigError("cost.terms: expected a non-empty list")
    terms = []
    for i, entry in enumerate(terms_block):
        where = f"cost.terms[{i}]"
        _reject_unknown(entry, _TERM_KEYS, where)
        v = _need(entry, "order", where)
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigError(f"{where}.order: expected a number")
        v = float(v)
        if not 0.0 <= v <= 2.0:
            raise ConfigError(f"{where}.order: must lie in [0,2], got {v}")
        src = _need(entry, "operand", where)
        variables = ["t"] + state_names if v == 0.0 else dyn_vars
        # running operands are also evaluated over node arrays
        forms = (False,) if v == 0.0 else (False, True)
        try:
            fns = [compile_expression(src, variables, on_nodes)
                   for on_nodes in forms]
            grads = [compile_gradient(src, variables, state_names, on_nodes)
                     for on_nodes in forms]
        except ConfigError as exc:
            raise ConfigError(f"{where}.operand: {exc}")
        kind = "terminal" if v == 0.0 else "running"
        terms.append(CostTerm(
            v=v, **{kind: _evaluator(fns[:1], node_fns=fns[1:] or None)},
            gradient=_evaluator(grads[:1], _DERIVATIVE,
                                node_fns=grads[1:] or None)))

    t0 = _finite_number(solver_block.get("t0", 0.0), "solver.t0")
    tf = _finite_number(_need(solver_block, "tf", "solver"), "solver.tf")
    if tf <= t0:
        raise ConfigError("solver.tf: expected a number greater than t0")
    quadratic = solver_block.get("quadratic_control", False)
    if not isinstance(quadratic, bool):
        raise ConfigError("solver.quadratic_control: expected true or false, "
                          f"got {quadratic!r}")
    paths = {key: output_block.get(key) for key in _OUTPUT_KEYS}
    for key, path in paths.items():
        if path is not None and not isinstance(path, str):
            raise ConfigError(f"output.{key}: expected a string, got {path!r}")

    cfg_fields = {k: v for k, v in solver_block.items()
                  if k not in _PROBLEM_SOLVER_KEYS}
    try:
        config = SweepConfig(**cfg_fields)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"solver: {exc}")

    plant = FractionalPlant(
        orders=tuple(orders),
        rhs=_evaluator(dyn_fns, stacked=True, node_fns=dyn_nodes),
        x0=np.array(x0), n_controls=n_controls, t0=t0,
        rhs_jacobian=_evaluator(jac_fns, _DERIVATIVE, stacked=True,
                                node_fns=jac_nodes))
    problem = HJBProblem(plant=plant, index=PerformanceIndex(tuple(terms)),
                         tf=tf, u_lower=np.array(lo),
                         u_upper=np.array(hi), quadratic_control=quadratic)
    return ParsedProblem(problem=problem, config=config,
                         csv_path=paths["csv"], report_path=paths["report"],
                         raw=doc)


def parse_problem(path: str, overrides: Optional[List[str]] = None) -> ParsedProblem:
    doc = load_raw(path)
    if overrides:
        doc = apply_overrides(doc, overrides)
    return build_problem(doc)


def write_problem(parsed: ParsedProblem, path: str) -> None:
    """Write the normalized document back out (round-trip safe)."""
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(parsed.raw, fh, sort_keys=False)
