import copy
import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

import fracopt as fo
from fracopt.config import (apply_overrides, build_problem, load_raw,
                            parse_problem, write_problem)
from fracopt.errors import ConfigError, SweepAbort
from fracopt.sweep import SweepConfig

from conftest import EXAMPLE_FILE, two_state_config, two_state_problem


@pytest.fixture()
def doc():
    return load_raw(EXAMPLE_FILE)


def test_example_file_parses(example_parsed):
    prob = example_parsed.problem
    assert prob.plant.orders == (0.2, 0.7)
    assert np.allclose(prob.plant.x0, [1.0, 0.5])
    assert [t.v for t in prob.index.terms] == [0.3, 0.4]
    assert prob.tf == 1.0
    assert example_parsed.config.dt == 0.01
    assert example_parsed.config.u_init == 5.0
    assert prob.quadratic_control


def test_example_dynamics_evaluate(example_parsed):
    rhs = example_parsed.problem.plant.rhs
    out = rhs(0.3, np.array([1.0, 0.5]), np.array([2.0]))
    assert np.allclose(out, [2.5, -1.0])


def test_example_operands_match_hand_written_problem(example_parsed):
    # the compiled dynamics and running operands bind t, x1, x2, u1 by
    # position and compute what the hand-written lambdas compute, bit for bit
    parsed, ref = example_parsed.problem, two_state_problem()
    assert len(parsed.index.running_terms) == len(ref.index.running_terms)
    rng = np.random.default_rng(5)
    for _ in range(50):
        t = rng.uniform(0.0, 1.0)
        x = rng.uniform(-3.0, 3.0, 2)
        u = rng.uniform(-10.0, 10.0, 1)
        assert np.array_equal(parsed.plant.rhs(t, x, u),
                              ref.plant.rhs(t, x, u))
        for got, want in zip(parsed.index.running_terms,
                             ref.index.running_terms):
            assert got.running(t, x, u) == want.running(t, x, u)


def test_terminal_operand_matches_hand_written(doc):
    doc["cost"]["terms"].insert(0, {"order": 0.0,
                                    "operand": "0.5*x1**2 + t*x2"})
    term = build_problem(doc).problem.index.terms[0]
    rng = np.random.default_rng(6)
    for _ in range(50):
        tf = rng.uniform(0.5, 2.0)
        x = rng.uniform(-3.0, 3.0, 2)
        assert term.terminal(tf, x) == 0.5 * x[0] ** 2 + tf * x[1]


def test_order_out_of_range_rejected(doc):
    doc["plant"]["orders"][0] = 1.5
    with pytest.raises(ConfigError, match=r"plant.orders\[0\]"):
        build_problem(doc)


def test_undeclared_state_in_operand_rejected(doc):
    doc["cost"]["terms"][0]["operand"] = "x1**2 + x3**2"
    with pytest.raises(ConfigError, match="x3"):
        build_problem(doc)


def test_unknown_keys_rejected(doc):
    doc["plant"]["mystery"] = 1
    with pytest.raises(ConfigError, match="mystery"):
        build_problem(doc)


def test_difference_step_key_rejected(doc):
    # central differences use a fixed relative step; fd_step is no
    # longer a solver setting
    doc["solver"]["fd_step"] = 1e-6
    with pytest.raises(ConfigError, match="fd_step"):
        build_problem(doc)


def test_every_sweep_config_field_is_a_solver_key(doc):
    defaults = SweepConfig()
    for f in dataclasses.fields(SweepConfig):
        trial = copy.deepcopy(doc)
        trial["solver"][f.name] = getattr(defaults, f.name)
        assert getattr(build_problem(trial).config, f.name) \
            == getattr(defaults, f.name)


def test_unknown_top_level_block_rejected(doc):
    doc["extras"] = {}
    with pytest.raises(ConfigError, match="extras"):
        build_problem(doc)


def test_dimension_mismatch_rejected(doc):
    doc["plant"]["initial_state"] = [1.0]
    with pytest.raises(ConfigError, match="initial_state"):
        build_problem(doc)


def test_bounds_mismatch_rejected(doc):
    doc["plant"]["control_lower"] = [0.0, 0.0]
    with pytest.raises(ConfigError, match="control_lower"):
        build_problem(doc)


def test_tuning_order_out_of_range_rejected(doc):
    doc["cost"]["terms"][0]["order"] = 2.4
    with pytest.raises(ConfigError, match=r"terms\[0\]"):
        build_problem(doc)


def test_terminal_operand_cannot_reference_controls(doc):
    doc["cost"]["terms"][0] = {"order": 0.0, "operand": "x1**2 + u1**2"}
    with pytest.raises(ConfigError, match="u1"):
        build_problem(doc)


def test_yaml_error_reports_location(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("plant: [unclosed\n")
    with pytest.raises(ConfigError, match="line"):
        load_raw(str(bad))


def test_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        load_raw("no_such_problem.yaml")


def test_key_given_twice_rejected_naming_key_and_place(tmp_path):
    text = Path(EXAMPLE_FILE).read_text().replace(
        "  dt: 0.01\n", "  dt: 0.01\n  dt: 0.02\n")
    path = tmp_path / "twice.yaml"
    path.write_text(text)
    line = text.splitlines().index("  dt: 0.02") + 1
    with pytest.raises(ConfigError) as info:
        load_raw(str(path))
    assert str(info.value) == (f"{path}: YAML parse error at line {line}, "
                               "column 3: found duplicate key 'dt'")


def test_key_given_twice_in_a_flow_mapping_rejected(tmp_path):
    path = tmp_path / "twice.yaml"
    path.write_text("plant: {orders: [0.5], orders: [0.6]}\n")
    with pytest.raises(ConfigError, match="line 1, column 24: found "
                                          "duplicate key 'orders'$"):
        load_raw(str(path))


def test_merged_key_may_be_given_again(tmp_path):
    # a merge key is no duplicate: the mapping's own value wins
    path = tmp_path / "merge.yaml"
    path.write_text("base: &b {dt: 0.01, p_max: 5}\n"
                    "solver: {<<: *b, dt: 0.02}\n")
    assert load_raw(str(path))["solver"] == {"dt": 0.02, "p_max": 5}


@pytest.mark.parametrize("text, value", [
    ("1e-2", 0.01), ("1E5", 1e5), ("-2e+1", -20.0), ("1.5e3", 1500.0),
    ("-.5", -0.5), ("+.5e1", 5.0), ("1.0e-8", 1e-8), ("0.01", 0.01)])
def test_numbers_are_read_as_yaml_1_2_reads_them(tmp_path, text, value):
    text_doc = Path(EXAMPLE_FILE).read_text().replace(
        "  u_init: 5.0\n", f"  u_init: {text}\n")
    path = tmp_path / "number.yaml"
    path.write_text(text_doc)
    raw = load_raw(str(path))
    assert type(raw["solver"]["u_init"]) is float
    assert parse_problem(str(path)).config.u_init == value


@pytest.mark.parametrize("text, value", [
    ("010", 10), ("0o17", 15), ("+3", 3), ("1:30", "1:30"), ("1_0", "1_0"),
    ("0b11", "0b11"), ("yes", "yes"), ("off", "off"), ("On", "On"),
    ("True", True), ("FALSE", False), ("false", False),
    ("2001-01-01", "2001-01-01"), ("=", "=")])
def test_integers_and_booleans_are_read_as_yaml_1_2_reads_them(tmp_path,
                                                                text, value):
    # YAML 1.1's octal 010, sexagesimal 1:30, 1_0, 0b11, yes/off, dates
    # and = are not YAML 1.2's: 010 is 10 and the others are text
    path = tmp_path / "value.yaml"
    path.write_text(f"value: {text}\n")
    got = load_raw(str(path))["value"]
    assert type(got) is type(value) and got == value


@pytest.mark.parametrize("text", ["yes", "on", "y"])
def test_yaml_1_1_booleans_are_rejected_as_a_flag(tmp_path, text):
    path = tmp_path / "flag.yaml"
    path.write_text(Path(EXAMPLE_FILE).read_text().replace(
        "quadratic_control: true", f"quadratic_control: {text}"))
    with pytest.raises(ConfigError, match="quadratic_control"):
        parse_problem(str(path))


def test_a_leading_zero_is_a_decimal_count(tmp_path):
    path = tmp_path / "count.yaml"
    path.write_text(Path(EXAMPLE_FILE).read_text().replace(
        "max_iters: 200", "max_iters: 010"))
    assert parse_problem(str(path)).config.max_iters == 10


@pytest.mark.parametrize("text, value", [
    ("12", 12), ("-7", -7), ("0x1f", 31), ("09", 9), ("1e", "1e"),
    ("e5", "e5"), ("1.2.3", "1.2.3"), (".inf", float("inf")),
    ("1:30.0", "1:30.0"), ("1_0.5", "1_0.5"), ("1_000.0", "1_000.0")])
def test_integers_and_text_are_not_read_as_yaml_1_2_floats(tmp_path, text,
                                                           value):
    path = tmp_path / "value.yaml"
    path.write_text(f"value: {text}\n")
    got = load_raw(str(path))["value"]
    assert type(got) is type(value) and got == value


def test_unquoted_exponent_operand_is_a_number(tmp_path):
    # as 0 and 2.5 already were: an operand must be quoted to be text
    text = Path(EXAMPLE_FILE).read_text().replace(
        'operand: "x1**2 + u1**2"', "operand: 1e3")
    path = tmp_path / "operand.yaml"
    path.write_text(text)
    with pytest.raises(ConfigError, match=r"^cost\.terms\[1\]\.operand: "
                                          "expression must be a non-empty "
                                          "string$"):
        parse_problem(str(path))
    path.write_text(text.replace("operand: 1e3", 'operand: "1e3"'))
    prob = parse_problem(str(path)).problem
    assert prob.index.terms[1].running(0.5, np.zeros(2), np.zeros(1)) == 1e3


def test_override_reads_yaml_1_2_numbers_and_rejects_a_key_twice(doc):
    out = apply_overrides(copy.deepcopy(doc),
                          ["plant.initial_state=[1e-2, -.5]"])
    assert out["plant"]["initial_state"] == [0.01, -0.5]
    doc["output"]["csv"] = None
    with pytest.raises(ConfigError, match="^override 'output.csv': YAML "
                                          "parse error at line 1, column "
                                          "8: found duplicate key 'a'$"):
        apply_overrides(doc, ["output.csv={a: 1, a: 2}"])


@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   float("-inf")])
def test_non_finite_initial_state_rejected(doc, value):
    doc["plant"]["initial_state"] = [1.0, value]
    with pytest.raises(ConfigError, match=r"^plant\.initial_state\[1\]: "
                                          "expected a finite number"):
        build_problem(doc)
    with pytest.raises(fo.DomainError, match="initial state must be finite"):
        fo.FractionalPlant(orders=(0.5, 0.5),
                           rhs=lambda t, x, u: x, x0=[1.0, value],
                           n_controls=1)


def test_overrides_set_an_int_a_float_a_string_and_a_bool(doc):
    out = apply_overrides(copy.deepcopy(doc), [
        "solver.max_iters=0",
        "solver.dt=0.005",
        "solver.stepper=heun",
        "solver.quadratic_control=false",
    ])
    assert out["solver"]["max_iters"] == 0
    assert isinstance(out["solver"]["max_iters"], int)
    assert out["solver"]["dt"] == 0.005
    assert out["solver"]["stepper"] == "heun"
    assert out["solver"]["quadratic_control"] is False


def test_override_keeps_non_integral_number_on_int_leaf(doc):
    doc["solver"]["relaxation"] = 1
    out = apply_overrides(copy.deepcopy(doc), ["solver.relaxation=0.5"])
    assert out["solver"]["relaxation"] == 0.5
    assert build_problem(out).config.relaxation == 0.5


def test_override_non_integral_iteration_count_rejected(doc):
    out = apply_overrides(copy.deepcopy(doc), ["solver.max_iters=2.7"])
    assert out["solver"]["max_iters"] == 2.7
    with pytest.raises(ConfigError, match="max_iters"):
        build_problem(out)


def _outcome(*args):
    """parse_problem's outcome: the document it accepted, or its error."""
    try:
        return repr(parse_problem(*args).raw)
    except ConfigError as exc:
        return str(exc)


@pytest.mark.parametrize("key, text, file_text", [
    ("solver.max_iters", "0x10", None), ("solver.u_init", "[0.5]", None),
    ("solver.max_iters", "1_0", None),
    ("solver.quadratic_control", "tRuE", None),
    ("plant.controls", "2.0", None), ("solver.dt", ".inf", None),
    ("solver.dt", "0.005", None), ("solver.max_iters", "1e3", None),
    ("solver.stepper", "heun", None), ("output.csv", "a: b", '"a: b"')])
def test_override_reads_a_value_as_the_file_does(tmp_path, key, text,
                                                 file_text):
    # key=text and the file's key: text build alike, or fail alike; a
    # string key takes the text as it is, which the file must quote
    leaf = key.split(".")[-1]
    content, count = re.subn(rf"(?m)^(\s+){leaf}: .*$",
                             rf"\g<1>{leaf}: {file_text or text}",
                             Path(EXAMPLE_FILE).read_text())
    assert count == 1
    path = tmp_path / "value.yaml"
    path.write_text(content)
    assert _outcome(EXAMPLE_FILE, [f"{key}={text}"]) == _outcome(str(path))


def test_override_unknown_path_rejected(doc):
    with pytest.raises(ConfigError, match="does not exist"):
        apply_overrides(doc, ["solver.bogus=3"])


def test_override_bad_form_rejected(doc):
    with pytest.raises(ConfigError, match="key=value"):
        apply_overrides(doc, ["solver.max_iters"])


def test_round_trip_semantically_identical(tmp_path, example_parsed):
    path = tmp_path / "round.yaml"
    write_problem(example_parsed, str(path))
    again = parse_problem(str(path))
    p0, p1 = example_parsed.problem, again.problem
    assert p0.plant.orders == p1.plant.orders
    assert np.array_equal(p0.plant.x0, p1.plant.x0)
    assert np.array_equal(p0.u_lower, p1.u_lower)
    assert np.array_equal(p0.u_upper, p1.u_upper)
    assert [t.v for t in p0.index.terms] == [t.v for t in p1.index.terms]
    assert example_parsed.config == again.config
    assert p0.tf == p1.tf and p0.quadratic_control == p1.quadratic_control
    # identical dynamics on a probe point
    probe = (0.37, np.array([0.2, -1.1]), np.array([0.9]))
    assert np.array_equal(p0.plant.rhs(*probe), p1.plant.rhs(*probe))


_WRITTEN_VALUES = [
    (("cost", "terms", 1, "operand"), "1e3"),
    (("output", "csv"), "0o17"),
    (("output", "csv"), ".5"),
    (("output", "csv"), "yes"),
    (("output", "csv"), "1:30"),
    (("solver", "error_tol"), 1e-08),
    (("solver", "u_init"), math.inf),
    (("output", "report"), None),
    (("solver", "n_a"), 10 ** 9),
]


@pytest.mark.parametrize("keys, value", _WRITTEN_VALUES, ids=[
    f"{keys[-1]}={value!r}" for keys, value in _WRITTEN_VALUES])
def test_round_trip_reads_back_each_value_as_written(
        tmp_path, example_parsed, keys, value):
    # written with the loader's YAML 1.2 resolvers: text that 1.2 reads
    # as a number (1e3, 0o17, .5) is quoted, and text that only YAML 1.1
    # reads as a bool or a number (yes, 1:30) needs no quotes
    raw = copy.deepcopy(example_parsed.raw)
    node = raw
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    path = tmp_path / "round.yaml"
    write_problem(dataclasses.replace(example_parsed, raw=raw), str(path))
    assert repr(load_raw(str(path))) == repr(raw)


def test_bolza_form_accepted(tmp_path, doc):
    doc = copy.deepcopy(doc)
    doc["cost"]["terms"] = [
        {"order": 0.0, "operand": "x1**2 + x2**2"},
        {"order": 1.0, "operand": "u1**2"},
    ]
    path = tmp_path / "bolza.yaml"
    path.write_text(yaml.safe_dump(doc))
    parsed = parse_problem(str(path))
    term0 = parsed.problem.index.terms[0]
    assert term0.v == 0.0
    assert term0.terminal(1.0, np.array([1.0, 2.0])) == pytest.approx(5.0)


def test_problem_files_carry_exact_derivatives(doc):
    doc["cost"]["terms"].insert(0, {"order": 0.0,
                                    "operand": "0.5*x1**2 + t*x2"})
    prob = build_problem(doc).problem
    # the derivatives of the dynamics and the running operands are taken
    # over node arrays, here of one node
    t, x, u = np.array([0.4]), np.array([[0.3, -1.2]]), np.array([[2.0]])
    assert np.array_equal(prob.plant.rhs_x(t, x, u),
                          [[[0.0, 1.0], [-1.0, 0.0]]])
    assert np.array_equal(
        prob.index.running_gradient(np.array([[2.0, 3.0]]), t, x, u),
        2.0 * 2 * x + 3.0 * np.array([[2 * x[0, 0], 0.0]]))
    x = x[0]
    assert np.array_equal(prob.index.terminal_gradient(1.5, x),
                          [x[0], 1.5])


def _sqrt_doc(doc, where):
    """doc with sqrt(x1) added to the dynamics, the running operands or a
    terminal operand: finite at x1 = 0, its derivative is not."""
    if where == "dynamics":
        doc["plant"]["dynamics"][1] = "sqrt(x1) - x1"
        return doc, "sqrt(x1) - x1"
    if where == "running":
        doc["cost"]["terms"][0]["operand"] = "sqrt(x1) + x2**2"
        return doc, "sqrt(x1) + x2**2"
    doc["cost"]["terms"].insert(0, {"order": 0.0, "operand": "sqrt(x1)"})
    return doc, "sqrt(x1)"


@pytest.mark.parametrize("where", ["dynamics", "running", "terminal"])
def test_failing_derivative_is_an_abort_naming_its_source(doc, where):
    doc, source = _sqrt_doc(doc, where)
    prob = build_problem(doc).problem
    x, u = np.array([0.0, 1.0]), np.array([0.0])
    # the dynamics and running derivatives over node arrays of one node:
    # their non-finite value is evaluated again by the scalar form
    t, xs, us = np.array([0.5]), x[None], u[None]
    derivative = {"dynamics": lambda: prob.plant.rhs_x(t, xs, us),
                  "running": lambda: prob.index.running_gradient(
                      np.ones((1, 2)), t, xs, us),
                  "terminal": lambda: prob.index.terminal_gradient(1.0, x)}
    with pytest.raises(SweepAbort) as info:
        derivative[where]()
    assert str(info.value).startswith(
        f"cannot evaluate the x-derivative of {source!r} at t = ")


def test_failing_expression_is_an_abort_naming_its_source(doc):
    # the second of the two dynamics expressions fails at x1 = 0
    doc["plant"]["dynamics"][1] = "1/x1"
    prob = build_problem(doc).problem
    with pytest.raises(SweepAbort) as info:
        prob.plant.rhs(0.5, np.array([0.0, 1.0]), np.array([0.0]))
    assert str(info.value).startswith("cannot evaluate '1/x1' at t = ")


def test_parsed_example_solves_as_the_hand_built_problem(example_state):
    # exact derivatives for the file, central differences for the
    # callables: the same iterations and J* within rounding
    state, _ = example_state
    ref = fo.solve(two_state_problem(), two_state_config())
    assert state.iteration == ref.iteration
    assert state.j_star == pytest.approx(ref.j_star, rel=1e-12, abs=0)
