import dataclasses
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import fracopt
from fracopt import SweepAbort, forward_sweep, solve
from fracopt.cli import main, read_csv, write_csv
from fracopt.config import parse_problem
from fracopt.sweep import audit_residuals

from conftest import EXAMPLE_FILE

CHEAP = ["--override", "solver.n_a=10000", "--override", "solver.n_b=10000",
         "--override", "solver.p_max=20"]


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def cheap_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    csv = out / "traj.csv"
    rep = out / "report.json"
    rc = run_cli("run", EXAMPLE_FILE, *CHEAP,
                 "--csv", str(csv), "--report", str(rep))
    return rc, csv, rep


def test_run_converged_exit_zero(cheap_run):
    rc, csv, rep = cheap_run
    assert rc == 0
    assert csv.exists() and rep.exists()


def test_report_fields(cheap_run):
    _, _, rep = cheap_run
    data = json.loads(rep.read_text())
    for key in ("j_star", "terminal_state", "error", "iterations",
                "converged", "wall_time_s"):
        assert key in data
    assert data["converged"] is True
    assert data["error"] <= 1e-8


def test_csv_schema(cheap_run):
    _, csv, _ = cheap_run
    header = csv.read_text().splitlines()[0]
    assert header == "t,x_1,x_2,u_1,V,error"
    t, x, u, v, err = read_csv(str(csv), 2, 1)
    assert t.shape[0] == 101
    assert x.shape == (101, 2)


def test_nonconverged_exit_two(tmp_path):
    csv = tmp_path / "t.csv"
    rep = tmp_path / "r.json"
    rc = run_cli("run", EXAMPLE_FILE, *CHEAP,
                 "--override", "solver.max_iters=0",
                 "--csv", str(csv), "--report", str(rep))
    assert rc == 2
    # artifacts still written for the initial iterate
    assert csv.exists() and rep.exists()
    assert json.loads(rep.read_text())["converged"] is False


def test_non_finite_terminal_costate_is_reported_at_the_last_node(
        tmp_path, capsys):
    doc = yaml.safe_load(Path("perfbench/lq_bounded.yaml").read_text())
    doc["cost"]["terms"][0]["operand"] = "1e300*1e300*x1"
    prob = tmp_path / "inf_terminal.yaml"
    prob.write_text(yaml.safe_dump(doc))
    assert run_cli("run", str(prob), "--csv", str(tmp_path / "t.csv"),
                   "--report", str(tmp_path / "r.json")) == 1
    assert capsys.readouterr().err == \
        "solver abort: non-finite costate at node 100\n"


def test_non_finite_terminal_value_is_reported_at_the_last_node(
        tmp_path, capsys):
    # the terminal operand overflows but its gradient is finite, so the
    # costate passes its check and the terminal value must not
    doc = yaml.safe_load(Path("perfbench/lq_bounded.yaml").read_text())
    doc["cost"]["terms"][0]["operand"] = "1e200*1e200 + 0.5*x1**2"
    prob = tmp_path / "inf_terminal_value.yaml"
    prob.write_text(yaml.safe_dump(doc))
    message = "non-finite terminal value at node 100"
    parsed = parse_problem(str(prob))
    with pytest.raises(SweepAbort, match=message):
        solve(parsed.problem, parsed.config)
    x, _ = forward_sweep(parsed.problem, 0.0, parsed.config)
    with pytest.raises(SweepAbort, match=message):
        audit_residuals(parsed.problem, x, 0.0, parsed.config)
    assert run_cli("run", str(prob), "--csv", str(tmp_path / "t.csv"),
                   "--report", str(tmp_path / "r.json")) == 1
    assert capsys.readouterr().err == f"solver abort: {message}\n"


def test_error_exit_one(tmp_path):
    missing = tmp_path / "nope.yaml"
    assert run_cli("run", str(missing)) == 1
    bad = tmp_path / "bad.yaml"
    bad.write_text("plant: {orders: [3.0]}\n")
    assert run_cli("run", str(bad)) == 1


def test_missing_csv_exits_one(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    assert run_cli("verify", EXAMPLE_FILE, "--csv", str(missing)) == 1
    assert capsys.readouterr().err.startswith(f"error: {missing}: ")


def test_directory_as_problem_file_exits_one(tmp_path, capsys):
    assert run_cli("run", str(tmp_path)) == 1
    assert capsys.readouterr().err.startswith(f"error: {tmp_path}: ")


def test_non_utf8_problem_file_exits_one(tmp_path, capsys):
    prob = tmp_path / "latin1.yaml"
    prob.write_bytes(b"plant: {orders: [0.5]}  # caf\xe9\n")
    assert run_cli("run", str(prob)) == 1
    assert capsys.readouterr().err.startswith(f"error: {prob}: ")


@pytest.mark.parametrize("content, message", [
    # a reader error: the character has no line/column mark
    (b"plant:\n  orders: [0.5]\x07\n", "YAML parse error: unacceptable "
     "character #x0007: special characters are not allowed"),
    (b"plant: [1,\n", "YAML parse error at line 2, column 1: expected the "
     "node content, but found '<stream end>'")])
def test_unreadable_yaml_problem_file_exits_one(tmp_path, capsys, content,
                                                message):
    prob = tmp_path / "bad.yaml"
    prob.write_bytes(content)
    assert run_cli("run", str(prob)) == 1
    assert capsys.readouterr().err == f"error: {prob}: {message}\n"


@pytest.mark.parametrize("override, message", [
    ("plant.dynamics=[x2 + u1", "YAML parse error at line 1, column 9: "
     "expected ',' or ']', but got '<stream end>'"),
    ("plant.dynamics=[x2\x07]", "YAML parse error: unacceptable character "
     "#x0007: special characters are not allowed")])
def test_unparsable_override_exits_one(tmp_path, capsys, monkeypatch,
                                       override, message):
    _refuse_to_solve(monkeypatch)
    assert run_cli("run", EXAMPLE_FILE, "--override", override,
                   "--csv", str(tmp_path / "t.csv"),
                   "--report", str(tmp_path / "r.json")) == 1
    assert capsys.readouterr().err == \
        f"error: override 'plant.dynamics': {message}\n"


def _example_with(tmp_path, old, new):
    """problems/example.yaml with the text old replaced by new, written
    to tmp_path, without its output block's paths."""
    text = Path(EXAMPLE_FILE).read_text()
    assert old in text
    prob = tmp_path / "edited.yaml"
    prob.write_text(text.replace(old, new).split("output:")[0])
    return prob


def test_exponent_step_solves_as_its_decimal(tmp_path):
    # dt: 1e-2 was read as text, and rejected as not a number
    csvs = []
    for text in ("0.01", "1e-2"):
        prob = _example_with(tmp_path, "  dt: 0.01\n", f"  dt: {text}\n")
        csv = tmp_path / f"{text}.csv"
        assert run_cli("run", str(prob), *CHEAP, "--csv", str(csv),
                       "--report", str(tmp_path / "r.json")) == 0
        csvs.append(csv.read_bytes())
    assert csvs[0] == csvs[1]


def test_key_given_twice_exits_one(tmp_path, capsys, monkeypatch):
    _refuse_to_solve(monkeypatch)
    prob = _example_with(tmp_path, "  dt: 0.01\n", "  dt: 0.01\n  dt: 0.02\n")
    line = prob.read_text().splitlines().index("  dt: 0.02") + 1
    assert run_cli("run", str(prob), "--csv", str(tmp_path / "t.csv"),
                   "--report", str(tmp_path / "r.json")) == 1
    assert capsys.readouterr().err == (
        f"error: {prob}: YAML parse error at line {line}, column 3: found "
        "duplicate key 'dt'\n")


def test_non_finite_initial_state_exits_one(tmp_path, capsys, monkeypatch):
    # it was a solver abort at node 1, a non-finite moment state
    _refuse_to_solve(monkeypatch)
    prob = _example_with(tmp_path, "initial_state: [1.0, 0.5]",
                         "initial_state: [1.0, .nan]")
    assert run_cli("run", str(prob), "--csv", str(tmp_path / "t.csv"),
                   "--report", str(tmp_path / "r.json")) == 1
    assert capsys.readouterr().err == (
        "error: plant.initial_state[1]: expected a finite number, got nan\n")


def _refuse_to_solve(monkeypatch):
    def solve_(*args):
        raise AssertionError("solved before the output paths were checked")
    monkeypatch.setattr(fracopt.cli, "solve", solve_)


def test_directory_as_csv_output_exits_one(tmp_path, capsys, monkeypatch):
    _refuse_to_solve(monkeypatch)
    target = tmp_path / "out"
    target.mkdir()
    assert run_cli("run", EXAMPLE_FILE, *CHEAP,
                   "--override", "solver.max_iters=0", "--csv", str(target),
                   "--report", str(tmp_path / "r.json")) == 1
    assert capsys.readouterr().err.startswith(f"error: {target}: ")


def test_directory_as_report_output_exits_one(tmp_path, capsys,
                                              monkeypatch):
    _refuse_to_solve(monkeypatch)
    target = tmp_path / "out"
    target.mkdir()
    assert run_cli("run", EXAMPLE_FILE, *CHEAP,
                   "--override", "solver.max_iters=0",
                   "--csv", str(tmp_path / "t.csv"),
                   "--report", str(target)) == 1
    assert capsys.readouterr().err.startswith(f"error: {target}: ")


def test_bad_step_sizes_exit_one(tmp_path, capsys):
    # a zero and a non-finite grid step are input errors, reported on
    # stderr, not tracebacks from deep in the sweep
    doc = yaml.safe_load(Path(EXAMPLE_FILE).read_text())
    doc.pop("output")
    doc["solver"].update(n_a=10000, n_b=10000, p_max=20, dt=0.0)
    prob = tmp_path / "dt0.yaml"
    prob.write_text(yaml.safe_dump(doc))
    out = ["--csv", str(tmp_path / "t.csv"),
           "--report", str(tmp_path / "r.json")]
    assert run_cli("run", str(prob), *out) == 1
    assert "error:" in capsys.readouterr().err
    assert run_cli("run", EXAMPLE_FILE, *CHEAP,
                   "--override", "solver.dt=nan", *out) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("solver", [
    {"p_max": 20.5}, {"u_init": "abc"}, {"error_tol": float("nan")}])
def test_ill_typed_solver_values_exit_one(tmp_path, capsys, solver):
    doc = yaml.safe_load(Path(EXAMPLE_FILE).read_text())
    doc.pop("output")
    doc["solver"].update({"n_a": 10000, "n_b": 10000, "p_max": 20, **solver})
    prob = tmp_path / "bad.yaml"
    prob.write_text(yaml.safe_dump(doc))
    assert run_cli("run", str(prob), "--csv", str(tmp_path / "t.csv"),
                   "--report", str(tmp_path / "r.json")) == 1
    assert "error: solver: " in capsys.readouterr().err


@pytest.mark.parametrize("block, key, value", [
    ("solver", "quadratic_control", "false"),
    ("solver", "quadratic_control", 1),
    ("solver", "t0", "abc"),
    ("solver", "t0", True),
    ("solver", "tf", float("inf")),
    ("output", "csv", 123),
    ("output", "report", ["r.json"]),
], ids=["quoted boolean", "integer boolean", "text t0", "boolean t0",
        "infinite tf", "numeric csv", "list report"])
def test_ill_typed_problem_values_exit_one(tmp_path, capsys, block, key,
                                           value):
    doc = yaml.safe_load(Path(EXAMPLE_FILE).read_text())
    doc["solver"].update(n_a=10000, n_b=10000, p_max=20)
    doc[block][key] = value
    prob = tmp_path / "bad.yaml"
    prob.write_text(yaml.safe_dump(doc))
    assert run_cli("run", str(prob), "--csv", str(tmp_path / "t.csv"),
                   "--report", str(tmp_path / "r.json")) == 1
    assert f"error: {block}.{key}: " in capsys.readouterr().err


def test_integer_power_aborts_within_seconds(tmp_path):
    # in a subprocess with a timeout, so that a run computing the exact
    # integer 9**9**9 fails instead of hanging the suite
    doc = _one_state_doc(dynamics="x1 + 9**9**9")
    prob = tmp_path / "power.yaml"
    prob.write_text(yaml.safe_dump(doc))
    src = str(Path(fracopt.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "fracopt", "run", str(prob),
         "--csv", str(tmp_path / "t.csv"),
         "--report", str(tmp_path / "r.json")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=30)
    assert proc.returncode == 1
    assert proc.stderr.startswith("solver abort: ")
    assert repr("x1 + 9**9**9") in proc.stderr


def test_import_and_solve_load_no_scipy(tmp_path):
    # scipy is a test-only dependency: importing the package and solving
    # the bounded-search workload must not load any of it
    script = (
        "import sys\n"
        "import fracopt, fracopt.cli\n"
        "rc = fracopt.cli.main(['run', sys.argv[1], '--csv', sys.argv[2],\n"
        "                      '--report', sys.argv[3]])\n"
        "print(rc, sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    root = Path(__file__).resolve().parent.parent
    src = str(Path(fracopt.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", script,
         str(root / "perfbench" / "lq_bounded.yaml"),
         str(tmp_path / "t.csv"), str(tmp_path / "r.json")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


@pytest.mark.parametrize("module", ["fracopt"] + [
    f"fracopt.{info.name}" for info in pkgutil.iter_modules(fracopt.__path__)
    if info.name != "__main__"])
def test_every_exported_name_resolves(module):
    # a stale __all__ entry makes the star import raise AttributeError
    exported = getattr(importlib.import_module(module), "__all__", [])
    namespace = {}
    exec(f"from {module} import *", namespace)
    assert set(exported) <= set(namespace)


def test_integral_float_counts_run(tmp_path):
    doc = yaml.safe_load(Path(EXAMPLE_FILE).read_text())
    doc.pop("output")
    doc["solver"].update(n_a=1.0e4, n_b=1.0e4, p_max=20.0, max_iters=0)
    prob = tmp_path / "floats.yaml"
    prob.write_text(yaml.safe_dump(doc))
    assert run_cli("run", str(prob), "--csv", str(tmp_path / "t.csv"),
                   "--report", str(tmp_path / "r.json")) == 2


def test_verify_reproduces_run(cheap_run):
    _, csv, _ = cheap_run
    rc = run_cli("verify", EXAMPLE_FILE, *CHEAP, "--csv", str(csv))
    assert rc == 0


def test_verify_detects_perturbation(tmp_path, cheap_run):
    _, csv, _ = cheap_run
    lines = csv.read_text().splitlines()
    header = lines[0].split(",")
    iu = header.index("u_1")
    cells = lines[40].split(",")
    cells[iu] = repr(float(cells[iu]) + 1e-3)
    lines[40] = ",".join(cells)
    pert = tmp_path / "pert.csv"
    pert.write_text("\n".join(lines) + "\n")
    rc = run_cli("verify", EXAMPLE_FILE, *CHEAP, "--csv", str(pert))
    assert rc == 1


def _with_cell(tmp_path, csv, column, row, edit):
    """A copy of csv whose cell in column and line row is edit(value)."""
    lines = csv.read_text().splitlines()
    i = lines[0].split(",").index(column)
    cells = lines[row].split(",")
    cells[i] = repr(edit(float(cells[i])))
    lines[row] = ",".join(cells)
    edited = tmp_path / "edited.csv"
    edited.write_text("\n".join(lines) + "\n")
    return edited


def test_verify_detects_a_wrong_value_cell(tmp_path, capsys, cheap_run):
    # the residuals do not read V, so only the V gate can catch it
    _, csv, _ = cheap_run
    edited = _with_cell(tmp_path, csv, "V", 40, lambda v: v + 123.0)
    assert run_cli("verify", EXAMPLE_FILE, *CHEAP, "--csv", str(edited)) == 1
    out = capsys.readouterr().out
    assert "|difference|     = 0.000e+00" in out
    assert "max V diff       = 1.230e+02" in out
    assert "audit            = FAIL" in out


def test_verify_detects_a_flipped_residual_sign(tmp_path, capsys, cheap_run):
    # the norm of the error column ignores signs, so only the per-node
    # gate can catch it
    _, csv, _ = cheap_run
    err = read_csv(str(csv), 2, 1)[4]
    row = 1 + int(np.argmax(np.abs(err)))     # line 0 is the header
    edited = _with_cell(tmp_path, csv, "error", row, lambda e: -e)
    assert run_cli("verify", EXAMPLE_FILE, *CHEAP, "--csv", str(edited)) == 1
    out = capsys.readouterr().out
    assert "|difference|     = 0.000e+00" in out
    assert "max V diff       = 0.000e+00" in out
    assert "audit            = FAIL" in out


def test_verify_schema_mismatch(tmp_path, cheap_run):
    _, csv, _ = cheap_run
    broken = tmp_path / "broken.csv"
    text = csv.read_text().splitlines()
    text[0] = "t,x_1,u_1,V,error"
    broken.write_text("\n".join(text) + "\n")
    assert run_cli("verify", EXAMPLE_FILE, *CHEAP, "--csv", str(broken)) == 1


@pytest.mark.parametrize("damage", ["header only", "ragged", "non-numeric",
                                    "nan", "inf"])
def test_verify_malformed_csv_exit_one(tmp_path, capsys, cheap_run, damage):
    _, csv, _ = cheap_run
    lines = csv.read_text().splitlines()
    if damage == "header only":
        lines = lines[:1]
    elif damage == "ragged":
        lines[7] += ",0.5"
    elif damage == "non-numeric":
        lines[7] = "abc" + lines[7][lines[7].index(","):]
    else:   # a non-finite x_1
        cells = lines[7].split(",")
        cells[1] = damage
        lines[7] = ",".join(cells)
    broken = tmp_path / "broken.csv"
    broken.write_text("\n".join(lines) + "\n")
    assert run_cli("verify", EXAMPLE_FILE, *CHEAP, "--csv", str(broken)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(broken) in err
    if damage != "header only":
        assert "line 8" in err


def _one_state_doc(dynamics="u1", x0=1.0, running="u1**2", terminal=None):
    terms = [{"order": 1.0, "operand": running}]
    if terminal is not None:
        terms.insert(0, {"order": 0.0, "operand": terminal})
    return {
        "plant": {"orders": [0.5], "initial_state": [x0],
                  "dynamics": [dynamics], "controls": 1,
                  "control_lower": [-1.0], "control_upper": [1.0]},
        "cost": {"terms": terms},
        "solver": {"t0": 0.0, "tf": 1.0, "dt": 0.01, "u_init": 0.0,
                   "n_a": 50, "n_b": 50, "p_max": 5,
                   "quadratic_control": True},
    }


@pytest.mark.parametrize("doc, expression", [
    (_one_state_doc(dynamics="1/(x1 - 1)"), "1/(x1 - 1)"),
    (_one_state_doc(dynamics="log(x1 - 2)"), "log(x1 - 2)"),
    (_one_state_doc(dynamics="exp(1000*x1)"), "exp(1000*x1)"),
    (_one_state_doc(dynamics="x1**0.5", x0=-1.0), "x1**0.5"),
    (_one_state_doc(running="log(x1 - 2) + u1**2"), "log(x1 - 2) + u1**2"),
    (_one_state_doc(terminal="sqrt(x1 - 2)"), "sqrt(x1 - 2)"),
], ids=["zero division", "log domain", "overflow", "complex power",
        "running operand", "terminal operand"])
def test_expression_math_error_is_solver_abort(tmp_path, capsys, doc,
                                               expression):
    prob = tmp_path / "bad_math.yaml"
    prob.write_text(yaml.safe_dump(doc))
    assert run_cli("run", str(prob), "--csv", str(tmp_path / "t.csv"),
                   "--report", str(tmp_path / "r.json")) == 1
    err = capsys.readouterr().err
    assert err.startswith("solver abort: ") and repr(expression) in err


@pytest.mark.parametrize("operands, u_init, failing, t", [
    ({1: "x1**2 + u1**2 + sqrt(u1)"}, 5.0, 1, "0.0"),
    ({1: "x1**2 + u1**2 + sqrt(u1 + 1.5 - t)"}, 5.0, 1, "0.51"),
    ({1: "x1**2 + u1**2 + sqrt(1 - 10*u1*(t - 0.5))"}, 0.0, 1, "0.0"),
    ({0: "x1**2 + x2**2 + sqrt(0.5 - t)",
      1: "x1**2 + u1**2 + sqrt(t - 0.2)"}, 5.0, 1, "0.0"),
], ids=["probe at every node", "probe from node 51", "probe order",
        "operand order"])
def test_math_error_over_all_nodes_names_the_first_failing_node(
        tmp_path, capsys, operands, u_init, failing, t):
    # the lines node-by-node evaluation printed: the quadratic rule's
    # probe u1 = -1 fails from node 0 (or node 51) on; with u1 = 0 the
    # probe u1 = 1 fails from node 61 on, in an earlier batch than the
    # probe u1 = -1 that fails at node 0; and in h, the first operand
    # fails from node 51 on and the second at node 0
    doc = yaml.safe_load(Path(EXAMPLE_FILE).read_text())
    for index, operand in operands.items():
        doc["cost"]["terms"][index]["operand"] = operand
    doc["solver"]["u_init"] = u_init
    prob = tmp_path / "failing_operand.yaml"
    prob.write_text(yaml.safe_dump(doc))
    assert run_cli("run", str(prob), "--csv", str(tmp_path / "t.csv"),
                   "--report", str(tmp_path / "r.json")) == 1
    assert capsys.readouterr().err == (
        f"solver abort: cannot evaluate {operands[failing]!r} at t = {t}: "
        "math domain error\n")


def test_determinism_byte_identical_csv(tmp_path):
    paths = []
    for tag in ("a", "b"):
        csv = tmp_path / f"{tag}.csv"
        rc = run_cli("run", EXAMPLE_FILE, *CHEAP, "--csv", str(csv),
                     "--report", str(tmp_path / f"{tag}.json"))
        assert rc == 0
        paths.append(csv)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_write_csv_prints_every_value_to_17_significant_digits(
        tmp_path, cheap_state):
    x = -cheap_state.x
    x[:4, 0] = [-0.0, 5e-324, 1.7976931348623157e308, -2.5e-310]
    state = dataclasses.replace(cheap_state, x=x)
    path = tmp_path / "edge.csv"
    write_csv(str(path), state)
    columns = [state.grid.times(), *x.T, *state.u.T, state.value.v,
               state.residuals]
    lines = ["t,x_1,x_2,u_1,V,error"] + [
        ",".join("%.17g" % column[k] for column in columns)
        for k in range(state.grid.n_nodes)]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
    assert [line.split(",")[1]
            for line in path.read_text().splitlines()[1:5]] == [
        "-0", "4.9406564584124654e-324", "1.7976931348623157e+308",
        "-2.5000000000000171e-310"]


def test_write_csv_writes_text_to_a_gz_path(tmp_path, cheap_state):
    path = tmp_path / "trajectory.csv.gz"
    write_csv(str(path), cheap_state)
    t, x, u, v, err = read_csv(str(path), 2, 1)
    assert np.array_equal(x, cheap_state.x)


def test_print_coeffs(capsys):
    rc = run_cli("print-coeffs", "--q", "0.5", "--na", "100", "--nb", "100",
                 "--pmax", "5")
    assert rc == 0
    out = capsys.readouterr().out
    assert "A(q, 100)" in out and "B(q, 100)" in out
    # table rows for p = 2..5
    assert sum(line.startswith(("2,", "3,", "4,", "5,"))
               for line in out.splitlines()) == 4


def test_verify_trivial_problem_zero_error(tmp_path):
    # zero dynamics, zero initial state, pure control cost: the residuals
    # vanish identically and verify reproduces Error = 0
    doc = {
        "plant": {"orders": [0.5], "initial_state": [0.0],
                  "dynamics": ["u1"], "controls": 1,
                  "control_lower": [-1.0], "control_upper": [1.0]},
        "cost": {"terms": [{"order": 1.0, "operand": "u1**2"}]},
        "solver": {"t0": 0.0, "tf": 1.0, "dt": 0.01, "u_init": 0.0,
                   "n_a": 50, "n_b": 50, "p_max": 5,
                   "quadratic_control": True},
    }
    prob = tmp_path / "trivial.yaml"
    prob.write_text(yaml.safe_dump(doc))
    csv = tmp_path / "trivial.csv"
    rep = tmp_path / "trivial.json"
    assert run_cli("run", str(prob), "--csv", str(csv),
                   "--report", str(rep)) == 0
    assert json.loads(rep.read_text())["error"] == 0.0
    assert run_cli("verify", str(prob), "--csv", str(csv)) == 0


def test_default_output_paths(tmp_path, monkeypatch):
    # with no output block or flags, artifacts land next to the cwd
    doc = yaml.safe_load(Path(EXAMPLE_FILE).read_text())
    doc.pop("output")
    doc["solver"].update(n_a=10000, n_b=10000, p_max=20)
    prob = tmp_path / "prob.yaml"
    prob.write_text(yaml.safe_dump(doc))
    monkeypatch.chdir(tmp_path)
    assert run_cli("run", str(prob)) == 0
    assert (tmp_path / "prob_trajectory.csv").exists()
    assert (tmp_path / "prob_report.json").exists()
