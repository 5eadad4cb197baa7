"""The checks of same_outputs on hand-made collected outputs; starts no
process.

    PYTHONPATH=src python -m pytest -q bench/test_same_outputs.py
"""

from __future__ import annotations

import pytest

import same_outputs
from same_outputs import CONFIGS, compare, failures, main

CSV = b"t,x_1,u_1\n0,1,0\n0.01,0.99,0.25\n"
VERIFIED = "|difference|     = 0.000e+00\naudit            = PASS\n"


def outputs(**changes) -> dict:
    """The collected outputs of a run and verify that pass, with the
    fields in changes replaced (a space for each _ in their names)."""
    out = {"run status": 0, "verify status": 0, "csv": CSV,
           "report": {"j_star": 1.25, "value_at_t0": 1.25, "iterations": 7},
           "verify output": VERIFIED, "stderr": ""}
    out.update({key.replace("_", " "): value
                for key, value in changes.items()})
    return out


def run_main(monkeypatch, tmp_path, ours: dict, theirs=None) -> int:
    """main with ours collected for every configuration from this
    checkout and, if given, theirs from a stand-in OTHER_SRC."""
    (tmp_path / "fracopt").mkdir(exist_ok=True)
    here = same_outputs.ROOT / "src"
    monkeypatch.setattr(same_outputs, "collect",
                        lambda src, config, out: ours if src == here
                        else theirs)
    return main([] if theirs is None else [str(tmp_path)])


def test_the_configurations_are_the_five_ci_runs():
    assert [same_outputs.name(config) for config in CONFIGS] == [
        "problems/example.yaml",
        "problems/manufactured.yaml",
        "perfbench/lq_bounded.yaml",
        "problems/example.yaml --override solver.quadratic_control=false",
        "problems/manufactured.yaml --override "
        "solver.quadratic_control=false"]
    for problem, *_ in CONFIGS:
        assert (same_outputs.ROOT / problem).is_file()


@pytest.mark.parametrize("ours, expected", [
    (outputs(run_status=2), ["run status 2"]),
    (outputs(verify_status=1), ["verify status 1"]),
    (outputs(csv=None), ["no CSV written"]),
    (outputs(verify_output=VERIFIED.replace("0.000e+00", "1.110e-16")),
     ["verify difference is not 0"]),
    (outputs(report={"j_star": 0.0, "value_at_t0": 2e-15}),
     ["|value_at_t0 - j_star| = 2.0e-15 > 1e-15"]),
    (outputs(report={}), ["|value_at_t0 - j_star| = nan > 1e-15"]),
], ids=["run-status", "verify-status", "no-csv", "verify-difference",
        "v0-gap", "no-report"])
def test_each_gate_alone_fails_the_check(monkeypatch, tmp_path, capsys,
                                         ours, expected):
    assert failures(ours) == expected
    assert run_main(monkeypatch, tmp_path, ours) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len([line for line in lines if "FAILED" in line]) == len(CONFIGS)
    assert f"    {expected[0]}" in lines


def test_passing_outputs_pass_alone_and_against_the_same(
        monkeypatch, tmp_path, capsys):
    ours = outputs(report={"j_star": 0.0, "value_at_t0": 1e-16})
    assert failures(ours) == []
    assert run_main(monkeypatch, tmp_path, ours) == 0
    assert capsys.readouterr().out.splitlines()[0] == \
        "problems/example.yaml: passed, |value_at_t0 - j_star| = 1.0e-16"
    assert run_main(monkeypatch, tmp_path, ours, outputs(
        report={"j_star": 0.0, "value_at_t0": 1e-16})) == 0
    assert all(": identical, " in line
               for line in capsys.readouterr().out.splitlines())


@pytest.mark.parametrize("theirs, expected", [
    (outputs(csv=b"t,x_1,u_1\n0,1.5,0\n0.01,0.98,0.25\n"),
     ["csv column x_1: max |difference| = 5.000e-01"]),
    (outputs(csv=b"t,x_1,u_1\n0,1,-0\n0.01,0.99,0.25\n"),
     ["csv column u_1: max |difference| = 0.000e+00"]),
    (outputs(csv=CSV.replace(b"\n", b"\r\n")),
     ["csv: bytes differ (every field equal)"]),
    (outputs(csv=b"t,x_1\n0,1\n"),
     ["csv: header, row count or row length differs"]),
    (outputs(report={"j_star": 1.25, "value_at_t0": 1.25, "iterations": 8}),
     ["report iterations: 7 (this checkout) vs 8 (other)"]),
    (outputs(run_status=2), ["run status: 0 (this checkout) vs 2 (other)"]),
    (outputs(verify_output=VERIFIED + "\n"), ["verify output differs"]),
    (outputs(stderr="warning\n"), ["stderr differs"]),
], ids=["column", "column-sign", "between-fields", "shape", "report-field",
        "status", "verify-output", "stderr"])
def test_each_difference_from_the_other_tree_fails_the_check(
        monkeypatch, tmp_path, capsys, theirs, expected):
    assert compare(outputs(), theirs) == expected
    assert run_main(monkeypatch, tmp_path, outputs(), theirs) == 1
    assert f"    {expected[0]}" in capsys.readouterr().out.splitlines()
