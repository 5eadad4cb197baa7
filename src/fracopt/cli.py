"""Command-line front end.

Subcommands:

    run <problem.yaml> [--override k=v ...] [--csv PATH] [--report PATH]
        Solve the problem, print a run report, write the per-node
        trajectory CSV and a JSON duplicate of the report.
        Exit status: 0 converged, 2 not converged, 1 error.

    verify <problem.yaml> --csv PATH [--override k=v ...]
        Recompute the per-node residuals and aggregate error from the
        problem file and a previously written CSV alone, and check they
        reproduce the stored error column.  Exit 0 on agreement within
        1e-12, 1 otherwise.

    print-coeffs --q Q --na N --nb N [--pmax P] [--series S]
        Dump the expansion coefficient tables for audit.

The CSV schema is fixed: header t, x_1..x_n, u_1..u_m, V, error with
values printed to 17 significant digits so that verify's recomputation
is bit-faithful.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from .config import file_errors, parse_problem
from .errors import ConfigError, DomainError, SweepAbort
from .expansion import ExpansionCoeffs
from .grid import TimeGrid
from .hjb import aggregate_error
from .sweep import SweepState, audit_residuals, solve

_FMT = "%.17g"


def _csv_header(n_states: int, n_controls: int) -> list:
    return (["t"] + [f"x_{i + 1}" for i in range(n_states)]
            + [f"u_{j + 1}" for j in range(n_controls)] + ["V", "error"])


def write_csv(path: str, state: SweepState) -> None:
    grid = state.grid
    times = grid.times()
    n_states = state.x.shape[1]
    n_controls = state.u.shape[1]
    rows = [",".join(_csv_header(n_states, n_controls))]
    for k in range(grid.n_nodes):
        cells = ([_FMT % times[k]]
                 + [_FMT % v for v in state.x[k]]
                 + [_FMT % v for v in state.u[k]]
                 + [_FMT % state.value.v[k], _FMT % state.residuals[k]])
        rows.append(",".join(cells))
    Path(path).write_text("\n".join(rows) + "\n", encoding="utf-8")


def read_csv(path: str, n_states: int, n_controls: int):
    with file_errors(path):
        text = Path(path).read_text(encoding="utf-8").strip().splitlines()
    if not text:
        raise ConfigError(f"{path}: empty CSV")
    header = text[0].split(",")
    expected = _csv_header(n_states, n_controls)
    if header != expected:
        raise ConfigError(
            f"{path}: CSV schema mismatch: expected columns {expected}, "
            f"found {header}")
    rows = []
    for line_no, line in enumerate(text[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(expected):
            raise ConfigError(f"{path}: line {line_no}: ragged CSV, expected "
                              f"{len(expected)} fields, found {len(cells)}")
        try:
            row = [float(c) for c in cells]
        except ValueError:
            raise ConfigError(
                f"{path}: line {line_no}: non-numeric field") from None
        if not all(map(math.isfinite, row)):
            raise ConfigError(f"{path}: line {line_no}: non-finite field")
        rows.append(row)
    if not rows:
        raise ConfigError(f"{path}: CSV has no data rows")
    data = np.array(rows)
    t = data[:, 0]
    x = data[:, 1:1 + n_states]
    u = data[:, 1 + n_states:1 + n_states + n_controls]
    v = data[:, 1 + n_states + n_controls]
    err = data[:, 2 + n_states + n_controls]
    return t, x, u, v, err


def _report_dict(state: SweepState, wall: float) -> dict:
    return {
        "j_star": state.j_star,
        "terminal_state": [float(v) for v in state.terminal_state],
        "error": state.error,
        "iterations": state.iteration,
        "converged": state.converged,
        "stagnated": state.stagnated,
        "value_at_t0": float(state.value.v[0]),
        "wall_time_s": wall,
    }


def _print_report(rep: dict, stream=sys.stdout) -> None:
    print(f"J*           = {rep['j_star']:.10g}", file=stream)
    print("terminal x   = "
          + " ".join(f"{v:.10g}" for v in rep["terminal_state"]), file=stream)
    print(f"error        = {rep['error']:.6e}", file=stream)
    print(f"iterations   = {rep['iterations']}", file=stream)
    print(f"converged    = {rep['converged']}", file=stream)
    print(f"wall time    = {rep['wall_time_s']:.2f} s", file=stream)


def cmd_run(args) -> int:
    parsed = parse_problem(args.problem, args.override)
    stem = Path(args.problem).stem
    csv_path = args.csv or parsed.csv_path or f"{stem}_trajectory.csv"
    report_path = args.report or parsed.report_path or f"{stem}_report.json"
    start = time.perf_counter()
    state = solve(parsed.problem, parsed.config)
    wall = time.perf_counter() - start
    rep = _report_dict(state, wall)
    rep["csv"] = str(csv_path)
    with file_errors(csv_path):
        Path(csv_path).parent.mkdir(parents=True, exist_ok=True)
        write_csv(csv_path, state)
    with file_errors(report_path):
        Path(report_path).parent.mkdir(parents=True, exist_ok=True)
        Path(report_path).write_text(json.dumps(rep, indent=2) + "\n",
                                     encoding="utf-8")
    _print_report(rep)
    print(f"trajectory   -> {csv_path}")
    print(f"report       -> {report_path}")
    return 0 if state.converged else 2


def cmd_verify(args) -> int:
    parsed = parse_problem(args.problem, args.override)
    prob = parsed.problem
    grid = TimeGrid.from_step(prob.plant.t0, prob.tf, parsed.config.dt)
    t, x, u, v_stored, err_stored = read_csv(
        args.csv, prob.plant.n_states, prob.plant.n_controls)
    if t.shape[0] != grid.n_nodes \
            or np.max(np.abs(t - grid.times())) > 1e-9 * max(1.0, abs(prob.tf)):
        raise ConfigError(
            f"{args.csv}: time column does not match the problem grid "
            f"({t.shape[0]} rows vs {grid.n_nodes} nodes)")
    residuals, value = audit_residuals(prob, x, u, parsed.config)
    recomputed = aggregate_error(residuals)
    stored = aggregate_error(err_stored)
    diff = abs(recomputed - stored)
    v_diff = float(np.max(np.abs(value.v - v_stored)))
    node_diff = float(np.max(np.abs(residuals - err_stored)))
    print(f"stored Error     = {stored:.17g}")
    print(f"recomputed Error = {recomputed:.17g}")
    print(f"|difference|     = {diff:.3e}")
    print(f"max node diff    = {node_diff:.3e}")
    print(f"max V diff       = {v_diff:.3e}")
    ok = max(diff, node_diff, v_diff) <= 1e-12
    print("audit            =", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def cmd_print_coeffs(args) -> int:
    coeffs = ExpansionCoeffs.build(args.q, args.na, args.nb,
                                   args.pmax, args.series)
    print(f"q = {args.q}  series = {args.series}")
    print(f"A(q, {args.na}) = {coeffs.a_val:.17g}")
    print(f"B(q, {args.nb}) = {coeffs.b_val:.17g}")
    print("p, C(q,p)")
    for p, c in zip(coeffs.p_values, coeffs.c_vals):
        print(f"{p}, {c:.17g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracopt",
        description="Fractional optimal control via a forward-backward sweep")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="solve a problem file")
    p_run.add_argument("problem")
    p_run.add_argument("--override", action="append", default=[],
                       metavar="KEY=VALUE")
    p_run.add_argument("--csv", default=None)
    p_run.add_argument("--report", default=None)
    p_run.set_defaults(func=cmd_run)

    p_ver = sub.add_parser("verify",
                           help="recompute residuals from a finished run")
    p_ver.add_argument("problem")
    p_ver.add_argument("--csv", required=True)
    p_ver.add_argument("--override", action="append", default=[],
                       metavar="KEY=VALUE")
    p_ver.set_defaults(func=cmd_verify)

    p_pc = sub.add_parser("print-coeffs",
                          help="dump expansion coefficient tables")
    p_pc.add_argument("--q", type=float, required=True)
    p_pc.add_argument("--na", type=int, required=True)
    p_pc.add_argument("--nb", type=int, required=True)
    p_pc.add_argument("--pmax", type=int, default=150)
    p_pc.add_argument("--series", default="divergent",
                      choices=("divergent", "convergent"))
    p_pc.set_defaults(func=cmd_print_coeffs)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SweepAbort as exc:
        print(f"solver abort: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
