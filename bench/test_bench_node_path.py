"""Per-node cost of the sweep: both bundled problems solved on three grids.

    PYTHONPATH=src python -m pytest -q bench/test_bench_node_path.py
    PYTHONPATH=<checkout of the other commit>/src BENCH_SIDE=parent \\
        python -m pytest -q bench/test_bench_node_path.py

Run from the root of the repository.  Each run times `fracopt.sweep.solve`
with pytest-benchmark, one solve per round, with the transformed field
built once outside the timer (the set-up of `fracopt run`), on
problems/example.yaml (the quadratic rule, Euler) and on
perfbench/lq_bounded.yaml (the bounded scalar search, Heun), each file
read as it is.  Rows, labelled with the problem file, for each problem:

- dt = 0.01 and dt = 0.001: the converged solve;
- dt = 1e-4 (10^4 + 1 nodes): one sweep evaluation (max_iters = 0), the
  grid-scaling row.

Per-node work dominates every row, so the rows show how solve time scales
with the node count.  The run adds its round times, under the label
BENCH_SIDE ("change" unless set), to BENCH_<topic>.json at the root of
this checkout, and keeps what earlier runs wrote; the topic is
BENCH_TOPIC ("node_path" unless set), so that each change measured
keeps its own file (BENCH_node_cost.json, BENCH_node_batch.json,
BENCH_grid_plan.json and BENCH_forward_kernel.json were written with
those topics, on the example's rows alone, which were named without
their problem file; BENCH_problem_protocol.json, BENCH_probe_path.json,
BENCH_bounded_search.json, BENCH_sparse_search.json,
BENCH_newton_search.json and BENCH_costate.json on every row).  Runs
on one machine with the source tree of each commit on PYTHONPATH,
alternating between the two, give a before/after table; delete the file
to start a new one.
Each row pools the rounds of every run of its side and holds the median,
the quartiles, (Q3 - Q1) / median, each run's median with the median
and quartiles of those (bench_file), and the solve's J*, Error and
iteration count, which must agree between sides whose outputs are meant
to be identical.  It also holds peak_rss_mb, the median over the runs of
the process's peak resident memory once the row has run (getrusage
ru_maxrss): the rows run in order, the example's first, so a row's
peak covers every row before it, and the example's dt = 1e-4 row's is
the peak of one evaluation on 10^4 + 1 nodes.
"""

from __future__ import annotations

import dataclasses
import os
import resource
from pathlib import Path

import numpy as np
import pytest

from bench_file import append_run
from fracopt.config import parse_problem
from fracopt.sweep import solve

ROOT = Path(__file__).resolve().parent.parent
TOPIC = os.environ.get("BENCH_TOPIC", "node_path")
OUT = ROOT / f"BENCH_{TOPIC}.json"
PROBLEMS = ["problems/example.yaml", "perfbench/lq_bounded.yaml"]
WORKLOAD = " and ".join(PROBLEMS) + " solved by fracopt.sweep.solve"

#: (row name, solver settings, rounds, warm-up rounds) on each problem;
#: the warm-up round of a problem's first row also warms the process for
#: the rows after it.  The finer rows take 10 and 8 rounds (about 4 s and
#: 2.5 s a problem): with 3 and 2, their quartile spread was 15-40 % of
#: the median even pooled over 20 runs on a shared 2-core host
GRID_ROWS = [
    ("solve dt=0.01", {"dt": 0.01}, 7, 1),
    ("solve dt=0.001", {"dt": 0.001}, 10, 0),
    ("one evaluation dt=1e-4", {"dt": 0.0001, "max_iters": 0}, 8, 0),
]
#: (row name labelled with its problem, problem, solver settings, rounds,
#: warm-up rounds)
ROWS = [(f"{problem}: {name}", problem, settings, rounds, warmup)
        for problem in PROBLEMS
        for name, settings, rounds, warmup in GRID_ROWS]


def solve_row(benchmark, name, problem, settings, rounds, warmup) -> dict:
    """Time solve on the problem file with its SweepConfig's fields
    replaced by settings (a file need not list them), and return the
    row: its name, problem, grid, round times, results and
    peak_rss_mb."""
    parsed = parse_problem(str(ROOT / problem))
    cfg = dataclasses.replace(parsed.config, **settings)
    prob = parsed.problem.with_field(cfg.n_a, cfg.n_b, cfg.p_max,
                                     cfg.b_series)
    state = benchmark.pedantic(solve, args=(prob, cfg), rounds=rounds,
                               iterations=1, warmup_rounds=warmup)
    assert np.isfinite(state.error)
    return {
        "name": name, "problem": problem, "dt": cfg.dt,
        "max_iters": cfg.max_iters,
        "nodes": state.grid.n_nodes, "times_s": benchmark.stats.stats.data,
        "iterations": state.iteration, "j_star": state.j_star,
        "error": state.error,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }


@pytest.fixture(scope="module")
def rows():
    out = []
    yield out
    append_run(OUT, TOPIC, WORKLOAD, out)


@pytest.mark.parametrize("name, problem, settings, rounds, warmup", ROWS,
                         ids=[r[0] for r in ROWS])
def test_node_path(benchmark, rows, name, problem, settings, rounds,
                   warmup):
    rows.append(solve_row(benchmark, name, problem, settings, rounds,
                          warmup))
