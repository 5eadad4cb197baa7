"""Per-node cost of the sweep: the bundled example solved on three grids.

    PYTHONPATH=src python -m pytest -q bench/test_bench_node_path.py
    PYTHONPATH=<checkout of the other commit>/src BENCH_SIDE=parent \\
        python -m pytest -q bench/test_bench_node_path.py

Run from the root of the repository.  Each run times `fracopt.sweep.solve`
on problems/example.yaml with pytest-benchmark, one solve per round, with
the transformed field built once outside the timer (the set-up of
`fracopt run`).  Rows:

- dt = 0.01 and dt = 0.001: the converged solve;
- dt = 1e-4 (10^4 + 1 nodes): one sweep evaluation (max_iters = 0), the
  grid-scaling row.

Per-node work dominates every row, so the rows show how solve time scales
with the node count.  The run adds its round times, under the label
BENCH_SIDE ("change" unless set), to BENCH_node_path.json at the root of
this checkout, and keeps what earlier runs wrote.  Runs on one machine
with the source tree of each commit on PYTHONPATH, alternating between
the two, give a before/after table; delete the file to start a new one.
Each row pools the rounds of every run of its side and holds the median,
the quartiles, (Q3 - Q1) / median, and the solve's J*, Error and
iteration count, which must agree between sides whose outputs are meant
to be identical.  It also holds peak_rss_mb, the median over the runs of
the process's peak resident memory once the row has run (getrusage
ru_maxrss): the rows run in order, so the dt = 1e-4 row's is the peak
of one evaluation on 10^4 + 1 nodes.

ROWS and solve_row are imported by the other harnesses that time these
rows under their own topic (test_bench_node_cost.py).
"""

from __future__ import annotations

import resource
from pathlib import Path

import numpy as np
import pytest

from bench_file import append_run
from fracopt.config import parse_problem
from fracopt.sweep import solve

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_node_path.json"
WORKLOAD = "problems/example.yaml solved by fracopt.sweep.solve"

#: (row name, overrides, rounds, warm-up rounds); the warm-up round of the
#: first row also warms the process for the rows after it
ROWS = [
    ("solve dt=0.01", ["solver.dt=0.01"], 7, 1),
    ("solve dt=0.001", ["solver.dt=0.001"], 3, 0),
    ("one evaluation dt=1e-4", ["solver.dt=0.0001", "solver.max_iters=0"],
     2, 0),
]


def solve_row(benchmark, name, overrides, rounds, warmup) -> dict:
    """Time solve on problems/example.yaml under overrides and return the
    row: its name, grid, round times, results and peak_rss_mb."""
    parsed = parse_problem(str(ROOT / "problems" / "example.yaml"),
                           overrides)
    cfg = parsed.config
    prob = parsed.problem.with_field(cfg.n_a, cfg.n_b, cfg.p_max,
                                     cfg.b_series)
    state = benchmark.pedantic(solve, args=(prob, cfg), rounds=rounds,
                               iterations=1, warmup_rounds=warmup)
    assert np.isfinite(state.error)
    return {
        "name": name, "dt": cfg.dt, "max_iters": cfg.max_iters,
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
    append_run(OUT, "node_path", WORKLOAD, out)


@pytest.mark.parametrize("name, overrides, rounds, warmup", ROWS,
                         ids=[r[0] for r in ROWS])
def test_node_path(benchmark, rows, name, overrides, rounds, warmup):
    rows.append(solve_row(benchmark, name, overrides, rounds, warmup))
