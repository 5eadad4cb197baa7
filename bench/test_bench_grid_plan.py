"""Per-node cost of the sweep with every grid-only factor (node times,
running weights, the field's denominators and the moment step's factors)
built once per solve into a GridPlan.

    PYTHONPATH=src python -m pytest -q bench/test_bench_grid_plan.py
    PYTHONPATH=<checkout of the other commit>/src BENCH_SIDE=parent \\
        python -m pytest -q bench/test_bench_grid_plan.py

Run from the root of the repository, alternating the two sides.  The
rows and their timing are those of test_bench_node_path.py (the bundled
example solved at dt = 0.01 and 0.001, and one evaluation at dt = 1e-4,
each with the process's peak resident memory); this harness adds them to
BENCH_grid_plan.json at the root of this checkout, in the layout of
bench_file.py.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from bench_file import append_run
from test_bench_node_path import ROWS, WORKLOAD, solve_row

OUT = Path(__file__).resolve().parent.parent / "BENCH_grid_plan.json"


@pytest.fixture(scope="module")
def rows():
    out = []
    yield out
    append_run(OUT, "grid_plan", WORKLOAD, out)


@pytest.mark.parametrize("name, overrides, rounds, warmup", ROWS,
                         ids=[r[0] for r in ROWS])
def test_grid_plan(benchmark, rows, name, overrides, rounds, warmup):
    rows.append(solve_row(benchmark, name, overrides, rounds, warmup))
