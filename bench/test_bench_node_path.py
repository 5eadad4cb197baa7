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
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
from pathlib import Path

import numpy as np
import pytest

from fracopt.config import parse_problem
from fracopt.sweep import solve

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_node_path.json"
SIDE = os.environ.get("BENCH_SIDE", "change")

#: (row name, overrides, rounds, warm-up rounds); the warm-up round of the
#: first row also warms the process for the rows after it
ROWS = [
    ("solve dt=0.01", ["solver.dt=0.01"], 7, 1),
    ("solve dt=0.001", ["solver.dt=0.001"], 3, 0),
    ("one evaluation dt=1e-4", ["solver.dt=0.0001", "solver.max_iters=0"],
     2, 0),
]


def _pooled(runs: list) -> list:
    """One row per row name over every run of a side: the statistics of
    all their rounds, and the results of the last run."""
    times = {}
    rss = {}
    last = {}
    for run in runs:
        for row in run:
            times.setdefault(row["name"], []).extend(row["times_s"])
            rss.setdefault(row["name"], []).append(row["peak_rss_mb"])
            last[row["name"]] = row
    out = []
    for name, data in times.items():
        q1, median, q3 = statistics.quantiles(data, n=4)
        row = {k: v for k, v in last[name].items() if k != "times_s"}
        row.update(rounds=len(data), median_s=median, q1_s=q1, q3_s=q3,
                   iqr_over_median=(q3 - q1) / median,
                   peak_rss_mb=statistics.median(rss[name]))
        out.append(row)
    return out


@pytest.fixture(scope="module")
def rows():
    out = []
    yield out
    doc = json.loads(OUT.read_text(encoding="utf-8")) if OUT.exists() else {}
    doc["topic"] = "node_path"
    doc["workload"] = "problems/example.yaml solved by fracopt.sweep.solve"
    side = doc.setdefault("sides", {}).setdefault(SIDE, {"runs": []})
    side["machine"] = {"cpus": os.cpu_count(), "machine": platform.machine(),
                       "python": platform.python_version(),
                       "numpy": np.__version__}
    side["runs"].append(out)
    side["rows"] = _pooled(side["runs"])
    sides = doc["sides"]
    if "parent" in sides and "change" in sides:
        parent = {r["name"]: r for r in sides["parent"]["rows"]}
        doc["change_over_parent"] = {
            r["name"]: r["median_s"] / parent[r["name"]]["median_s"]
            for r in sides["change"]["rows"] if r["name"] in parent}
    OUT.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


@pytest.mark.parametrize("name, overrides, rounds, warmup", ROWS,
                         ids=[r[0] for r in ROWS])
def test_node_path(benchmark, rows, name, overrides, rounds, warmup):
    parsed = parse_problem(str(ROOT / "problems" / "example.yaml"),
                           overrides)
    cfg = parsed.config
    prob = parsed.problem.with_field(cfg.n_a, cfg.n_b, cfg.p_max,
                                     cfg.b_series)
    state = benchmark.pedantic(solve, args=(prob, cfg), rounds=rounds,
                               iterations=1, warmup_rounds=warmup)
    assert np.isfinite(state.error)
    rows.append({
        "name": name, "dt": cfg.dt, "max_iters": cfg.max_iters,
        "nodes": state.grid.n_nodes, "times_s": benchmark.stats.stats.data,
        "iterations": state.iteration, "j_star": state.j_star,
        "error": state.error,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    })
