"""Start-up and end-to-end cost of fresh `fracopt` processes.

    PYTHONPATH=src python -m pytest -q bench/test_bench_startup.py
    PYTHONPATH=<checkout of the other commit>/src BENCH_SIDE=parent \\
        python -m pytest -q bench/test_bench_startup.py

Run from the root of the repository.  Every round starts a new Python
process with the package on PYTHONPATH (the source tree this process
imported fracopt from) and times it from spawn to exit with
pytest-benchmark, one process per round.  The file cache stays warm
between rounds.  Rows:

- import: `python -c "import fracopt, fracopt.cli"`, the start-up cost
  every command pays;
- run dt=0.01 and run dt=0.001: `python -m fracopt run
  problems/example.yaml`, set-up plus the converged solve plus the
  outputs;
- run dt=1e-4 max_iters=0: the same with one sweep evaluation on
  10^4 + 1 nodes, the grid-scaling row.

Each row records peak_rss_mb, the median over its rounds of the child's
peak resident memory (ru_maxrss from wait4), and for the run rows the
report's J*, Error and iteration count, which must agree between sides
whose outputs are meant to be identical.  The run adds its rows to
BENCH_startup.json at the root of this checkout, in the layout of
bench_file.py; alternate the two sides on one machine for a before/after
table, and delete the file to start a new one.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from statistics import median

import pytest

import fracopt
from bench_file import append_run

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_startup.json"
SRC = str(Path(fracopt.__file__).resolve().parent.parent)
EXAMPLE = str(ROOT / "problems" / "example.yaml")

#: (row name, command-line arguments after the interpreter, rounds)
ROWS = [
    ("import", ["-c", "import fracopt, fracopt.cli"], 12),
    ("run dt=0.01", ["-m", "fracopt", "run", EXAMPLE], 7),
    ("run dt=0.001", ["-m", "fracopt", "run", EXAMPLE,
                      "--override", "solver.dt=0.001"], 3),
    ("run dt=1e-4 max_iters=0",
     ["-m", "fracopt", "run", EXAMPLE, "--override", "solver.dt=0.0001",
      "--override", "solver.max_iters=0"], 2),
]


def _child(argv: list, peaks: list) -> int:
    """Run the interpreter on argv to exit; append its peak RSS in MB."""
    proc = subprocess.Popen([sys.executable, *argv],
                            env=dict(os.environ, PYTHONPATH=SRC),
                            stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    peaks.append(usage.ru_maxrss / 1024)
    return proc.returncode


@pytest.fixture(scope="module")
def rows():
    out = []
    yield out
    append_run(OUT, "startup",
               "fresh processes: import fracopt, and fracopt run "
               "problems/example.yaml", out)


@pytest.mark.parametrize("name, argv, rounds", ROWS,
                         ids=[r[0] for r in ROWS])
def test_startup(benchmark, rows, tmp_path, name, argv, rounds):
    report = tmp_path / "report.json"
    if "run" in argv:
        argv = argv + ["--csv", str(tmp_path / "trajectory.csv"),
                       "--report", str(report)]
    peaks = []
    status = benchmark.pedantic(_child, args=(argv, peaks), rounds=rounds,
                                iterations=1)
    # 2 is an unconverged run, which max_iters=0 asks for
    assert status in (0, 2)
    row = {"name": name, "times_s": benchmark.stats.stats.data,
           "peak_rss_mb": median(peaks)}
    if report.exists():
        rep = json.loads(report.read_text(encoding="utf-8"))
        row.update(iterations=rep["iterations"], j_star=rep["j_star"],
                   error=rep["error"])
    rows.append(row)
