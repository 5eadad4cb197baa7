"""Check that two source trees of fracopt produce the same outputs.

    python bench/same_outputs.py OTHER_SRC

Run from anywhere; OTHER_SRC is the ``src`` directory of another checkout
(for example the parent commit's).  For problems/example.yaml and
perfbench/lq_bounded.yaml, ``fracopt run`` and then ``fracopt verify`` are
run once with this checkout's ``src`` and once with OTHER_SRC, each in a
fresh process and with its outputs in a temporary directory.  The check
compares, per problem file:

- the trajectory CSVs, byte for byte;
- every field of the JSON report except ``wall_time_s`` and ``csv``;
- the exit status of both commands;
- the verify output, which must also report a difference of 0.

It prints one line per problem file and exits 1 on any difference.  Each
difference follows on its own indented line: for differing CSVs, every
column that differs with its largest absolute difference; for differing
reports, every field that differs with both values.  A column whose
field texts differ is listed even when its values are equal (``-0``
against ``0`` reads 0.000e+00), and CSVs that differ only between fields
(line endings, spacing) are reported as such.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = [ROOT / "problems" / "example.yaml",
            ROOT / "perfbench" / "lq_bounded.yaml"]
_UNCOMPARED = {"wall_time_s", "csv"}


def _fracopt(src: Path, *argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-m", "fracopt", *argv],
                          env=env, capture_output=True, text=True)


def _outputs(src: Path, problem: Path, out: Path) -> dict:
    """Run and verify problem with the package at src, outputs under out."""
    out.mkdir()
    csv, report = out / "trajectory.csv", out / "report.json"
    run = _fracopt(src, "run", str(problem), "--csv", str(csv),
                   "--report", str(report))
    verify = _fracopt(src, "verify", str(problem), "--csv", str(csv))
    rep = json.loads(report.read_text()) if report.exists() else {}
    return {
        "run status": run.returncode,
        "verify status": verify.returncode,
        "csv": csv.read_bytes() if csv.exists() else None,
        "report": {k: v for k, v in rep.items() if k not in _UNCOMPARED},
        "verify output": verify.stdout,
        "stderr": run.stderr + verify.stderr,
    }


def _table(csv: bytes) -> list:
    """Rows of a trajectory CSV, header first, as lists of field texts."""
    return [line.split(",")
            for line in csv.decode(errors="replace").splitlines()]


def _csv_diffs(ours: bytes, theirs: bytes) -> list:
    """Differences between two CSVs whose bytes differ: one entry per
    column whose field texts differ, with its largest absolute difference,
    and one entry saying so when only the bytes between fields differ."""
    a, b = _table(ours), _table(theirs)
    if not a or not b or a[0] != b[0] or len(a) != len(b) \
            or any(len(row) != len(a[0]) for row in a + b):
        return ["csv: header, row count or row length differs"]
    diffs = []
    for i, name in enumerate(a[0]):
        pairs = [(x[i], y[i]) for x, y in zip(a[1:], b[1:]) if x[i] != y[i]]
        if not pairs:
            continue
        try:
            size = max((abs(float(x) - float(y)) for x, y in pairs),
                       key=lambda d: math.inf if math.isnan(d) else d)
        except ValueError:
            diffs.append(f"csv column {name}: unparsable field")
            continue
        diffs.append(f"csv column {name}: max |difference| = {size:.3e}")
    return diffs or ["csv: bytes differ (every field equal)"]


def compare(problem: Path, other_src: Path, tmp: Path) -> list:
    """Differences between this checkout and other_src on one problem."""
    ours = _outputs(ROOT / "src", problem, tmp / "ours")
    theirs = _outputs(other_src, problem, tmp / "theirs")
    diffs = []
    for key in ours:
        if ours[key] == theirs[key]:
            continue
        if key == "csv" and None not in (ours[key], theirs[key]):
            diffs += _csv_diffs(ours[key], theirs[key])
        elif key == "report":
            diffs += [f"report {field}: {ours[key].get(field)!r} (this "
                      f"checkout) vs {theirs[key].get(field)!r} (other)"
                      for field in sorted(ours[key].keys() | theirs[key].keys())
                      if ours[key].get(field) != theirs[key].get(field)]
        else:
            diffs.append(key)
    if ours["csv"] is None:
        diffs.append("no CSV written")
    if "|difference|     = 0.000e+00" not in ours["verify output"]:
        diffs.append("verify difference is not 0")
    return diffs


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1 or not Path(argv[0], "fracopt").is_dir():
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        print("OTHER_SRC must be a src directory holding fracopt",
              file=sys.stderr)
        return 2
    other_src = Path(argv[0]).resolve()
    failed = False
    for problem in PROBLEMS:
        with tempfile.TemporaryDirectory() as tmp:
            diffs = compare(problem, other_src, Path(tmp))
        name = problem.relative_to(ROOT)
        print(f"{name}: " + ("DIFFERENT" if diffs else "identical"))
        for diff in diffs:
            print(f"    {diff}")
        failed |= bool(diffs)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
