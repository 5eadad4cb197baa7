"""Run, verify and compare the bundled outputs.

    python bench/same_outputs.py [OTHER_SRC]

Run from anywhere.  For each configuration in CONFIGS (the three problem
files as filed, and problems/example.yaml and problems/manufactured.yaml
again with ``--override solver.quadratic_control=false``, so that the
bounded search also runs on the example's two states), ``fracopt run``
and then ``fracopt verify`` are run with this checkout's ``src``, each
in a fresh process and with its outputs in a temporary directory.  A
configuration fails when

- its run or its verify exits non-zero, or the run writes no CSV;
- its verify reports a difference other than 0;
- its report's |value_at_t0 - j_star| is above 1e-15 (V(0) must be J*).

OTHER_SRC, if given, is the ``src`` directory of another checkout (for
example the parent commit's).  Each configuration is then run and
verified with it too, and it also fails on any difference in

- the trajectory CSVs, byte for byte;
- every field of the JSON report except ``wall_time_s`` and ``csv``;
- the exit status of either command;
- the verify output and the standard error.

It prints one line per configuration and exits 1 if any fails.  Each
failure follows on its own indented line: for differing CSVs, every
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
_BOUNDED = "solver.quadratic_control=false"
# each a problem file, relative to ROOT, and its overrides
CONFIGS = [("problems/example.yaml",), ("problems/manufactured.yaml",),
           ("perfbench/lq_bounded.yaml",),
           ("problems/example.yaml", _BOUNDED),
           ("problems/manufactured.yaml", _BOUNDED)]
V0_TOL = 1e-15
_UNCOMPARED = {"wall_time_s", "csv"}


def name(config: tuple) -> str:
    """The configuration as the arguments of ``fracopt run`` give it."""
    return " --override ".join(config)


def _fracopt(src: Path, *argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-m", "fracopt", *argv],
                          env=env, capture_output=True, text=True)


def collect(src: Path, config: tuple, out: Path) -> dict:
    """Run and verify config with the package at src, outputs under out."""
    out.mkdir()
    csv, report = out / "trajectory.csv", out / "report.json"
    problem, *overrides = config
    argv = [str(ROOT / problem)]
    for override in overrides:
        argv += ["--override", override]
    run = _fracopt(src, "run", *argv, "--csv", str(csv),
                   "--report", str(report))
    verify = _fracopt(src, "verify", *argv, "--csv", str(csv))
    rep = json.loads(report.read_text()) if report.exists() else {}
    return {
        "run status": run.returncode,
        "verify status": verify.returncode,
        "csv": csv.read_bytes() if csv.exists() else None,
        "report": {k: v for k, v in rep.items() if k not in _UNCOMPARED},
        "verify output": verify.stdout,
        "stderr": run.stderr + verify.stderr,
    }


def v0_gap(outputs: dict) -> float:
    """|value_at_t0 - j_star| of the report, nan if it has neither."""
    rep = outputs["report"]
    return abs(rep.get("value_at_t0", math.nan) - rep.get("j_star", math.nan))


def failures(outputs: dict) -> list:
    """The failures of one configuration's collected outputs alone."""
    fails = [f"{key} {outputs[key]}" for key in ("run status", "verify status")
             if outputs[key] != 0]
    if outputs["csv"] is None:
        fails.append("no CSV written")
    if "|difference|     = 0.000e+00" not in outputs["verify output"]:
        fails.append("verify difference is not 0")
    if not v0_gap(outputs) <= V0_TOL:
        fails.append(f"|value_at_t0 - j_star| = {v0_gap(outputs):.1e} "
                     f"> {V0_TOL:.0e}")
    return fails


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
    for i, column in enumerate(a[0]):
        pairs = [(x[i], y[i]) for x, y in zip(a[1:], b[1:]) if x[i] != y[i]]
        if not pairs:
            continue
        try:
            size = max((abs(float(x) - float(y)) for x, y in pairs),
                       key=lambda d: math.inf if math.isnan(d) else d)
        except ValueError:
            diffs.append(f"csv column {column}: unparsable field")
            continue
        diffs.append(f"csv column {column}: max |difference| = {size:.3e}")
    return diffs or ["csv: bytes differ (every field equal)"]


def compare(ours: dict, theirs: dict) -> list:
    """Differences between the collected outputs of this checkout and of
    another on one configuration."""
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
        elif key.endswith("status"):
            diffs.append(f"{key}: {ours[key]} (this checkout) vs "
                         f"{theirs[key]} (other)")
        else:
            diffs.append(f"{key} differs")
    return diffs


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) > 1 or argv and not Path(argv[0], "fracopt").is_dir():
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        print("OTHER_SRC must be a src directory holding fracopt",
              file=sys.stderr)
        return 2
    other = Path(argv[0]).resolve() if argv else None
    failed = False
    for config in CONFIGS:
        with tempfile.TemporaryDirectory() as tmp:
            ours = collect(ROOT / "src", config, Path(tmp, "ours"))
            fails = failures(ours)
            if other is not None:
                fails += compare(ours, collect(other, config,
                                               Path(tmp, "theirs")))
        verdict = "FAILED" if fails else \
            "passed" if other is None else "identical"
        print(f"{name(config)}: {verdict}, "
              f"|value_at_t0 - j_star| = {v0_gap(ours):.1e}")
        for fail in fails:
            print(f"    {fail}")
        if fails and ours["stderr"]:
            print("    stderr of this checkout:")
            for line in ours["stderr"].splitlines():
                print(f"        {line}")
        failed |= bool(fails)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
