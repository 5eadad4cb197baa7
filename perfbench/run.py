"""fracopt benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository.  The run writes the
seeded problem file of the workload, then starts repetitions one at a
time, each in a fresh Python process (perfbench/rep.py), until S seconds
have passed; at least one repetition always runs.  A repetition sets up
once and takes one or more solve samples.  Every sample is checked for
correctness and is one attempted operation; a failed check counts as a
failed operation, and a crashed repetition fails all its samples.

With --trace 0 the last line of output is a JSON object holding every
end-to-end metric in BENCHMARK.json: setup_s is the median over the
repetitions, solve_s and run_s the mean over the solve samples, verify_s
the mean over every verify round trip, and peak_rss_mb the median over
the solve samples; the mean, median, fastest and slowest sample of each
time go to standard error.  With --trace 1 traced and untraced
repetitions alternate, and the object holds the median of every
per-layer metric over the traced samples, plus trace.overhead_s, the
traced minus the untraced mean solve time.  A
per-layer metric whose trace site no longer exists is left out and named
on standard error; it is never reported as 0.

Artifacts (problem files, CSVs, reports, span dumps, and the raw results
of every repetition as <workload>-seed<n>-trace<t>-raw.json) go to
.perfbench_work/ in the checkout.  See perfbench/README.md for the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS, make_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench_work"

#: a run must end within this many seconds; no repetition starts that
#: would be expected to overrun it
RUN_LIMIT_S = 170.0

#: one thread per numerical library: repetitions run one at a time and
#: must not use more threads than the machine has cores
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_repetition(inputs: dict, timeout: float) -> dict:
    """Run one repetition in a fresh process and return its JSON result,
    or {"failures": [...]} when it crashed or timed out."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **THREAD_ENV)
    # A session of its own, so that on timeout the sample processes the
    # repetition forked are killed with it.
    with subprocess.Popen(
            [sys.executable, str(HERE / "rep.py"), json.dumps(inputs)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
            start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return {"failures": [f"repetition timed out after "
                                 f"{timeout:.0f} s"]}
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = stderr.strip().splitlines()[-3:]
        return {"failures": [f"repetition exited {proc.returncode}: "
                             + " | ".join(tail)]}
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in ("src/fracopt/__init__.py", "problems/example.yaml",
                   "BENCHMARK.json"):
        if not (ROOT / needed).is_file():
            fail(f"{needed} not found under {ROOT}: run from a checkout "
                 f"of the repository")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    wl = WORKLOADS[args.workload]
    WORKDIR.mkdir(exist_ok=True)
    # A traced run needs two repetitions (traced and untraced) within the
    # time limit, so it takes a third of the samples, or of the sampling
    # time, per repetition.
    share = 3 if args.trace else 1
    if wl.samples_per_setup is None:
        sampling = {"samples": 1, "sample_seconds": args.seconds / share}
    else:
        sampling = {"samples": max(1, wl.samples_per_setup // share),
                    "sample_seconds": 0.0}
    inputs = dict(make_inputs(wl, args.seed, ROOT, WORKDIR), **sampling)

    start = perf_counter()
    reps = []             # (traced, result) per repetition
    longest = 0.0
    while True:
        # traced first, so a run cut short still has per-layer metrics
        traced = bool(args.trace) and len(reps) % 2 == 0
        rep_inputs = dict(inputs, trace=int(traced), trace_out=str(
            WORKDIR / f"{wl.name}-seed{args.seed}-trace{len(reps)}"))
        rep_start = perf_counter()
        remaining = RUN_LIMIT_S - (rep_start - start)
        reps.append((traced, run_repetition(rep_inputs, remaining)))
        longest = max(longest, perf_counter() - rep_start)
        elapsed = perf_counter() - start
        have_pair = not args.trace or len(reps) >= 2
        if (elapsed >= args.seconds and have_pair) \
                or elapsed + longest * 1.5 > RUN_LIMIT_S:
            break

    attempted = failed = 0
    samples = []          # (traced, sample result)
    setups = []           # set-up times of untraced repetitions
    for i, (traced, res) in enumerate(reps):
        if "samples" not in res:          # the repetition itself failed
            attempted += inputs["samples"]
            failed += inputs["samples"]
            print(f"repetition {i}: {res['failures']}", file=sys.stderr)
            continue
        if not traced:
            setups.append(res["setup_s"])
        for j, sample in enumerate(res["samples"]):
            attempted += 1
            failed += bool(sample.get("failures"))
            for msg in sample.get("failures", []):
                print(f"repetition {i} sample {j}: {msg}", file=sys.stderr)
            for site in sample.get("missing", []):
                print(f"repetition {i} sample {j}: trace site missing: "
                      f"{site}", file=sys.stderr)
            samples.append((traced, sample))

    def values_of(key, name, traced):
        return [s[key][name] for t, s in samples
                if t == traced and name in s.get(key, {})]

    def times_of(name, traced):
        if name == "setup_s":
            return setups
        if name == "verify_s":
            return [v for t, s in samples if t == traced
                    for v in s.get("verify_s", [])]
        return values_of("times", name, traced)

    values = {}
    for metric in wanted:
        name = metric["name"]
        if name == "trace.overhead_s":
            on, off = times_of("solve_s", True), times_of("solve_s", False)
            value = statistics.mean(on) - statistics.mean(off) \
                if on and off else None
        elif args.trace:
            vals = values_of("layers", name, True)
            value = statistics.median(vals) if vals else None
        elif metric["unit"] == "s":
            vals = times_of(name, False)
            value = None
            if vals:
                print(f"{name}: mean {statistics.mean(vals):.6g} s, median "
                      f"{statistics.median(vals):.6g} s, fastest "
                      f"{min(vals):.6g} s, slowest {max(vals):.6g} s over "
                      f"{len(vals)} samples", file=sys.stderr)
                # The mean, not the median, except for set-up: on a shared
                # host the cores slow down for spells as long as a run, and
                # the mean moves with the share of the run they cover,
                # where the median jumps between the slow and the fast
                # speed.  See README.md.
                value = (statistics.median(vals) if name == "setup_s"
                         else statistics.mean(vals))
        else:
            vals = values_of("times", name, False)
            value = statistics.median(vals) if vals else None
        if value is None:
            print(f"metric {name}: not measured", file=sys.stderr)
            continue
        values[name] = {"value": value, "unit": metric["unit"]}

    (WORKDIR / f"{wl.name}-seed{args.seed}-trace{args.trace}-raw.json"
     ).write_text(json.dumps([res for _, res in reps]), encoding="utf-8")
    print(json.dumps({"correct": failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": values}))
    return 0 if values else 1


if __name__ == "__main__":
    sys.exit(main())
