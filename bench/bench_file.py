"""The BENCH_<topic>.json layout the harnesses in this directory share.

A file holds, per side (the label BENCH_SIDE gives a run, "change"
unless set), every run's rows, the machine, and the rows pooled over the
runs; with both a "parent" and a "change" side it also holds each row's
change/parent ratio of the medians of run medians.  A run row carries
its name, its round times as times_s and its peak_rss_mb, plus whatever
results it reports.

A pooled row holds two statistics of its times.  The pooled ones
(median_s, q1_s, q3_s) are taken over every round of every run.  The
per-run ones are taken over run_medians_s, each run's median round
time: their median (run_median_s) and quartiles (run_q1_s, run_q3_s).
A run slowed down as a whole by the host widens the pooled quartiles by
all its rounds but moves one run median, so change_over_parent is the
ratio of the run_median_s of the sides; before, it was that of their
median_s.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
from pathlib import Path

import numpy as np

SIDE = os.environ.get("BENCH_SIDE", "change")


def _quartiles(data: list) -> tuple:
    """Q1, median and Q3 of data (all three the value itself when data
    holds one value)."""
    return (tuple(statistics.quantiles(data, n=4)) if len(data) > 1
            else (data[0],) * 3)


def pooled(runs: list) -> list:
    """One row per row name over every run of a side: the statistics of
    all their rounds, those of the runs' median round times, the median
    of the runs' peak_rss_mb, and the results of the last run."""
    times = {}
    medians = {}
    rss = {}
    last = {}
    for run in runs:
        for row in run:
            times.setdefault(row["name"], []).extend(row["times_s"])
            medians.setdefault(row["name"], []).append(
                statistics.median(row["times_s"]))
            rss.setdefault(row["name"], []).append(row["peak_rss_mb"])
            last[row["name"]] = row
    out = []
    for name, data in times.items():
        q1, median, q3 = _quartiles(data)
        run_q1, run_median, run_q3 = _quartiles(medians[name])
        row = {k: v for k, v in last[name].items() if k != "times_s"}
        row.update(rounds=len(data), median_s=median, q1_s=q1, q3_s=q3,
                   iqr_over_median=(q3 - q1) / median,
                   run_medians_s=medians[name], run_median_s=run_median,
                   run_q1_s=run_q1, run_q3_s=run_q3,
                   peak_rss_mb=statistics.median(rss[name]))
        out.append(row)
    return out


def change_over_parent(parent_rows: list, change_rows: list) -> dict:
    """Per row name on both sides, the change's run_median_s over the
    parent's."""
    parent = {r["name"]: r["run_median_s"] for r in parent_rows}
    return {r["name"]: r["run_median_s"] / parent[r["name"]]
            for r in change_rows if r["name"] in parent}


def append_run(path: Path, topic: str, workload: str, rows: list) -> None:
    """Add one run's rows under SIDE to the file at path, keeping what
    earlier runs wrote, and re-pool that side."""
    doc = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    doc["topic"] = topic
    doc["workload"] = workload
    side = doc.setdefault("sides", {}).setdefault(SIDE, {"runs": []})
    side["machine"] = {"cpus": os.cpu_count(), "machine": platform.machine(),
                       "python": platform.python_version(),
                       "numpy": np.__version__}
    side["runs"].append(rows)
    side["rows"] = pooled(side["runs"])
    sides = doc["sides"]
    if "parent" in sides and "change" in sides:
        doc["change_over_parent"] = change_over_parent(
            sides["parent"]["rows"], sides["change"]["rows"])
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
