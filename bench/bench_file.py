"""The BENCH_<topic>.json layout the harnesses in this directory share.

A file holds, per side (the label BENCH_SIDE gives a run, "change"
unless set), every run's rows, the machine, and the rows pooled over the
runs; with both a "parent" and a "change" side it also holds each row's
change/parent ratio of median times.  A run row carries its name, its
round times as times_s and its peak_rss_mb, plus whatever results it
reports.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
from pathlib import Path

import numpy as np

SIDE = os.environ.get("BENCH_SIDE", "change")


def pooled(runs: list) -> list:
    """One row per row name over every run of a side: the statistics of
    all their rounds, the median of the runs' peak_rss_mb, and the
    results of the last run."""
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
        parent = {r["name"]: r for r in sides["parent"]["rows"]}
        doc["change_over_parent"] = {
            r["name"]: r["median_s"] / parent[r["name"]]["median_s"]
            for r in sides["change"]["rows"] if r["name"] in parent}
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
