"""The per-run statistic of bench_file on hand-made runs; writes no file.

    PYTHONPATH=src python -m pytest -q bench/test_bench_file.py
"""

from __future__ import annotations

import pytest

from bench_file import change_over_parent, pooled


def run(name: str, times: list, rss: float = 40.0, **results) -> list:
    """One run of one row: its round times, peak_rss_mb and results."""
    return [dict(name=name, times_s=times, peak_rss_mb=rss, **results)]


def test_each_run_is_one_sample_of_the_run_statistics():
    # four runs near 1.0 s and one whole run slowed down by 60 %: its five
    # rounds are five of the 25 pooled samples, its median one of the
    # five run medians, and neither moves the median
    fast = [[1.00, 1.01, 0.99, 1.02, 0.98], [1.01, 1.00, 1.02, 0.99, 1.00],
            [0.99, 1.00, 1.01, 1.00, 0.98], [1.00, 1.02, 1.01, 0.99, 1.00]]
    slow = [1.60, 1.61, 1.59, 1.62, 1.58]
    (row,) = pooled([run("a", t) for t in fast + [slow]])
    assert row["rounds"] == 25
    assert row["run_medians_s"] == [1.00, 1.00, 1.00, 1.00, 1.60]
    assert row["run_median_s"] == 1.00
    assert (row["run_q1_s"], row["run_q3_s"]) == (1.00, pytest.approx(1.30))
    # the pooled fields stay, over every round
    assert row["median_s"] == 1.00
    assert (row["q1_s"], row["q3_s"]) == (pytest.approx(0.995), 1.02)


def test_run_medians_keep_the_order_of_the_runs_and_the_last_results():
    runs = [run("a", [3.0, 1.0, 2.0], rss=40.0, j_star=0.5),
            run("a", [5.0, 4.0], rss=42.0, j_star=0.5),
            run("a", [7.0], rss=41.0, j_star=0.25)]
    (row,) = pooled(runs)
    assert row["run_medians_s"] == [2.0, 4.5, 7.0]
    assert row["run_median_s"] == 4.5
    assert row["peak_rss_mb"] == 41.0
    assert row["j_star"] == 0.25
    assert "times_s" not in row


def test_one_run_gives_its_median_as_every_quartile():
    (row,) = pooled([run("a", [2.0, 1.0, 4.0, 3.0])])
    assert row["run_medians_s"] == [2.5]
    assert row["run_q1_s"] == row["run_median_s"] == row["run_q3_s"] == 2.5


def test_change_over_parent_is_the_ratio_of_the_medians_of_run_medians():
    # the parent's one slow run moves its pooled median but not its
    # median of run medians, so the ratio reads 1.0, not a gain
    parent = pooled([run("a", [1.0] * 3), run("a", [1.0] * 3),
                     run("a", [1.5] * 7), run("b", [2.0, 2.0])])
    change = pooled([run("a", [1.0] * 3), run("a", [1.0] * 3),
                     run("a", [1.0] * 4), run("c", [9.0])])
    assert [r["median_s"] for r in parent][0] == 1.5
    assert change_over_parent(parent, change) == {"a": 1.0}
