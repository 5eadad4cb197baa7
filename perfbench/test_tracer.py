"""Checks of the benchmark itself: tracer binding, predicted counts, inputs.

    PYTHONPATH=src python3 -m pytest -q perfbench

The count test runs one traced repetition of each workload at seed 0
(about a minute in all, most of it the paper-example coefficient build).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
import yaml

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import run as bench                                        # noqa: E402
from rep import layer_metrics                              # noqa: E402
from tracer import SITES, Site, Tracer, resolve            # noqa: E402
from workloads import WORKLOADS, make_inputs               # noqa: E402

PER_LAYER = [m["name"] for m in json.loads(
    (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]]


def _code_names(code) -> set:
    names = set(code.co_names)
    for const in code.co_consts:
        if hasattr(const, "co_names"):
            names |= _code_names(const)
    return names


@pytest.mark.parametrize("site", SITES, ids=lambda s: s.label)
def test_site_is_the_name_its_callers_resolve(site):
    owner = resolve(site.owner)
    assert owner is not None and site.attr in vars(owner), \
        f"{site.label} is missing"
    for caller_path in site.callers:
        caller = resolve(caller_path)
        assert caller is not None, f"caller {caller_path} is missing"
        assert site.attr in _code_names(caller.__code__), \
            f"{caller_path} does not look up {site.attr}"
        # A method is looked up on the instance, which the traced-run test
        # below confirms; a module-level name must be read from the module
        # that is patched, as a global of the caller or as an attribute
        # of a module the caller imported.
        scope = caller.__globals__
        if ":" not in site.owner and scope is not vars(owner):
            assert any(v is owner for v in scope.values()), \
                f"{caller_path} does not reach module {site.owner}"

    tracer = Tracer()
    original = vars(owner)[site.attr]
    tracer.install([site])
    try:
        assert vars(owner)[site.attr] is not original
    finally:
        tracer.uninstall()
    assert vars(owner)[site.attr] is original


def test_missing_site_is_reported_not_zero():
    tracer = Tracer()
    tracer.install([Site("forward", "fracopt.sweep", "no_such_pass",
                         (), "span")])
    assert tracer.missing == ["fracopt.sweep.no_such_pass"]
    tracer.missing = ["fracopt.sweep.forward_sweep"]
    metrics = layer_metrics(tracer, SimpleNamespace(iteration=0), 11, 1)
    assert not any(name.startswith("sweep.") for name in metrics)
    assert "expansion.correction_per_node_eval" not in metrics
    assert "cli.csv_bytes" in metrics


# Every per-layer metric is predicted non-zero except these, predicted 0:
# the quadratic workloads never call the bounded scalar search.
PREDICTED_ZERO = {
    "paper-example": {"hjb.scalar_search_calls"},
    "lq-bounded": set(),
}


@pytest.fixture(scope="module")
def traced_layers(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("perfbench")
    out = {}
    for name, wl in WORKLOADS.items():
        inputs = make_inputs(wl, 0, ROOT, workdir)
        inputs.update(samples=1, sample_seconds=0.0, trace=1,
                      trace_out=str(workdir / f"{name}-trace"))
        out[name] = bench.run_repetition(inputs, timeout=300)
    return out


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_records_predicted_counts(traced_layers, workload):
    res = traced_layers[workload]
    assert "samples" in res, res.get("failures")
    for sample in res["samples"]:
        assert sample["failures"] == []
        assert sample["missing"] == []
    layers = res["samples"][0]["layers"]
    assert sorted(layers) == sorted(n for n in PER_LAYER
                                    if n != "trace.overhead_s")
    for name, value in layers.items():
        assert (value == 0) == (name in PREDICTED_ZERO[workload]), \
            (name, value)
    assert 1.0 <= layers["expansion.correction_per_node_eval"] < 8.0


def test_series_terms_concentrate_on_paper_example(traced_layers):
    terms = {w: r["samples"][0]["layers"]["expansion.series_terms"]
             for w, r in traced_layers.items()}
    assert terms["paper-example"] >= 2e9
    assert terms["lq-bounded"] * 1000 <= terms["paper-example"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_zero_is_the_listed_configuration(tmp_path, workload):
    wl = WORKLOADS[workload]
    inputs = make_inputs(wl, 0, ROOT, tmp_path)
    source = yaml.safe_load((ROOT / wl.problem).read_text(encoding="utf-8"))
    generated = yaml.safe_load(Path(inputs["problem"]).read_text(
        encoding="utf-8"))
    source.pop("output", None)
    generated.pop("output")
    assert generated == source
    other = make_inputs(wl, 7, ROOT, tmp_path)
    assert other == make_inputs(wl, 7, ROOT, tmp_path)
    assert other["u_init"] != inputs["u_init"]


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lq-bounded",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
