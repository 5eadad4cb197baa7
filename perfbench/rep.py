"""One benchmark repetition: a fresh process, set up once, sampled.

    python3 perfbench/rep.py '<inputs json>'

The argument is the dict built by workloads.make_inputs plus "samples"
(the least number of solve samples), "sample_seconds" (how long after
set-up to go on taking samples), "trace" (0 or 1) and "trace_out" (the
path prefix for span dumps of a traced repetition).

The process imports fracopt, parses the problem and builds the
transformed field: the set-up every `fracopt run` pays.  It then forks
one child per solve sample; each child solves, writes the CSV and JSON
report, and does the work of `fracopt verify` (read the CSV back,
recompute the residuals), then checks the results.  The last line of
output is one JSON object: the set-up time and, per sample, the timings,
the time of every verify round trip, the failed checks and, when traced,
the per-layer metrics."""

from __future__ import annotations

import json
import os
import resource
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

from tracer import Tracer
from workloads import (PIN_RTOL, RICCATI_RTOL, VERIFY_TOL, WORKLOADS,
                       riccati_value)

#: verify round trips timed per solve sample (untraced)
VERIFY_SAMPLES = 5


def _close(got: float, want: float, rtol: float) -> bool:
    return abs(got - want) <= rtol * abs(want)


def check(wl, inputs: dict, state, cfg, verifies: list) -> list:
    """Return the failed correctness checks of one solve sample and the
    verify round trips made of it."""
    failures = []
    if not (state.converged and state.error <= cfg.error_tol):
        failures.append(f"not converged: Error {state.error:.3e} "
                        f"(tol {cfg.error_tol:.1e})")
    for v in verifies:
        if not v["exact"]:
            failures.append("the CSV does not reproduce the solved "
                            "trajectory bit for bit")
        if abs(v["stored"] - state.error) > VERIFY_TOL:
            failures.append(f"CSV error column gives {v['stored']!r}, "
                            f"solve reported {state.error!r}")
        if abs(v["recomputed"] - v["stored"]) > VERIFY_TOL:
            failures.append(f"verify recomputed Error {v['recomputed']!r} "
                            f"vs stored {v['stored']!r}")
    x0 = inputs["x0"]
    j_scaled = state.j_star / x0 ** 2
    if not _close(j_scaled, wl.pin_j, PIN_RTOL):
        failures.append(f"J*/x0^2 {j_scaled!r} vs pinned {wl.pin_j!r}")
    x_scaled = [float(v) / x0 for v in state.terminal_state]
    if len(x_scaled) != len(wl.pin_x) or not all(
            _close(g, w, PIN_RTOL) for g, w in zip(x_scaled, wl.pin_x)):
        failures.append(f"x(tf)/x0 {x_scaled!r} vs pinned {list(wl.pin_x)!r}")
    if wl.riccati:
        ref = riccati_value(x0)
        if not _close(state.j_star, ref, RICCATI_RTOL):
            failures.append(f"J* {state.j_star!r} vs Riccati {ref!r}")
    return failures


def layer_metrics(tr: Tracer, state, n_nodes: int, csv_bytes: int) -> dict:
    """Per-layer metrics of one traced sample.  A metric that needs a site
    the tracer could not patch is left out, never reported as 0."""
    gone = {s.split(".")[-1] for s in tr.missing}

    def span_s(name, phase=None):
        return tr.span_total(name, phase)[1]

    evals = tr.span_total("forward", "solve")[0]
    corr_solve = tr.agg_total("correction", "solve")[0]
    m = {
        "cli.import_s": span_s("import"),
        "config.parse_s": span_s("parse"),
        "expansion.coeffs_s": span_s("coeffs"),
        "expansion.coeffs_calls": tr.span_total("coeffs")[0],
        "expansion.series_terms": tr.agg_total("series_partial_sum")[2],
        "expansion.moments_calls": tr.agg_total("advance_moments")[0],
        "expansion.moments_s": tr.agg_total("advance_moments")[1],
        "expansion.correction_calls": tr.agg_total("correction")[0],
        "expansion.correction_s": tr.agg_total("correction")[1],
        "expansion.correction_per_node_eval":
            corr_solve / (n_nodes * evals) if evals else 0.0,
        "expansion.jacobian_s": tr.agg_total("jacobian_x")[1],
        "hjb.minimize_calls": tr.agg_total("minimize_node")[0],
        "hjb.minimize_s": tr.agg_total("minimize_node")[1],
        "hjb.scalar_search_calls": tr.agg_total("scalar_search")[0],
        "hjb.hamiltonian_calls": tr.agg_total("node_hamiltonian")[0],
        "hjb.hamiltonian_s": tr.agg_total("node_hamiltonian")[1],
        "expressions.calls": tr.agg_total("expression")[0],
        "expressions.s": tr.agg_total("expression")[1],
        "sweep.evals": evals,
        "sweep.iterations": state.iteration,
        "sweep.accept_ratio": state.iteration / max(evals - 1, 1),
        "sweep.forward_s": span_s("forward", "solve"),
        "sweep.backward_s": span_s("backward", "solve"),
        "sweep.self_s": tr.self_time("solve"),
        "cost.evaluate_s": span_s("cost_evaluate"),
        "cost.running_weight_calls": tr.agg_total("running_weight")[0],
        "operators.kernel_weights_calls": tr.agg_total("kernel_weights")[0],
        "operators.kernel_weights_s": tr.agg_total("kernel_weights")[1],
        "cli.write_csv_s": span_s("write_csv"),
        "cli.read_csv_s": span_s("read_csv"),
        "cli.csv_bytes": csv_bytes,
        "cli.audit_s": span_s("audit"),
    }
    needs = (
        ("expansion.coeffs", {"with_field"}),
        ("expansion.series_terms", {"series_partial_sum"}),
        ("expansion.moments", {"advance_moments"}),
        ("expansion.correction", {"correction"}),
        ("expansion.correction_per_node_eval", {"forward_sweep"}),
        ("expansion.jacobian", {"jacobian_x"}),
        ("hjb.minimize", {"minimize_node_hamiltonian"}),
        ("hjb.scalar_search", {"minimize_scalar"}),
        ("hjb.hamiltonian", {"node_hamiltonian"}),
        ("expressions.", {"compile_expression"}),
        ("sweep.", {"forward_sweep"}),
        ("sweep.backward", {"backward_sweep"}),
        ("sweep.self", {"backward_sweep", "_pointwise_minimizers",
                        "evaluate", "with_field"}),
        ("cost.evaluate", {"evaluate"}),
        ("cost.running_weight", {"running_weight"}),
        ("operators.kernel", {"singular_kernel_weights"}),
    )
    for prefix, attrs in needs:
        if attrs & gone:
            m = {k: v for k, v in m.items() if not k.startswith(prefix)}
    return m


def in_child(fn) -> dict:
    """Run fn in a forked copy of this process and return its JSON result.

    Every sample then starts from the same post-setup state: nothing a
    solve leaves behind in the process (caches, allocator state) carries
    over to the next sample."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            try:
                out = fn()
            except BaseException as exc:   # reported as a failed sample
                out = {"failures": [f"{type(exc).__name__}: {exc}"]}
            with os.fdopen(write_fd, "w") as fh:
                fh.write(json.dumps(out))
        finally:
            os._exit(0)                    # never return into the caller
    os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if not data:
        return {"failures": [f"sample process ended with status {status}"]}
    return json.loads(data)


def run(inputs: dict) -> dict:
    wl = WORKLOADS[inputs["workload"]]
    tracer = Tracer() if inputs["trace"] else None

    def span(name):
        return tracer.span(name) if tracer else nullcontext()

    t0 = perf_counter()
    with span("setup"):
        with span("import"):
            import fracopt
            from fracopt import cli, config, hjb, sweep
        src = Path(__file__).resolve().parent.parent / "src"
        if not Path(fracopt.__file__).resolve().is_relative_to(src):
            raise RuntimeError(f"fracopt imported from {fracopt.__file__}, "
                               f"not from {src}")
        if tracer:
            tracer.install()
        with span("parse"):
            parsed = config.parse_problem(inputs["problem"],
                                          inputs["overrides"])
        cfg = parsed.config
        prob = parsed.problem.with_field(cfg.n_a, cfg.n_b, cfg.p_max,
                                         cfg.b_series)
    setup_s = perf_counter() - t0
    setup_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def peak_kib() -> int:
        """Peak resident memory of this process, set-up included."""
        return max(setup_kib,
                   resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)

    def sample(index: int) -> dict:
        t_setup = perf_counter()
        with span("solve"):
            state = sweep.solve(prob, cfg)
        t_solve = perf_counter()
        with span("write"):
            with span("write_csv"):
                cli.write_csv(parsed.csv_path, state)
            with span("write_report"):
                report = {"j_star": state.j_star,
                          "terminal_state": [float(v)
                                             for v in state.terminal_state],
                          "error": state.error,
                          "iterations": state.iteration,
                          "converged": state.converged,
                          "wall_time_s": t_solve - t_setup}
                Path(parsed.report_path).write_text(
                    json.dumps(report, indent=2) + "\n", encoding="utf-8")
        t_run = perf_counter()

        def verify() -> dict:
            start = perf_counter()
            with span("verify"):
                plant = parsed.problem.plant
                with span("read_csv"):
                    _, x, u, v, err = cli.read_csv(
                        parsed.csv_path, plant.n_states, plant.n_controls)
                with span("audit"):
                    residuals, _ = sweep.audit_residuals(parsed.problem, x,
                                                         u, cfg)
                recomputed = hjb.aggregate_error(residuals)
                stored = hjb.aggregate_error(err)
            elapsed = perf_counter() - start
            exact = all((got == want).all() for got, want in (
                (x, state.x), (u, state.u), (v, state.value.v),
                (err, state.residuals)))
            return {"verify_s": elapsed, "recomputed": recomputed,
                    "stored": stored, "exact": bool(exact),
                    "peak_kib": peak_kib()}

        # Untraced, each verify runs in its own fork of this state, so the
        # short verify time gets several samples that share no warm state.
        # Traced, verify runs here so its spans join the sample's trace.
        verifies = [verify()] if tracer else \
            [in_child(verify) for _ in range(VERIFY_SAMPLES)]
        done = [v for v in verifies if "failures" not in v]
        failures = [f for v in verifies for f in v.get("failures", [])]
        failures += check(wl, inputs, state, cfg, done)
        out = {
            "times": {
                "solve_s": t_solve - t_setup,
                "run_s": setup_s + (t_run - t_setup),
                "peak_rss_mb": max([peak_kib()]
                                   + [v["peak_kib"] for v in done]) / 1024.0,
            },
            "failures": failures,
            "result": {"j_star": state.j_star,
                       "x_tf": [float(v) for v in state.terminal_state],
                       "error": state.error, "iterations": state.iteration},
        }
        out["verify_s"] = [v["verify_s"] for v in done]
        if tracer:
            tracer.uninstall()
            csv_bytes = Path(parsed.csv_path).stat().st_size
            out["layers"] = layer_metrics(tracer, state, state.grid.n_nodes,
                                          csv_bytes)
            out["missing"] = tracer.missing
            Path(f"{inputs['trace_out']}.{index}.json").write_text(
                json.dumps(tracer.dump()), encoding="utf-8")
        return out

    samples = []
    start = perf_counter()
    while (len(samples) < inputs["samples"]
           or perf_counter() - start < inputs["sample_seconds"]):
        samples.append(in_child(lambda i=len(samples): sample(i)))
    return {"setup_s": setup_s, "samples": samples}


if __name__ == "__main__":
    print(json.dumps(run(json.loads(sys.argv[1]))))
