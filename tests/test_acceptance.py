"""Acceptance suite: one test per criterion, a printed PASS/FAIL line each.

Criteria 1 and 2 check the bundled two-state example.  Its x2 figures
and the runtimes are compared with the published values.  The published
x1 and value figures are not met by the stated problem, the stated cost
and the documented scheme (README, "Reproduction status"), so each is
kept as a named constant, printed beside the reference that replaces it:

- the state at every node is checked against an independent mpmath
  evaluation of the documented scheme (1e-12 relative);
- the cost is checked against an independent mpmath quadrature of the
  performance index on the same samples (1e-10 relative), and the
  converged cost must be a local minimum of the discrete cost;
- the package's own V(0), the cost-to-go it reports, is checked against
  the same references;
- the floor that rules out each published value figure is asserted.
"""

import dataclasses
import math
import time

import mpmath as mp
import numpy as np
from scipy.integrate import trapezoid

import fracopt as fo
from fracopt import forward_sweep, gamma, rl_derivative, solve
from fracopt.cli import main as cli_main
from fracopt.expansion import ExpansionCoeffs

from conftest import (EXAMPLE_FILE, bracket_closed_form, one_state_field,
                      two_state_config, two_state_problem)
from test_operators import observed_order, sampled
from test_sweep import LQ_CFG, lq_problem, riccati_reference


def within(value, target, rel):
    return abs(value - target) <= rel * abs(target)


def report(capsys, n, title, checks):
    """Print one line for the criterion and assert all sub-checks."""
    ok = all(c[1] for c in checks)
    detail = "; ".join(f"{label} {'ok' if good else 'FAIL'} ({info})"
                       for label, good, info in checks)
    with capsys.disabled():
        print(f"\n[acceptance] criterion {n} ({title}): "
              f"{'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {n}: {detail}"


# Published figures of the example that the stated problem cannot meet.
PUBLISHED_X1_FIRST = 0.138         # x1(1) after the first sweep, u = 5
PUBLISHED_V0_FIRST = 8.3           # V(0) of the first sweep
PUBLISHED_X1_CONVERGED = 0.0667    # converged x1(1)
PUBLISHED_V0_CONVERGED = 0.0053    # converged V(0, x0)

# Any cost under u = 5 is at least I^0.4[u1^2] = 25/Gamma(1.4).
V0_FIRST_FLOOR = 25.0 / math.gamma(1.4)
# An x2 path that stays at or above the published x2(1) = 0.097 costs at
# least I^0.3[x2^2] >= 0.097^2/Gamma(1.3).
V0_CONVERGED_FLOOR = 0.097 ** 2 / math.gamma(1.3)

SCHEME_RTOL = 1e-12
COST_RTOL = 1e-10


def field_problem(parsed):
    cfg = parsed.config
    return parsed.problem.with_field(cfg.n_a, cfg.n_b, cfg.p_max,
                                     cfg.b_series)


def scheme_oracle(u):
    """Node states of the two-state example under the documented scheme,
    on [0, 1], evaluated in mpmath at 30 digits from the problem as
    stated in conftest, independently of fracopt.expansion.

    The scheme (forward_sweep, advance_moments, the A, B, C formulas of
    fracopt.expansion): one Euler step of the Caputo right-hand side
    across the first cell, then explicit Euler on the transformed field
    with the moments of node k; W_p advances by the trapezoidal rule on
    (1-p) t^(p-2) with x frozen at the left node.  A and B come from the
    closed form of the series, evaluated in mpmath (bracket_closed_form).
    The oracle keeps W_p itself, which cannot underflow in mpmath; the
    package stores the normalized M_p = t^(1-p) W_p.
    """
    plant = two_state_problem().plant
    cfg = two_state_config()
    u = np.asarray(u, dtype=float).reshape(-1)
    with mp.workdps(30):
        n = len(u) - 1
        dt = mp.mpf(1) / n
        t = [k * dt for k in range(n + 1)]
        ps = range(2, cfg.p_max + 1)
        qs = [mp.mpf(q) for q in plant.orders]
        x0 = [mp.mpf(v) for v in plant.x0]
        a = [(1 + bracket_closed_form(q, cfg.n_a)) / mp.gamma(1 - q)
             for q in qs]
        b = [(2 + bracket_closed_form(q, cfg.n_b)) / mp.gamma(2 - q)
             for q in qs]
        c = [[mp.gamma(p - 1 + q)
              / (mp.gamma(2 - q) * mp.gamma(q - 1) * mp.factorial(p - 1))
              for p in ps] for q in qs]
        rate = [[(1 - p) * (tk ** (p - 2) if k else int(p == 2)) for p in ps]
                for k, tk in enumerate(t)]

        def advance(w, k):
            """Moments at node k+1 from those at node k."""
            return [[wp + dt / 2 * (r0 + r1) * x[k][i]
                     for wp, r0, r1 in zip(w[i], rate[k], rate[k + 1])]
                    for i in range(len(qs))]

        x = [x0, [xi + dt * fi
                  for xi, fi in zip(x0, plant.rhs(t[0], x0, [u[0]]))]]
        w = advance([[mp.mpf(0)] * len(ps) for _ in qs], 0)
        for k in range(1, n):
            f = plant.rhs(t[k], x[k], [u[k]])
            step = []
            for i, q in enumerate(qs):
                corr = (-x0[i] / mp.gamma(1 - q) + a[i] * x[k][i]) \
                    * t[k] ** -q
                corr -= mp.fsum(cp * t[k] ** (1 - p - q) * wp
                                for cp, p, wp in zip(c[i], ps, w[i]))
                step.append(x[k][i] + dt * (f[i] - corr)
                            / (b[i] * t[k] ** (1 - q)))
            x.append(step)
            w = advance(w, k)
        return np.array(x, dtype=float)


def cost_oracle(x, u):
    """The example's performance index on node samples, by mpmath.quad:
    the piecewise-linear interpolant of each operand against
    (tf - s)^(v-1)/Gamma(v), cell by cell."""
    with mp.workdps(30):
        n = x.shape[0] - 1
        dt = mp.mpf(1) / n
        total = mp.mpf(0)
        for term in two_state_problem().index.terms:
            v = mp.mpf(term.v)
            g = [mp.mpf(term.running(k / n, xk, uk))
                 for k, (xk, uk) in enumerate(zip(x, u))]
            for k in range(n):
                lo, g0, slope = k * dt, g[k], (g[k + 1] - g[k]) / dt
                total += mp.quad(
                    lambda s: (g0 + slope * (s - lo)) * (1 - s) ** (v - 1),
                    [lo, lo + dt]) / mp.gamma(v)
        return float(total)


def scheme_gap(x, u):
    """Largest relative gap between x and the scheme oracle over all nodes."""
    ref = scheme_oracle(u)
    return float(np.max(np.abs(x - ref) / np.abs(ref)))


def test_criterion_1_end_to_end_reproduction(example_state, example_parsed,
                                             capsys):
    state, wall = example_state
    j = state.j_star
    x1, x2 = state.terminal_state
    j_ref = cost_oracle(state.x, state.u)
    gap = scheme_gap(state.x, state.u)

    # J* against the discrete cost of nearby controls
    prob = field_problem(example_parsed)
    ts = state.grid.times()[:, None]
    gains = []
    for phi in (np.ones_like(ts), ts, 1.0 - ts):
        for eps in (0.01, -0.01, 0.1, -0.1):
            u = state.u + eps * phi
            x, _ = forward_sweep(prob, u, example_parsed.config)
            gains.append(fo.evaluate(prob.index, state.grid, x, u) - j)
    v0 = float(state.value.v[0])
    checks = [
        ("J* vs quadrature oracle 1e-10", within(j, j_ref, COST_RTOL),
         f"{j:.10g} vs {j_ref:.10g}, rel {abs(j / j_ref - 1):.1e}; "
         f"published V(0,x0) {PUBLISHED_V0_CONVERGED}"),
        ("V(0,x0) vs quadrature oracle 1e-10", within(v0, j_ref, COST_RTOL),
         f"{v0:.10g}, rel {abs(v0 / j_ref - 1):.1e}"),
        ("J* local minimum over 12 probes", min(gains) > 0.0,
         f"least gain {min(gains):.2e}"),
        ("published V(0,x0) below x2 floor",
         PUBLISHED_V0_CONVERGED < V0_CONVERGED_FLOOR,
         f"{PUBLISHED_V0_CONVERGED} < 0.097^2/G(1.3) = "
         f"{V0_CONVERGED_FLOOR:.5g}"),
        ("x(t_k) vs scheme oracle 1e-12", gap <= SCHEME_RTOL,
         f"max rel {gap:.1e}; x1(1) {x1:.5g}, published "
         f"{PUBLISHED_X1_CONVERGED}"),
        ("x2(1)~0.0970+-10%", within(x2, 0.0970, 0.10), f"got {x2:.5g}"),
        ("runtime<5min", wall < 300.0, f"{wall:.1f}s"),
    ]
    report(capsys, 1, "end-to-end reproduction", checks)


def test_criterion_2_first_sweep_checkpoint(example_parsed, capsys):
    prob = field_problem(example_parsed)
    cfg = example_parsed.config
    start = time.perf_counter()
    x, _ = forward_sweep(prob, 5.0, cfg)
    u = np.full((x.shape[0], 1), 5.0)
    grid = fo.TimeGrid.from_step(prob.plant.t0, prob.tf, cfg.dt)
    j = fo.evaluate(prob.index, grid, x, u)
    wall = time.perf_counter() - start
    x1, x2 = x[-1]
    j_ref = cost_oracle(x, u)
    first = solve(prob, dataclasses.replace(cfg, max_iters=0))
    v0 = float(first.value.v[0])
    gap = scheme_gap(x, u)
    checks = [
        ("x(t_k) vs scheme oracle 1e-12", gap <= SCHEME_RTOL,
         f"max rel {gap:.1e}; x1(1) {x1:.5g}, published "
         f"{PUBLISHED_X1_FIRST}"),
        ("x2(1)~0.097+-10%", within(x2, 0.097, 0.10), f"got {x2:.5g}"),
        ("J(u=5) vs quadrature oracle 1e-10", within(j, j_ref, COST_RTOL),
         f"{j:.10g} vs {j_ref:.10g}, rel {abs(j / j_ref - 1):.1e}"),
        ("J(u=5) >= 25/G(1.4)", j >= V0_FIRST_FLOOR,
         f"{j:.5g} >= {V0_FIRST_FLOOR:.5g}"),
        ("first-sweep V(0) = J(u=5) 1e-15", within(v0, j, 1e-15),
         f"{v0!r} vs {j!r}"),
        ("first-sweep V(0) >= 25/G(1.4)", v0 >= V0_FIRST_FLOOR,
         f"{v0:.5g} >= {V0_FIRST_FLOOR:.5g}"),
        ("published V(0) below u floor", PUBLISHED_V0_FIRST < V0_FIRST_FLOOR,
         f"{PUBLISHED_V0_FIRST} < 25/G(1.4) = {V0_FIRST_FLOOR:.5g}"),
        ("runtime<1min", wall < 60.0, f"{wall:.1f}s"),
    ]
    report(capsys, 2, "first-sweep checkpoint", checks)


def test_forward_sweep_matches_scheme_oracle_on_fine_grid():
    # at dt = 0.005, W_p ~ t^(p-1) lies below the double range at the
    # first nodes for large p (0.005^149 ~ 1e-343); stored unnormalized it
    # underflowed to 0 and the sweep missed this oracle by 4e-2
    prob = two_state_problem()
    cfg = two_state_config(dt=0.005)
    x, _ = forward_sweep(prob, 5.0, cfg)
    assert scheme_gap(x, np.full(x.shape[0], 5.0)) <= SCHEME_RTOL


def test_criterion_3_residual_gate(example_state, capsys):
    state, _ = example_state
    checks = [
        ("converged", state.converged, f"iters {state.iteration}"),
        ("Error<=1e-8", state.error <= 1e-8, f"got {state.error:.3e}"),
    ]
    report(capsys, 3, "residual gate", checks)


def test_criterion_4_classical_backward_compatibility(capsys):
    start = time.perf_counter()
    state = solve(lq_problem(), LQ_CFG)
    ref = riccati_reference()
    wall = time.perf_counter() - start
    checks = [
        ("converged", state.converged, f"iters {state.iteration}"),
        ("J* vs Riccati +-2%", within(state.j_star, ref, 0.02),
         f"got {state.j_star:.6g} vs {ref:.6g}"),
        ("runtime<30s", wall < 30.0, f"{wall:.1f}s"),
    ]
    report(capsys, 4, "classical backward compatibility", checks)


def test_criterion_5_operator_oracle_suite(capsys):
    start = time.perf_counter()
    checks = []

    def add(label, got, want, tol):
        checks.append((label, abs(got - want) <= tol * max(abs(want), 1e-30),
                       f"{got:.10g} vs {want:.10g}"))

    add("gamma(1)", gamma(1.0), 1.0, 1e-12)
    add("gamma(5)", gamma(5.0), 24.0, 1e-12)
    add("gamma(0.5)", gamma(0.5), 1.7724538509055160273, 1e-12)

    c = sampled(lambda t: 1.0)
    lin = sampled(lambda t: t)
    add("I^1 const", fo.rl_integral_left(c, 1.0, 100), 1.0, 1e-12)
    add("I^0.5 const", fo.rl_integral_left(c, 0.5, 100), 1 / gamma(1.5),
        1e-12)
    add("I^0.3 t", fo.rl_integral_left(lin, 0.3, 100),
        gamma(2) / gamma(2.3), 1e-12)
    add("right I^1 const", fo.rl_integral_right(c, 1.0, 0), 1.0, 1e-12)
    add("right I^0.5 const", fo.rl_integral_right(c, 0.5, 0),
        1 / gamma(1.5), 1e-12)
    ramp = sampled(lambda t: 1.0 - t)
    add("right I^0.3 (1-t)", fo.rl_integral_right(ramp, 0.3, 0),
        gamma(2) / gamma(2.3), 1e-12)
    add("CD const", fo.caputo_derivative(c, 0.5, 100), 0.0, 1e-13)
    lin400 = sampled(lambda t: t, n=400)
    add("CD^0.5 t", fo.caputo_derivative(lin400, 0.5, 400),
        1 / gamma(1.5), 1e-9)
    checks.append(("CD^0.999 t ~ 1 (1e-2)",
                   abs(fo.caputo_derivative(lin400, 0.999, 400) - 1.0) <= 1e-2,
                   f"{fo.caputo_derivative(lin400, 0.999, 400):.6g}"))
    add("RLD const", fo.rl_derivative(c, 0.5, 100), 1 / gamma(0.5), 1e-9)
    checks.append(("RLD^0.999 t ~ 1 (2e-2)",
                   abs(fo.rl_derivative(lin400, 0.999, 400) - 1.0) <= 2e-2,
                   f"{fo.rl_derivative(lin400, 0.999, 400):.6g}"))

    for v in (0.3, 0.5, 1.5):
        rates = observed_order(lambda f, n: fo.rl_integral_left(f, v, n),
                               gamma(3) / gamma(3 + v), lambda t: t ** 2)
        checks.append((f"I^{v} order 2+-0.3",
                       all(abs(r - 2.0) <= 0.3 for r in rates),
                       f"rates {[round(r, 2) for r in rates]}"))
    for q in (0.2, 0.5, 0.7):
        rates = observed_order(lambda f, n: fo.caputo_derivative(f, q, n),
                               gamma(3) / gamma(3 - q), lambda t: t ** 2)
        checks.append((f"CD^{q} order {2 - q}+-0.3",
                       all(abs(r - (2 - q)) <= 0.3 for r in rates),
                       f"rates {[round(r, 2) for r in rates]}"))
    wall = time.perf_counter() - start
    checks.append(("runtime<10s", wall < 10.0, f"{wall:.1f}s"))
    report(capsys, 5, "operator oracle suite", checks)


def test_criterion_6_expansion_consistency(capsys):
    # reconstruction of the derivative of t^2 under the convergent series,
    # truncations grown together, against the quadrature operator at 10
    # interior probe nodes
    start = time.perf_counter()
    q = 0.5
    grid = fo.TimeGrid(0.0, 1.0, 1000)
    f = fo.SampledFunction.from_callable(grid, lambda s: s ** 2)
    probe_nodes = np.linspace(100, 900, 10).astype(int)
    refs = {k: rl_derivative(f, q, int(k)) for k in probe_nodes}
    errs = []
    for n in (8, 16, 32):
        coeffs = ExpansionCoeffs.build(q, n, n, n, b_series="convergent")
        ps = coeffs.p_values.astype(float)
        field = one_state_field(coeffs)
        level = []
        for k in probe_nodes:
            t = grid.node(int(k))
            m = (1.0 - ps) * t ** 2 / (ps + 1.0)
            got = (field.correction(t, np.array([t ** 2]), m[:, None])[0]
                   + field.denominator(t)[0] * 2 * t)
            level.append(abs(got - refs[k]))
        errs.append(level)
    monotone = all(errs[0][j] > errs[1][j] > errs[2][j]
                   for j in range(len(probe_nodes)))
    wall = time.perf_counter() - start
    checks = [
        ("monotone at 10 probes", monotone,
         f"max errs {max(errs[0]):.2e} > {max(errs[1]):.2e} "
         f"> {max(errs[2]):.2e}"),
        ("runtime<1min", wall < 60.0, f"{wall:.1f}s"),
    ]
    report(capsys, 6, "expansion consistency", checks)


def test_criterion_7_property_suites(tmp_path, cheap_state, capsys):
    checks = []

    # Bolza reduction at 1e-10
    grid = fo.TimeGrid(0.0, 1.0, 200)
    ts = grid.times()
    x = np.stack([np.sin(ts), np.cos(2 * ts)], axis=1)
    u = (ts ** 2 - 0.3)[:, None]
    h = lambda tf, xv: xv[0] ** 2 + 3 * xv[1]
    g = lambda t, xv, uv: xv[0] * xv[1] + uv[0] ** 2
    pi = fo.PerformanceIndex((fo.CostTerm(v=0.0, terminal=h),
                              fo.CostTerm(v=1.0, running=g)))
    plain = h(1.0, x[-1]) + trapezoid(
        [g(t, xv, uv) for t, xv, uv in zip(ts, x, u)], ts)
    got = fo.evaluate(pi, grid, x, u)
    checks.append(("Bolza reduction 1e-10", abs(got - plain) <= 1e-10,
                   f"diff {abs(got - plain):.2e}"))

    # terminal-value conventions
    pi_run = fo.PerformanceIndex((fo.CostTerm(
        v=0.3, running=lambda t, xv, uv: 1.0),))
    checks.append(("empty-K terminal value 0",
                   fo.terminal_value(pi_run, 1.0, np.array([2.0])) == 0.0,
                   "V(tf)=0"))
    checks.append(("Bolza terminal set {first}",
                   fo.terminal_index_set(pi) == frozenset({0}), "index 0"))
    checks.append(("two-term example has empty K",
                   fo.terminal_index_set(
                       two_state_problem().index) == frozenset(), "empty"))

    # monotone error acceptance
    hist = cheap_state.error_history
    checks.append(("monotone error history",
                   all(b <= a for a, b in zip(hist, hist[1:])),
                   f"{len(hist)} entries"))

    # determinism: byte-identical CSVs from two identical runs
    cheap = ["--override", "solver.n_a=10000",
             "--override", "solver.n_b=10000",
             "--override", "solver.p_max=20"]
    blobs = []
    for tag in ("d1", "d2"):
        csv = tmp_path / f"{tag}.csv"
        rc = cli_main(["run", EXAMPLE_FILE, *cheap, "--csv", str(csv),
                       "--report", str(tmp_path / f"{tag}.json")])
        assert rc == 0
        blobs.append(csv.read_bytes())
    checks.append(("byte-identical CSVs", blobs[0] == blobs[1],
                   f"{len(blobs[0])} bytes"))

    # exit-status contract: 0 converged, 2 non-converged, 1 error
    rc0 = cli_main(["run", EXAMPLE_FILE, *cheap,
                    "--csv", str(tmp_path / "c0.csv"),
                    "--report", str(tmp_path / "c0.json")])
    rc2 = cli_main(["run", EXAMPLE_FILE, *cheap,
                    "--override", "solver.max_iters=0",
                    "--csv", str(tmp_path / "c2.csv"),
                    "--report", str(tmp_path / "c2.json")])
    rc1 = cli_main(["run", str(tmp_path / "absent.yaml")])
    checks.append(("exit statuses 0/2/1",
                   (rc0, rc2, rc1) == (0, 2, 1), f"got {(rc0, rc2, rc1)}"))

    report(capsys, 7, "property suites", checks)
