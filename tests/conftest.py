import dataclasses

import mpmath as mp
import numpy as np
import pytest

import fracopt as fo
from fracopt.config import parse_problem

EXAMPLE_FILE = "problems/example.yaml"


def bracket_closed_form(q, n):
    """Independent oracle: sum_{p=2}^{N} Gamma(p-1+q)/(Gamma(q)(p-1)!)
    equals Gamma(q+N)/(Gamma(q+1) Gamma(N)) - 1 (hockey-stick identity).

    q + N is formed in mpmath: in float it would round q to the spacing
    of N (about 1e-7 at N = 1e9) and shift the result by ~1e-6 relative.
    """
    with mp.workdps(30):
        q = mp.mpf(q)
        return float(mp.gamma(q + n) / (mp.gamma(q + 1) * mp.gamma(n)) - 1)


def moment_trajectory(grid, p_max, xs):
    """M_k at every node of grid for the state samples xs (one row per
    node), stepped by advance_moments from zero at node 0: array of shape
    (n_nodes, p_max - 1, n_states)."""
    xs = np.asarray(xs, dtype=float)
    out = np.zeros((grid.n_nodes, p_max - 1, xs.shape[1]))
    decay, fac = fo.moment_factors(grid, p_max - 1)
    for k in range(grid.n_steps):
        out[k + 1] = fo.advance_moments(out[k], xs[k], decay[k], fac[k])
    return out


def frozen_table(prob, grid, xs, m_nodes):
    """The NodeTable of grid with node k frozen at state xs[k] and moments
    m_nodes[k]: its row holds xs[k] and the memory correction there, as
    the forward sweep writes it."""
    table = fo.NodeTable(fo.GridPlan(prob, grid))
    table.x[:] = xs
    for k, t in enumerate(table.t_field.tolist()):
        table.correction[k] = prob.field.correction(t, xs[k], m_nodes[k])
    return table


def one_state_field(coeffs, x0=0.0):
    """The TransformedField of one state of order coeffs.q, anchored at
    t = 0 with x(0) = x0, for reading its correction and denominator."""
    plant = fo.FractionalPlant(orders=(coeffs.q,),
                               rhs=lambda t, x, u: np.zeros(1),
                               x0=np.array([x0]), n_controls=1)
    return fo.TransformedField(plant, (coeffs,))


def two_state_problem():
    """The bundled two-state problem, built programmatically."""
    plant = fo.FractionalPlant(
        orders=(0.2, 0.7),
        rhs=lambda t, x, u: np.array([x[1] + u[0], -x[0]]),
        x0=np.array([1.0, 0.5]),
        n_controls=1,
    )
    index = fo.PerformanceIndex((
        fo.CostTerm(v=0.3, running=lambda t, x, u: x[0] ** 2 + x[1] ** 2),
        fo.CostTerm(v=0.4, running=lambda t, x, u: x[0] ** 2 + u[0] ** 2),
    ))
    return fo.HJBProblem(plant=plant, index=index, tf=1.0,
                         u_lower=np.array([-10.0]),
                         u_upper=np.array([10.0]),
                         quadratic_control=True)


def as_python_callables(prob):
    """prob rebuilt with each of its evaluators (a problem file's
    compiled ones, say) behind a plain Python callable that calls it, so
    that the plant and the cost terms wrap them as Python callables."""
    def plain(fn):
        return None if fn is None else (lambda *args: fn(*args))
    plant = dataclasses.replace(prob.plant, rhs=plain(prob.plant.rhs),
                                rhs_jacobian=plain(prob.plant.rhs_jacobian))
    terms = tuple(fo.CostTerm(v=term.v, running=plain(term.running),
                              terminal=plain(term.terminal),
                              gradient=plain(term.gradient))
                  for term in prob.index.terms)
    return dataclasses.replace(prob, plant=plant,
                               index=fo.PerformanceIndex(terms))


def two_state_config(**kw):
    base = dict(dt=0.01, u_init=5.0, n_a=10 ** 9, n_b=10 ** 9, p_max=150,
                max_iters=200, error_tol=1e-8, relaxation=0.5,
                stepper="euler", b_series="divergent")
    base.update(kw)
    return fo.SweepConfig(**base)


@pytest.fixture(scope="session")
def example_parsed():
    return parse_problem(EXAMPLE_FILE)


@pytest.fixture(scope="session")
def example_state(example_parsed):
    """Converged solve of the bundled example at full truncation.

    Session-scoped: the solve takes a few seconds and is shared by every
    test that needs the converged run.
    Returns (state, wall_seconds).
    """
    import time
    start = time.perf_counter()
    state = fo.solve(example_parsed.problem, example_parsed.config)
    return state, time.perf_counter() - start


@pytest.fixture(scope="session")
def cheap_state():
    """Converged solve at light truncation for structural tests."""
    cfg = two_state_config(n_a=10 ** 5, n_b=10 ** 5, p_max=40)
    return fo.solve(two_state_problem(), cfg)
