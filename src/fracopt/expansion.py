"""Series expansion of fractional derivatives into local terms and moments.

A left fractional derivative of order q in (0,1) is represented through
the sampled function itself, its first derivative, and a family of moment
states W_p solving

    dW_p/dt = (1-p) (t-a)^(p-2) x(t),   W_p(a) = 0,   p = 2, 3, ...

with coefficients

    A(q,N) = (1/Gamma(1-q)) * (1 + sum_{p=2}^{N} Gamma(p-1+q)/(Gamma(q)(p-1)!))
    B(q,N) = (1/Gamma(2-q)) * (1 + sum_{p=1}^{N} Gamma(p-1+q)/(Gamma(q)(p-1)!))
    C(q,p) = Gamma(p-1+q) / (Gamma(2-q) Gamma(q-1) (p-1)!)

The A and B series diverge as N grows (terms behave like p^(q-1)), so the
truncation count is a modeling parameter rather than a convergence
tolerance.  Note that B as defined above grows without bound with N and
does not approach 1 as q -> 1; a second convention for B,

    B(q,N) = Gamma(N+q) / (Gamma(q) Gamma(N+1) Gamma(2-q)),

is provided under series="convergent".  It decays like N^(q-1), equals 1
identically at q = 1, and is the choice under which the reconstruction
of the derivative converges when N and the moment cutoff grow together.
See README for when each convention is appropriate.

All three coefficients rest on one partial sum (hockey-stick identity),

    S(q,N) = sum_{p=2}^{N} Gamma(p-1+q)/(Gamma(q)(p-1)!)
           = Gamma(N+q) / (Gamma(q+1) Gamma(N)) - 1,

so A = (1+S)/Gamma(1-q), the divergent B = (2+S)/Gamma(2-q) and the
convergent B = q (1+S) / (N Gamma(2-q)).  S costs O(1) at any N: see
series_partial_sum.

W_p is of size (t-a)^(p-1), so it is stepped normalized as
M_p = (t-a)^(1-p) W_p, which solves (t-a) M_p' = -(p-1) (x + M_p); the
moment part of the expansion is then (t-a)^(-q) sum_p C(q,p) M_p.  The
exact M_p is a weighted mean of -x and so stays within max|x|; the
stepped moments do not.  The first-cell trapezoid of advance_moments
gives M_p(t_1) = (1-p) x0/2: on the bundled example max|M| = 74.5 at
node 1 (p = 150) while max|x| is about 1.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import DomainError, SingularTimeError
from .grid import TimeGrid

__all__ = [
    "series_partial_sum",
    "state_coeff",
    "derivative_coeff",
    "moment_coeff",
    "ExpansionCoeffs",
    "moment_factors",
    "advance_moments",
    "central_difference",
    "as_evaluator",
    "TransformedField",
]

#: largest truncation count summed term by term; above it the closed form
#: is used.  Against mpmath, the direct sum is within 5e-13 relative up to
#: here; the closed form is within 1.3e-15 from here to N = 1e12 (largest
#: for q near 0, where S is smallest).
_DIRECT_MAX = 100_000
_FD_STEP = 1e-6


def _poch(a: float, m: float) -> float:
    """Pochhammer symbol (a)_m = Gamma(a+m)/Gamma(a) for a > 1e4, |m| <= 1.

    The large-argument series a^m (1 + m(m-1)/(2a) + ...) of the cephes
    poch routine, written term for term as cephes writes it, so it gives
    the same bits as scipy.special.poch on that range.
    """
    return a ** m * (
        1
        + m * (m - 1) / (2 * a)
        + m * (m - 1) * (m - 2) * (3 * m - 1) / (24 * a * a)
        + m * m * (m - 1) * (m - 1) * (m - 2) * (m - 3) / (48 * a * a * a))


def _check_order(q: float) -> float:
    q = float(q)
    if not 0 < q < 1:
        raise DomainError(f"expansion order must lie in (0,1), got {q}")
    return q


def series_partial_sum(q: float, n_terms: int) -> float:
    """S(q,N) = sum_{p=2}^{N} Gamma(p-1+q) / (Gamma(q) (p-1)!), N = n_terms.

    Up to N = _DIRECT_MAX the terms are generated by the ratio recurrence
    term(p+1) = term(p) * (p-1+q)/p, which avoids Gamma overflow, and
    summed pairwise by numpy.  Above it the closed form
    Gamma(N+q)/(Gamma(q+1) Gamma(N)) - 1 is evaluated through the
    Pochhammer symbol (N)_q = Gamma(N+q)/Gamma(N), which stays accurate
    where Gamma(N) itself overflows; N > 1e5 is inside the range of the
    large-argument series _poch.
    """
    q = _check_order(q)
    if n_terms < 2:
        return 0.0
    if n_terms <= _DIRECT_MAX:
        ps = np.arange(2, n_terms + 1, dtype=float)
        ratios = (ps - 2.0 + q) / (ps - 1.0)
        ratios[0] = 1.0           # p = 2 term: Gamma(1+q)/Gamma(q) = q
        return float(np.sum(q * np.cumprod(ratios)))
    return _poch(float(n_terms), q) / math.gamma(q + 1) - 1.0


def state_coeff(q: float, n_terms: int) -> float:
    """Coefficient multiplying (t-a)^(-q) x(t) in the expansion."""
    q = _check_order(q)
    if n_terms < 2:
        raise DomainError("state coefficient needs a truncation count >= 2")
    return (1.0 + series_partial_sum(q, n_terms)) / math.gamma(1 - q)


def derivative_coeff(q: float, n_terms: int,
                     series: str = "divergent") -> float:
    """Coefficient multiplying (t-a)^(1-q) x'(t) in the expansion.

    series="divergent" is the partial-sum definition (same term kernel as
    the state coefficient, lower limit p=1); series="convergent" is the
    closed-form variant that restores the q -> 1 limit (see module notes).
    """
    q = _check_order(q)
    if n_terms < 1:
        raise DomainError("derivative coefficient needs a truncation count >= 1")
    if series == "divergent":
        # 1 + sum_{p=1}^{N} = 2 + sum_{p=2}^{N}  (the p=1 term equals 1)
        return (2.0 + series_partial_sum(q, n_terms)) / math.gamma(2 - q)
    if series == "convergent":
        # Gamma(N+q)/(Gamma(q) Gamma(N+1)) = q (1 + S(q,N)) / N
        return (q * (1.0 + series_partial_sum(q, n_terms)) / n_terms
                / math.gamma(2 - q))
    raise DomainError(f"unknown derivative-coefficient series {series!r}")


def _moment_coeffs(q: float, ps) -> np.ndarray:
    """C(q,p) for an array of moment indices, given as floats >= 2."""
    lg = math.lgamma
    log_c = np.array([lg(p - 1 + q) - lg(2 - q) - lg(q - 1.0) - lg(p)
                      for p in ps])
    return math.copysign(1.0, math.gamma(q - 1.0)) * np.exp(log_c)


def moment_coeff(q: float, p: int) -> float:
    """Coefficient of the p-th moment state, negative for q in (0,1)."""
    q = _check_order(q)
    if p < 2:
        raise DomainError(f"moment index must be >= 2, got {p}")
    return float(_moment_coeffs(q, [float(p)])[0])


@dataclass(frozen=True)
class ExpansionCoeffs:
    """Truncated expansion coefficients for one fractional order."""

    q: float
    n_a: int
    n_b: int
    p_max: int
    b_series: str
    a_val: float
    b_val: float
    c_vals: np.ndarray = field(repr=False)      # index 0 <-> p = 2

    @classmethod
    def build(cls, q: float, n_a: int, n_b: int, p_max: int,
              b_series: str = "divergent") -> "ExpansionCoeffs":
        q = _check_order(q)
        if p_max < 2:
            raise DomainError("moment cutoff p_max must be >= 2")
        coeffs = cls(
            q=q, n_a=int(n_a), n_b=int(n_b), p_max=int(p_max),
            b_series=b_series,
            a_val=state_coeff(q, n_a),
            b_val=derivative_coeff(q, n_b, b_series),
            c_vals=_moment_coeffs(q, np.arange(2, p_max + 1, dtype=float)),
        )
        if not (math.isfinite(coeffs.a_val) and coeffs.a_val > 0):
            raise DomainError("state coefficient must be finite and positive")
        if not (math.isfinite(coeffs.b_val) and coeffs.b_val > 0):
            raise DomainError("derivative coefficient must be finite and positive")
        return coeffs

    @property
    def p_values(self) -> np.ndarray:
        return np.arange(2, self.p_max + 1)


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def moment_factors(grid: TimeGrid, n_moments: int):
    """(decay, fac), each (n_steps, n_moments), of the explicit
    trapezoidal step M_{k+1} = decay[k] M_k + fac[k] x_k of the moment
    IVP, column j for p = j+2.  The rate (1-p)(t-a)^(p-2) x of W_p is
    integrated over the cell with x frozen at the left node, which makes
    the moments a pure function of the node samples of x (the property
    the residual audit relies on).  Exact for constant x.  With
    rho = (t_k-a)/(t_{k+1}-a) (rho^0 = 1 at the first node), decay[k] =
    rho^(p-1) and fac[k] = (1-p)/2 dt/(t_{k+1}-a) (rho^(p-2) + 1).
    """
    ps = np.arange(2, n_moments + 2).astype(float)
    t_rel = grid.times() - grid.t0
    rho = (t_rel[:-1] / t_rel[1:])[:, None]
    fac = rho ** (ps - 2.0)
    fac += 1.0
    fac *= (0.5 * grid.dt / t_rel[1:])[:, None] * (1.0 - ps)
    return _read_only(rho ** (ps - 1.0)), _read_only(fac)


def advance_moments(m: np.ndarray, x: np.ndarray, decay: np.ndarray,
                    fac: np.ndarray, out: np.ndarray = None) -> np.ndarray:
    """The moments at node k+1 from those at node k: m[j, i] holds
    M_p(t_k) for p = j+2 and state component i (zero at node 0: its
    limit -x(a) is never read, since the field is singular there), x is
    the state x_k, and decay and fac are row k of moment_factors.

    A new array, or with out (which may be m itself, for a step in
    place) the step written into out and out returned.  Both forms round
    the same two products and their sum, so they agree bit for bit."""
    x = np.asarray(x, dtype=float)
    if out is None:
        return decay[:, None] * m + fac[:, None] * x
    np.multiply(decay[:, None], m, out=out)
    out += fac[:, None] * x
    return out


def central_difference(fn, x: np.ndarray) -> np.ndarray:
    """Central differences of fn in each component of x: entry j, or
    column j when fn returns a vector, is (fn(x + h e_j) - fn(x - h e_j))
    / (2h) with h = 1e-6 max(1, |x_j|).  So a scalar fn gives its
    gradient and a vector fn its Jacobian.  x may also hold one point per
    row (node arrays), and fn then one value or vector per row."""
    columns = []
    for j in range(x.shape[-1]):
        h = _FD_STEP * np.maximum(1.0, np.abs(x[..., j]))
        xp, xm = x.copy(), x.copy()
        xp[..., j] += h
        xm[..., j] -= h
        diff = np.asarray(fn(xp) - fn(xm))
        columns.append(diff / np.reshape(2 * h, h.shape + (1,) * (
            diff.ndim - h.ndim)))
    return np.stack(columns, axis=-1)


def _rows(value, n: int) -> np.ndarray:
    """A node form's value with n rows: a gradient's tuple stacked into
    columns, a float (an expression reading no variable) repeated."""
    if isinstance(value, tuple):
        return np.stack([_rows(v, n) for v in value], axis=-1)
    return value if np.shape(value)[:1] == (n,) else np.full(n, value)


def node_evaluator(forms, replay):
    """One function of node arrays t (N,), x (N, n) and u (N, m): each of
    forms(n), (columns, form) pairs, is called once on the columns t,
    x1..xn, u1..um, unchecked (nan or inf where an evaluation raises),
    and fills its columns of the value, all of it for slice(None); then
    replay evaluates each row that is not finite again, lowest first and
    with its time as a Python float, so that an error there raises as it
    does at one node.  The function's forms are forms (hjb.GridPlan)."""
    def evaluate(t, x, u):
        n, args, pairs = t.shape[0], (t, *x.T, *u.T), forms(x.shape[1])
        with np.errstate(all="ignore"):
            values = [_rows(form(*args), n) for _, form in pairs]
        out = values[0] if pairs[0][0] == slice(None) else np.stack(values, 1)
        if not np.isfinite(out).all():
            for k in np.flatnonzero(~np.isfinite(out.reshape(n, -1)).all(1)):
                replay(float(t[k]), x[k], u[k])
        return out
    evaluate.forms = forms
    return evaluate


def as_evaluator(fn, n_states: int = None):
    """fn, a Python callable of (t, x, u) at one node, with the interface
    of a compiled problem-file evaluator (config._evaluator), or fn
    itself when it has one (a nodes attribute): wrapping is idempotent.
    The wrapper calls fn.  Its nodes is node_evaluator's with one form,
    a loop calling fn at every row (nan at every row when fn raises at
    one) whose values are then made floats, and with fn at one row as the
    replay.  With n_states (fn is a plant's rhs) each value is broadcast
    to (n_states,) first, in the loop and in the replay, as numpy
    arithmetic on it would.  So nodes raises what one checked loop over
    the rows raises: a value that does not convert raises from the form,
    and the replay what fn or the broadcast raises at the first row it
    fails.  With n_states, floats takes and returns Python floats.
    """
    if hasattr(fn, "nodes"):
        return fn
    evaluate = partial(fn)    # fn itself, carrying the attributes below
    shape = () if n_states is None else (n_states,)
    row = fn if n_states is None else (
        lambda t, x, u: np.broadcast_to(fn(t, x, u), shape))

    def rows(n, t, *columns):
        try:
            values = list(map(row, t.tolist(), np.stack(columns[:n], 1),
                              np.stack(columns[n:], 1)))
        except Exception:    # the replay calls fn again
            return np.full(t.shape + shape, math.nan)
        return np.array(values, dtype=float)   # raises as a checked loop

    evaluate.nodes = node_evaluator(
        lambda n: ((slice(None), partial(rows, n)),), row)
    if n_states is not None:
        evaluate.floats = lambda t, x, u: np.broadcast_to(np.asarray(
            fn(t, np.array(x), np.array(u)), dtype=float), shape).tolist()
    return evaluate


class TransformedField:
    """Equivalent integer-order vector field for Caputo dynamics.

    Component i evaluates to

        (f_i(t, x, u) - k_i(t, x_i, M)) / (B_i (t-a)^(1-q_i)),

    where k_i is the memory correction.  Singular at t = a; the solver
    never evaluates there (start-offset policy).

    The field keeps no per-time state: every factor is computed per call.
    The denominator depends on t alone, so a sweep takes it once per grid
    node, over all nodes at once (hjb.GridPlan), and reads it from there.
    """

    def __init__(self, plant, coeffs: tuple):
        if len(coeffs) != plant.n_states:
            raise DomainError("one coefficient set per state component required")
        for c, q in zip(coeffs, plant.orders):
            if abs(c.q - q) > 1e-12:
                raise DomainError("coefficient order does not match plant order")
        self.plant = plant
        self.coeffs = tuple(coeffs)
        self._a = np.array([c.a_val for c in coeffs])
        self._b = np.array([c.b_val for c in coeffs])
        self._q = np.asarray(plant.orders, dtype=float)
        # per component: -q_i, -x_i(a)/Gamma(1-q_i), A_i and the C(q_i,p)
        self._terms = [(-c.q, -x0_i / math.gamma(1 - c.q), c.a_val, c.c_vals)
                       for x0_i, c in zip(plant.x0.tolist(), coeffs)]

    def denominator(self, t) -> np.ndarray:
        """B_i (t-a)^(1-q_i), read-only; one row per time when t is an
        array of times."""
        t_rel = np.asarray(t, dtype=float)[..., None] - self.plant.t0
        if (t_rel <= 0.0).any():
            raise SingularTimeError("transformed field is singular at t = a")
        return _read_only(self._b * t_rel ** (1.0 - self._q))

    def correction(self, t: float, x, m_node: np.ndarray) -> list:
        """The memory corrections, component i being

            k_i = (t-a)^(-q_i) (-x_i(a)/Gamma(1-q_i) + A_i x_i
                                - sum_p C(q_i,p) M_p),

        with M_p = m_node[p-2, i], as a list, one per component: Python
        floats for a state x of Python floats (the forward sweep's), the
        same values as numpy floats for an array x.  Singular at t = a."""
        t_rel = t - self.plant.t0
        if t_rel <= 0.0:
            raise SingularTimeError("memory correction is singular at t = a")
        return [t_rel ** neg_q * (x0_term + a_val * x_i
                                  - float(c_vals.dot(m_i)))
                for (neg_q, x0_term, a_val, c_vals), x_i, m_i
                in zip(self._terms, x, m_node.T)]

    def __call__(self, t: float, x: np.ndarray, m_node: np.ndarray,
                 u: np.ndarray) -> np.ndarray:
        shift = np.array(self.correction(t, x, m_node))
        return (self.plant.rhs(t, x, u) - shift) / self.denominator(t)

    def at_state(self, t: float, x: np.ndarray, m_node: np.ndarray):
        """correction under the name the benchmark's tracer binds to (no
        package code calls it)."""
        return self.correction(t, x, m_node)

    def jacobian_x(self, t: np.ndarray, x: np.ndarray,
                   u: np.ndarray) -> np.ndarray:
        """d(field)/dx with the moments held fixed, at every row of node
        arrays t, x and u: the plant's rhs_x on the plant part, exact on
        the expansion part (the correction is linear in x with a diagonal
        coefficient A_i (t-a)^(-q_i))."""
        denominator = self.denominator(t)
        t_rel = (np.asarray(t, dtype=float) - self.plant.t0)[:, None]
        jac = np.array(self.plant.rhs_x(t, x, u), dtype=float)
        i = np.arange(self._q.shape[0])
        jac[:, i, i] -= self._a * t_rel ** (-self._q)
        return jac / denominator[:, :, None]

