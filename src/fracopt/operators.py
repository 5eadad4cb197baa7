"""Grid-based fractional calculus primitives.

Fractional integrals use product integration: the weakly singular kernel
is integrated exactly against a piecewise-linear interpolant of the
integrand on each grid cell, so no kernel value is ever evaluated at the
singular endpoint.  The Caputo derivative uses the classical L1 scheme
(piecewise-constant finite-difference slope against exact kernel moments),
which is O(dt^(2-q)) accurate for smooth inputs.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .grid import SampledFunction

__all__ = [
    "gamma",
    "rl_integral_left",
    "rl_integral_right",
    "caputo_derivative",
    "rl_derivative",
]


def gamma(v: float) -> float:
    """Gamma function with explicit pole and overflow rejection.

    Negative non-integer arguments are allowed (they arise in the moment
    coefficients of the expansion module).  Poles at 0, -1, -2, ... and
    arguments whose Gamma overflows a float (v > 171.62, or 0 < |v| <
    5.6e-309) raise DomainError instead of returning inf/nan.
    """
    v = float(v)
    if v <= 0 and v == math.floor(v):
        raise DomainError(f"gamma pole at non-positive integer {v}")
    try:
        return math.gamma(v)
    except OverflowError:
        raise DomainError(f"gamma overflows at {v}") from None


def _scalar_samples(f: SampledFunction) -> np.ndarray:
    if not f.is_scalar:
        raise DomainError("operator requires a scalar-valued function")
    return f.values


def _check_node(f: SampledFunction, node: int) -> None:
    if not 0 <= node <= f.grid.n_steps:
        raise DomainError(f"node {node} outside grid 0..{f.grid.n_steps}")


def kernel_cell_weights(grid, v: float, lo: int, hi: int,
                        singular_at: str):
    """The per-cell weights that singular_kernel_weights sums, before its
    division by Gamma(v): (far_w, near_w, far, near), where cell c of
    lo..hi weights its node farther from the singular end (index slice
    far) by far_w[c] and its nearer node (slice near) by near_w[c].
    Kernel moments are exact per cell, so the v<1 endpoint singularity
    is integrated analytically and never sampled.
    """
    dt = grid.dt
    times = grid.times()
    if singular_at == "upper":
        anchor = times[hi]
        # s = anchor - tau decreases across the cell
        b = anchor - times[lo:hi]       # outer kernel distances
        a = anchor - times[lo + 1:hi + 1]
        near, far = slice(lo + 1, hi + 1), slice(lo, hi)
    elif singular_at == "lower":
        anchor = times[lo]
        a = times[lo:hi] - anchor
        b = times[lo + 1:hi + 1] - anchor
        near, far = slice(lo, hi), slice(lo + 1, hi + 1)
    else:
        raise ValueError(singular_at)
    i0 = (b ** (v + 1) - a ** (v + 1)) / (v + 1)
    i1 = (b ** v - a ** v) / v
    # linear shape functions: (s - a)/dt weighting the far node,
    # (b - s)/dt weighting the node nearer the singular end
    return (i0 - a * i1) / dt, (b * i1 - i0) / dt, far, near


def singular_kernel_weights(grid, v: float, lo: int, hi: int,
                            singular_at: str) -> np.ndarray:
    """Quadrature weights for a power-law kernel against piecewise-linear data.

    Returns w of length n_nodes with support on nodes lo..hi such that
    w @ samples approximates

        (1/Gamma(v)) * integral_{t_lo}^{t_hi} K(tau) f(tau) dtau,

    where K(tau) = (t_hi - tau)^(v-1) for singular_at='upper' and
    K(tau) = (tau - t_lo)^(v-1) for singular_at='lower'.
    """
    if v <= 0:
        raise DomainError(f"integration order must be positive, got {v}")
    w = np.zeros(grid.n_nodes)
    if hi <= lo:
        return w
    far_w, near_w, far, near = kernel_cell_weights(grid, v, lo, hi,
                                                   singular_at)
    w[far] += far_w
    w[near] += near_w
    return w / gamma(v)


def rl_integral_left(f: SampledFunction, v: float, upper_node: int) -> float:
    """Left fractional integral of order v evaluated at a grid node.

    Computes (1/Gamma(v)) * int_{t0}^{t_k} (t_k - tau)^(v-1) f(tau) dtau
    for k = upper_node.
    """
    samples = _scalar_samples(f)
    _check_node(f, upper_node)
    if v <= 0:
        raise DomainError("negative integration orders are not supported")
    w = singular_kernel_weights(f.grid, v, 0, upper_node, "upper")
    return float(w @ samples)


def rl_integral_right(f: SampledFunction, v: float, lower_node: int) -> float:
    """Right fractional integral of order v evaluated at a grid node.

    Computes (1/Gamma(v)) * int_{t_k}^{tf} (tau - t_k)^(v-1) f(tau) dtau
    for k = lower_node.
    """
    samples = _scalar_samples(f)
    _check_node(f, lower_node)
    if v <= 0:
        raise DomainError("negative integration orders are not supported")
    w = singular_kernel_weights(f.grid, v, lower_node, f.grid.n_steps, "lower")
    return float(w @ samples)


def caputo_derivative(f: SampledFunction, q: float, node: int) -> float:
    """Caputo derivative of order q in (0,1) at a grid node (L1 scheme).

    The defining integral (1/Gamma(1-q)) * int (t-tau)^(-q) f'(tau) dtau is
    discretized with per-cell finite-difference slopes and exact kernel
    moments.  At node 0 the integration interval is empty and the value
    is 0.
    """
    samples = _scalar_samples(f)
    _check_node(f, node)
    if not 0 < q < 1:
        raise DomainError(f"Caputo order must lie in (0,1), got {q}")
    if node == 0:
        return 0.0
    grid = f.grid
    dt = grid.dt
    times = grid.times()
    t = times[node]
    slopes = (samples[1:node + 1] - samples[:node]) / dt
    moments = ((t - times[:node]) ** (1 - q)
               - (t - times[1:node + 1]) ** (1 - q)) / (1 - q)
    return float((slopes @ moments) / gamma(1 - q))


def rl_derivative(f: SampledFunction, q: float, node: int) -> float:
    """Riemann-Liouville derivative of order q in (0,1) at a grid node.

    Computed through the Caputo value plus the initial-value correction
    f(t0) * (t - t0)^(-q) / Gamma(1-q).  At node 0 the correction is
    genuinely unbounded: the function returns a signed infinity marker
    when f(t0) != 0 rather than a clamped finite value.
    """
    samples = _scalar_samples(f)
    _check_node(f, node)
    if not 0 < q < 1:
        raise DomainError(f"order must lie in (0,1), got {q}")
    f0 = samples[0]
    if node == 0:
        if f0 == 0.0:
            return 0.0
        return math.copysign(math.inf, f0)
    t = f.grid.node(node) - f.grid.t0
    return caputo_derivative(f, q, node) + f0 * t ** (-q) / gamma(1 - q)
