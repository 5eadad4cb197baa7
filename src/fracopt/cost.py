"""Generalized performance index built from fractional-integral cost terms.

A performance index is an ordered list of terms, each pairing a tuning
order v in [0, 2] with an operand.  Terms with v > 0 integrate a running
operand g(t, x, u) against the kernel (tf - tau)^(v-1) / Gamma(v); terms
with v = 0 contribute a terminal operand g(tf, x(tf)) and fix the
boundary value of the value function.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, SingularTimeError
from .expansion import as_evaluator, central_difference
from .grid import TimeGrid
from .operators import (gamma, kernel_cell_weights,
                        singular_kernel_weights)

__all__ = [
    "CostTerm",
    "PerformanceIndex",
    "terminal_index_set",
    "terminal_value",
    "running_weight",
    "evaluate",
    "cost_to_go",
]


@dataclass(frozen=True)
class CostTerm:
    """One (tuning order, operand) pair of the performance index.

    Zero-order terms carry a terminal operand g(tf, x) only; nonzero-order
    terms carry a running operand g(t, x, u) only.  gradient, when given,
    is the operand's x-gradient, with the operand's arguments.  A running
    operand and its gradient are wrapped once, here
    (expansion.as_evaluator): over node arrays, running.nodes and
    gradient.nodes apply them at every row.
    """

    v: float
    running: Optional[Callable[[float, np.ndarray, np.ndarray], float]] = None
    terminal: Optional[Callable[[float, np.ndarray], float]] = None
    gradient: Optional[Callable[..., np.ndarray]] = None

    def __post_init__(self):
        if not 0.0 <= self.v <= 2.0:
            raise DomainError(f"tuning order must lie in [0,2], got {self.v}")
        if self.v == 0.0:
            if self.terminal is None or self.running is not None:
                raise DomainError(
                    "a zero-order term carries a terminal operand only")
        else:
            if self.running is None or self.terminal is not None:
                raise DomainError(
                    "a nonzero-order term carries a running operand only")
            object.__setattr__(self, "running", as_evaluator(self.running))
            if self.gradient is not None:
                object.__setattr__(self, "gradient",
                                   as_evaluator(self.gradient))


@dataclass(frozen=True)
class PerformanceIndex:
    terms: tuple

    def __post_init__(self):
        terms = tuple(self.terms)
        if len(terms) < 1:
            raise DomainError("performance index needs at least one term")
        for term in terms:
            if not isinstance(term, CostTerm):
                raise DomainError("terms must be CostTerm instances")
        object.__setattr__(self, "terms", terms)

    @cached_property
    def running_terms(self):
        return tuple(t for t in self.terms if t.v != 0.0)

    def running_gradient(self, weights: np.ndarray, t: np.ndarray,
                         x: np.ndarray, u: np.ndarray) -> np.ndarray:
        """d/dx of the weighted running cost sum_j weights[:, j] g_j(t, x,
        u) at every row of node arrays (weights: one row per node): the
        weighted sum of the terms' gradients, or the central difference
        of the cost when a term has none."""
        terms = self.running_terms
        if any(term.gradient is None for term in terms):
            return central_difference(lambda xv: sum(
                w * term.running.nodes(t, xv, u)
                for w, term in zip(weights.T, terms)), x)
        grad = np.zeros(x.shape)
        for w, term in zip(weights.T, terms):
            grad += w[:, None] * term.gradient.nodes(t, x, u)
        return grad

    def terminal_gradient(self, tf: float, x_tf: np.ndarray) -> np.ndarray:
        """d/dx of terminal_value at x_tf: from the terminal terms'
        gradients when every one has one, by central differences of
        terminal_value otherwise."""
        terms = [self.terms[i] for i in terminal_index_set(self)]
        if any(term.gradient is None for term in terms):
            return central_difference(
                lambda xv: terminal_value(self, tf, xv), x_tf)
        grad = np.zeros(x_tf.shape[0])
        for term in terms:
            grad += np.asarray(term.gradient(tf, x_tf), dtype=float)
        return grad


def terminal_index_set(pi: PerformanceIndex) -> frozenset:
    """Indices of the zero-order (non-integral) terms."""
    return frozenset(i for i, t in enumerate(pi.terms) if t.v == 0.0)


def terminal_value(pi: PerformanceIndex, tf: float, x_tf: np.ndarray) -> float:
    """Boundary value of the value function: sum of terminal operands.

    Zero when the index has no zero-order terms.
    """
    x_tf = np.asarray(x_tf, dtype=float)
    return float(sum(pi.terms[i].terminal(tf, x_tf)
                     for i in terminal_index_set(pi)))


def running_weight(v: float, t: float, tf: float) -> float:
    """Instantaneous kernel weight (tf - t)^(v-1) / Gamma(v).

    Constant 1 for v = 1; singular at t = tf when v < 1 (raised as
    SingularTimeError rather than returned as inf).
    """
    if v <= 0.0 or v > 2.0:
        raise DomainError(f"running weight needs v in (0,2], got {v}")
    if t > tf:
        raise DomainError("running weight evaluated past the horizon")
    rem = tf - t
    if rem == 0.0 and v < 1.0:
        raise SingularTimeError("running weight is singular at t = tf for v < 1")
    return rem ** (v - 1.0) / gamma(v)


def evaluate(pi: PerformanceIndex, grid: TimeGrid, x: np.ndarray,
             u: np.ndarray, from_node: int = 0) -> float:
    """Cost-to-go of a sampled trajectory pair from a grid node.

    Each nonzero-order term's operand is sampled over the node arrays
    (CostTerm.running.nodes) and integrated over [t_from, tf] with the
    singularity-safe product quadrature; zero-order terms add their
    terminal operands.  Trajectories are node-sampled arrays of shape
    (n_nodes, n_states) and (n_nodes, n_controls).
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if x.shape[0] != grid.n_nodes or u.shape[0] != grid.n_nodes:
        raise DomainError("trajectories must cover every grid node")
    if not 0 <= from_node <= grid.n_steps:
        raise DomainError(f"node {from_node} outside grid")
    times = grid.times()
    total = terminal_value(pi, grid.tf, x[-1])
    k = from_node
    for term in pi.running_terms:
        w = singular_kernel_weights(grid, term.v, k, grid.n_steps, "upper")
        samples = term.running.nodes(times[k:], x[k:], u[k:])
        total += float(w[k:] @ samples)
    return total


def cost_to_go(pi: PerformanceIndex, grid: TimeGrid, x: np.ndarray,
               u: np.ndarray) -> np.ndarray:
    """Cost-to-go of a sampled trajectory pair from every grid node:
    V[k] is evaluate(pi, grid, x, u, k) up to the order of summation.

    The running kernel is anchored at tf, so a cell's quadrature term is
    the same from whichever node the sum starts, and V is the terminal
    value plus the reverse cumulative sum of the cell terms, one pass.
    A non-finite operand or sum is returned, not raised.
    """
    times = grid.times()
    n = grid.n_steps
    cells = np.zeros(n)
    for term in pi.running_terms:
        g = term.running.nodes(times, x, u)
        far_w, near_w, far, near = kernel_cell_weights(grid, term.v, 0, n,
                                                       "upper")
        with np.errstate(all="ignore"):
            cells += (far_w * g[far] + near_w * g[near]) / gamma(term.v)
    total = np.append(cells, terminal_value(pi, grid.tf, x[-1]))
    with np.errstate(all="ignore"):
        return np.cumsum(total[::-1])[::-1]
