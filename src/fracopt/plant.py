"""Caputo-dynamics plant description."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DomainError
from .expansion import as_evaluator, central_difference


@dataclass(frozen=True)
class FractionalPlant:
    """A controlled system x^(q) = f(t, x, u) in the Caputo sense.

    orders holds one differentiation order per state component, each in
    (0, 1).  rhs maps (t, x, u) to the state-rate vector.  t0 is both the
    initial time and the memory anchor of every fractional operator.
    rhs_jacobian maps (t, x, u) to d rhs/dx, row i holding the partials of
    rhs component i; without it, rhs_x takes central differences of rhs.
    Python callables are wrapped once, here (expansion.as_evaluator):
    rhs.nodes and rhs_x apply them row by row (expansion.node_evaluator).
    """

    orders: tuple
    rhs: Callable[[float, np.ndarray, np.ndarray], np.ndarray] = field(repr=False)
    x0: np.ndarray = field(repr=False)
    n_controls: int
    t0: float = 0.0
    rhs_jacobian: Optional[Callable] = field(default=None, repr=False)

    def __post_init__(self):
        orders = tuple(float(q) for q in self.orders)
        for q in orders:
            if not 0 < q < 1:
                raise DomainError(f"dynamics order must lie in (0,1), got {q}")
        x0 = np.asarray(self.x0, dtype=float).reshape(-1)
        if x0.shape[0] != len(orders):
            raise DomainError("one initial value per state component required")
        if not np.isfinite(x0).all():
            raise DomainError(f"initial state must be finite, got {x0}")
        if self.n_controls < 1:
            raise DomainError("plant needs at least one control input")
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "t0", float(self.t0))
        object.__setattr__(self, "rhs", as_evaluator(self.rhs, len(orders)))
        if self.rhs_jacobian is not None:
            object.__setattr__(self, "rhs_jacobian",
                               as_evaluator(self.rhs_jacobian))

    @property
    def n_states(self) -> int:
        return len(self.orders)

    def rhs_x(self, t: np.ndarray, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        """d rhs/dx at every row of node arrays t, x and u: shape
        (N, n, n)."""
        if self.rhs_jacobian is None:
            return central_difference(lambda xv: self.rhs.nodes(t, xv, u), x)
        return self.rhs_jacobian.nodes(t, x, u)
