"""Caputo-dynamics plant description."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import DomainError
from .expansion import central_difference, over_nodes


@dataclass(frozen=True)
class FractionalPlant:
    """A controlled system x^(q) = f(t, x, u) in the Caputo sense.

    orders holds one differentiation order per state component, each in
    (0, 1).  rhs maps (t, x, u) to the state-rate vector.  t0 is both the
    initial time and the memory anchor of every fractional operator.
    rhs_jacobian maps (t, x, u) to d rhs/dx, row i holding the partials of
    rhs component i; without it, rhs_x takes central differences of rhs.
    Over node arrays, rhs_nodes and rhs_x apply them at every row
    (expansion.over_nodes).
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
        if self.n_controls < 1:
            raise DomainError("plant needs at least one control input")
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "t0", float(self.t0))

    @property
    def n_states(self) -> int:
        return len(self.orders)

    @cached_property
    def rhs_nodes(self) -> Callable:
        """rhs at every row of node arrays t (N,), x (N, n), u (N, m)."""
        return over_nodes(self.rhs)

    @cached_property
    def _jacobian_nodes(self) -> Callable:
        return over_nodes(self.rhs_jacobian)

    def rhs_x(self, t: np.ndarray, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        """d rhs/dx at every row of node arrays t, x and u: shape
        (N, n, n)."""
        if self.rhs_jacobian is None:
            return central_difference(lambda xv: self.rhs_nodes(t, xv, u), x)
        return self._jacobian_nodes(t, x, u)
