"""fracopt: fractional optimal control toolkit.

Fractional calculus primitives on uniform grids, a series expansion that
turns Caputo dynamics into an equivalent augmented integer-order system,
a generalized performance index built from fractional integrals of tuning
order, the associated dynamic-programming (HJB-type) equation, and a
forward-backward sweep solver for fixed-final-time problems.
"""

from .cost import (CostTerm, PerformanceIndex, evaluate, running_weight,
                   terminal_index_set, terminal_value)
from .errors import ConfigError, DomainError, SingularTimeError, SweepAbort
from .expansion import (ExpansionCoeffs, TransformedField, advance_moments,
                        derivative_coeff, moment_coeff, moment_factors,
                        series_partial_sum, state_coeff)
from .grid import SampledFunction, TimeGrid
from .hjb import (GridPlan, NodeTable, aggregate_error,
                  minimize_node_hamiltonian, node_hamiltonian)
from .operators import (caputo_derivative, gamma, rl_derivative,
                        rl_integral_left, rl_integral_right)
from .plant import FractionalPlant
from .problem import HJBProblem
from .sweep import (SweepConfig, SweepState, backward_sweep, forward_sweep,
                    solve)

__version__ = "0.1.0"

__all__ = [
    "TimeGrid", "SampledFunction",
    "gamma", "rl_integral_left", "rl_integral_right",
    "caputo_derivative", "rl_derivative",
    "series_partial_sum", "state_coeff", "derivative_coeff", "moment_coeff",
    "ExpansionCoeffs", "moment_factors", "advance_moments", "TransformedField",
    "CostTerm", "PerformanceIndex", "terminal_index_set", "terminal_value",
    "running_weight", "evaluate",
    "FractionalPlant", "HJBProblem",
    "GridPlan", "NodeTable", "node_hamiltonian", "minimize_node_hamiltonian",
    "aggregate_error",
    "SweepConfig", "SweepState", "forward_sweep", "backward_sweep", "solve",
    "DomainError", "SingularTimeError", "SweepAbort", "ConfigError",
]
