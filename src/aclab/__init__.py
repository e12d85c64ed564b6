"""aclab: a numerical laboratory for critical points of the Allen-Cahn
energy under Neumann boundary conditions, with the geometric-measure-theory
diagnostics of their sharp-interface limits."""

__version__ = "0.1.0"

from .potential import DoubleWell, compute_h0
from .geometry import Domain, build_domain, signed_distance
from .solver import Field, Solution, epsilon_sweep, solve_single
from .varifold import DiscreteVarifold, build_varifold

__all__ = [
    "DoubleWell", "compute_h0",
    "Domain", "build_domain", "signed_distance",
    "Field", "Solution", "epsilon_sweep", "solve_single",
    "DiscreteVarifold", "build_varifold",
]
