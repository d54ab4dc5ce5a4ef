"""Linear-programming toolkit: model construction, solving, and rounding."""

from .model import (
    LpModel,
    LpSolution,
    build_model,
    pruned_view,
    verify_solution,
    write_lp_file,
)
from .rounding import round_irp, round_tkr
from .simplex import SimplexResult, solve_simplex
from .solve import DEFAULT_NODE_CAP, ENGINES, solve, solve_blp

__all__ = [
    "LpModel",
    "LpSolution",
    "build_model",
    "pruned_view",
    "verify_solution",
    "write_lp_file",
    "round_irp",
    "round_tkr",
    "SimplexResult",
    "solve_simplex",
    "DEFAULT_NODE_CAP",
    "ENGINES",
    "solve",
    "solve_blp",
]
