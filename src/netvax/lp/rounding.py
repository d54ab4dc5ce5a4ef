"""Rounding procedures turning relaxed LP scores into vaccination sets."""

from __future__ import annotations

import numpy as np

from ..errors import CapacityError, ParameterError
from ..spread import ProblemInstance, VaccinationSet
from .model import LpSolution, build_model
from .solve import solve

# Fractional scores at or below this are treated as zero when ranking.
SCORE_EPS = 1e-9


def _ranked(instance: ProblemInstance, scores) -> list[int]:
    """The candidates by falling score, then falling out-degree, then index."""
    nodes = np.array(instance.candidates(), dtype=np.intp)
    degree = np.bincount(instance.graph.src, minlength=instance.n)[nodes]
    return nodes[np.lexsort((nodes, -degree, -np.asarray(scores)[nodes]))].tolist()


def round_tkr(relaxed_solution: LpSolution, instance: ProblemInstance) -> VaccinationSet:
    """Top-k rounding: vaccinate the k highest fractional vaccination scores.

    Candidates with a nonzero score are ranked by score, then out-degree,
    then index; when fewer than k nodes scored, the remainder is filled by
    (out-degree, index) over the zero-score non-infected nodes.
    """
    if relaxed_solution.status != "optimal":
        raise ParameterError(f"need an optimal relaxed solution, got {relaxed_solution.status}")
    n = instance.n
    s = len(instance.topologies)
    values = relaxed_solution.values
    if len(values) != n * s + n:
        raise ParameterError("solution vector does not match this instance's variable layout")
    scores = np.asarray(values[n * s : n * s + n])
    # scores at or below SCORE_EPS all rank as zero, behind every scored node
    ranked = _ranked(instance, np.where(scores > SCORE_EPS, scores, 0.0))
    return VaccinationSet(frozenset(ranked[: instance.k]))


def round_irp(
    instance: ProblemInstance, engine: str = "highs"
) -> VaccinationSet:
    """Iterative rounding: re-solve the relaxed LP, pinning one node per round.

    Each round picks the unpinned non-infected node with the highest
    vaccination score (ties by out-degree, then index) and adds an I = 1
    pin before the next solve, until the budget is exhausted.  A round whose
    solve is not optimal raises CapacityError.
    """
    chosen: list[int] = []
    for iteration in range(instance.k):
        model = build_model(instance, relaxed=True, pinned_ones=chosen)
        solution = solve(model, engine=engine)
        if solution.status != "optimal":
            raise CapacityError(
                f"iterative rounding failed at iteration {iteration}: {solution.status}"
            )
        ranked = _ranked(instance, model.i_values(solution.values))
        taken = set(chosen)
        chosen.append(next(j for j in ranked if j not in taken))
    return VaccinationSet(frozenset(chosen))
