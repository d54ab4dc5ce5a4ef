"""Rounding procedures turning relaxed LP scores into vaccination sets."""

from __future__ import annotations

from ..errors import ParameterError
from ..spread import ProblemInstance, VaccinationSet
from .model import LpSolution, build_model
from .solve import solve

# Fractional scores at or below this are treated as zero when ranking.
SCORE_EPS = 1e-9


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
    scores = values[n * s : n * s + n]
    graph = instance.graph
    k = instance.k
    scored = [j for j in instance.candidates() if scores[j] > SCORE_EPS]
    scored.sort(key=lambda j: (-scores[j], -graph.out_degree(j), j))
    chosen = scored[:k]
    if len(chosen) < k:
        taken = set(chosen)
        rest = [j for j in instance.candidates() if j not in taken and scores[j] <= SCORE_EPS]
        rest.sort(key=lambda j: (-graph.out_degree(j), j))
        chosen.extend(rest[: k - len(chosen)])
    return VaccinationSet(frozenset(chosen))


def round_irp(
    instance: ProblemInstance, engine: str = "highs"
) -> VaccinationSet:
    """Iterative rounding: re-solve the relaxed LP, pinning one node per round.

    Each round picks the unpinned non-infected node with the highest
    vaccination score (ties by out-degree, then index) and adds an I = 1
    pin before the next solve, until the budget is exhausted.
    """
    graph = instance.graph
    chosen: list[int] = []
    for iteration in range(instance.k):
        model = build_model(instance, relaxed=True, pinned_ones=chosen)
        solution = solve(model, engine=engine)
        if solution.status != "optimal":
            raise RuntimeError(
                f"iterative rounding failed at iteration {iteration}: {solution.status}"
            )
        scores = model.i_values(solution.values)
        taken = set(chosen)
        best = None
        for j in instance.candidates():
            if j in taken:
                continue
            key = (-scores[j], -graph.out_degree(j), j)
            if best is None or key < best[0]:
                best = (key, j)
        assert best is not None
        chosen.append(best[1])
    return VaccinationSet(frozenset(chosen))
