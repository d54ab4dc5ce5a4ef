"""Vaccination-set search heuristics: greedy, local search, hill climbing.

All three optimize the total saved count over the instance's topology
samples.  Local search only swaps a selected node for one of its graph
neighbors and commits the best accumulated swap once per pass; hill climbing
considers every (selected, outside) exchange and applies the single best
strictly improving one per iteration.

Both swap searches share one scan.  Per pass they ask the evaluator once per
selected node v for the totals of every swap that removes v.  With the
``structural`` evaluators, on LT and IC alike, that is one gains computation
on S - {v}, so a pass costs |S| gains calls; with ``bfs`` every swapped set
is still evaluated literally.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError
from .fastpath import make_evaluator
from .spread import ProblemInstance, VaccinationSet, avg_saved


@dataclass(frozen=True)
class SolverResult:
    vaccination: VaccinationSet
    avg_saved: float
    per_topology_saved: tuple[int, ...]
    wall_time: float
    iterations: int
    algorithm: str


def _as_nodes(S) -> frozenset[int]:
    if isinstance(S, VaccinationSet):
        return S.nodes
    return frozenset(int(v) for v in S)


def _check_start(instance: ProblemInstance, S0: frozenset[int]) -> None:
    overlap = S0 & instance.infected
    if overlap:
        raise ContractViolationError(f"start set vaccinates infected nodes {sorted(overlap)}")
    if len(S0) > instance.k:
        raise ContractViolationError(f"start set size {len(S0)} exceeds budget {instance.k}")
    if any(not 0 <= v < instance.n for v in S0):
        raise ContractViolationError("start set references nodes outside the graph")


def _finish(instance, S, t0, iterations, algorithm) -> SolverResult:
    result = avg_saved(instance, S)
    return SolverResult(
        vaccination=VaccinationSet(frozenset(S)),
        avg_saved=result.avg_saved,
        per_topology_saved=result.per_topology_saved,
        wall_time=time.perf_counter() - t0,
        iterations=iterations,
        algorithm=algorithm,
    )


def greedy(instance: ProblemInstance, evaluation: str = "bfs") -> SolverResult:
    """Add min(k, n - |infected|) nodes, each maximizing the total saved gain.

    Ties go to the lowest node index; a node is added even when every
    remaining gain is zero, so the budget is always used in full.
    """
    t0 = time.perf_counter()
    evaluator = make_evaluator(instance, evaluation)
    target = min(instance.k, instance.n - len(instance.infected))
    S: set[int] = set()
    for _ in range(target):
        gains = evaluator.gains(S)
        S.add(int(np.argmax(gains)))
    return _finish(instance, S, t0, target, "greedy")


def greedy_trajectory(
    instance: ProblemInstance, budgets, evaluation: str = "bfs"
) -> dict[int, SolverResult]:
    """Greedy results for several budgets from one selection pass.

    The greedy selection order does not depend on the budget (each step only
    looks at the current set), so the result at budget k equals running
    ``greedy`` on a budget-k instance; one pass to max(budgets) covers all.
    """
    ks = sorted({int(k) for k in budgets})
    limit = min(instance.k, instance.n - len(instance.infected))
    if ks and not (0 <= ks[0] and ks[-1] <= limit):
        raise ContractViolationError(f"budgets must lie in [0, {limit}]")
    t0 = time.perf_counter()
    evaluator = make_evaluator(instance, evaluation)
    S: set[int] = set()
    results: dict[int, SolverResult] = {}
    if ks and ks[0] == 0:
        results[0] = _finish(instance, S, t0, 0, "greedy")
    for step in range(1, (ks[-1] if ks else 0) + 1):
        gains = evaluator.gains(S)
        S.add(int(np.argmax(gains)))
        if step in ks:
            results[step] = _finish(instance, S, t0, step, "greedy")
    return results


def _swap_search(instance, S0, evaluation, algorithm, replacements) -> SolverResult:
    """Best-improvement swap passes, shared by local search and hill climbing.

    A pass scans the swaps (v, w) of its starting set S, v ascending and then
    w ascending over ``replacements(v)`` outside S and the infected set, and
    keeps the first swap whose total beats every earlier one and S itself.
    The pass commits that swap; a pass without one ends the search.  The
    totals for one v come from a single ``totals_with(S - {v}, ...)`` call.
    """
    t0 = time.perf_counter()
    S = _as_nodes(S0)
    _check_start(instance, S)
    evaluator = make_evaluator(instance, evaluation)
    infected = instance.infected
    passes = 0
    while True:
        passes += 1
        best = None
        best_value = evaluator.total_saved(S)
        for v in sorted(S):
            ws = [w for w in replacements(v) if w not in S and w not in infected]
            if not ws:
                continue
            rest = S - {v}
            for w, value in zip(ws, evaluator.totals_with(rest, ws)):
                if value > best_value:
                    best = rest | {w}
                    best_value = value
        if best is None:
            break
        S = best
    return _finish(instance, S, t0, passes, algorithm)


def local_search(instance: ProblemInstance, S0, evaluation: str = "bfs") -> SolverResult:
    """Improve S0 by neighbor swaps until a full pass finds no improvement.

    Within a pass every (v in S, v' adjacent to v in the source graph) swap of
    the pass's starting set is compared against the running best; the best is
    committed at pass end.  Only strictly improving swaps are accepted, so the
    result never scores below S0 and termination is guaranteed.
    """
    return _swap_search(instance, S0, evaluation, "ls", instance.graph.neighbors)


def hill_climb(instance: ProblemInstance, S0, evaluation: str = "bfs") -> SolverResult:
    """Repeatedly apply the single best strictly improving unrestricted swap.

    Unlike local search the replacement node can be any non-infected node, so
    the neighborhood is larger and convergence is slower.
    """
    return _swap_search(instance, S0, evaluation, "hc", lambda v: range(instance.n))
