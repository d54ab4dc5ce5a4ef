"""Vaccination-set search heuristics: greedy, local search, hill climbing.

All three optimize the total saved count over the instance's topology
samples.  Local search only swaps a selected node for one of its graph
neighbors and commits the best accumulated swap once per pass; hill climbing
considers every (selected, outside) exchange and applies the single best
strictly improving one per iteration.

Both swap searches share one scan.  A search totals its start set once.
Per pass it asks the evaluator once for the totals of every swap of S,
with the allowed replacements of each selected node as one row of a
boolean mask, and the committed swap's total is the next pass's bar.
Every solver reads its final per-topology counts off the same evaluator,
which answers every query from its own counts (see ``fastpath``).

Each solver gets its evaluator from ``make_evaluator``, which returns the one
it built last while the topology set and graph are the same objects, the
infected set is equal and the mode is the same.  Greedy, local search and
hill climbing on one instance, or on its copies with another ``k``, thus
share one evaluator, built by the first of them to run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError
from .fastpath import make_evaluator
from .spread import ProblemInstance, SpreadResult, VaccinationSet, checked_nodes
from .spread import avg_saved  # noqa: F401  unused here; the benchmark's tracer wraps it by this name


@dataclass(frozen=True)
class SolverResult:
    vaccination: VaccinationSet
    avg_saved: float
    per_topology_saved: tuple[int, ...]
    wall_time: float
    iterations: int
    algorithm: str


def _finish(instance, evaluator, S, t0, iterations, algorithm) -> SolverResult:
    counts = evaluator.per_topology_saved(S)
    result = SpreadResult.from_counts(instance.n, counts, instance.topologies.mu)
    return SolverResult(
        vaccination=VaccinationSet(frozenset(S)),
        avg_saved=result.avg_saved,
        per_topology_saved=result.per_topology_saved,
        wall_time=time.perf_counter() - t0,
        iterations=iterations,
        algorithm=algorithm,
    )


def greedy(instance: ProblemInstance, evaluation: str = "bfs") -> SolverResult:
    """Add k nodes, each maximizing the total saved gain.

    Ties go to the lowest node index; a node is added even when every
    remaining gain is zero, so the budget is always used in full.
    """
    return greedy_trajectory(instance, [instance.k], evaluation)[instance.k]


def greedy_trajectory(
    instance: ProblemInstance, budgets, evaluation: str = "bfs"
) -> dict[int, SolverResult]:
    """Greedy results for several budgets from one selection pass.

    The greedy selection order does not depend on the budget (each step only
    looks at the current set), so the result at budget k equals running
    ``greedy`` on a budget-k instance; one pass to max(budgets) covers all.
    Each result's ``wall_time`` is the time the pass took to reach its k.
    """
    ks = sorted({int(k) for k in budgets})
    if ks and not (0 <= ks[0] and ks[-1] <= instance.k):
        raise ContractViolationError(f"budgets must lie in [0, {instance.k}]")
    t0 = time.perf_counter()
    evaluator = make_evaluator(instance, evaluation)
    S: set[int] = set()
    results: dict[int, SolverResult] = {}
    if ks and ks[0] == 0:
        results[0] = _finish(instance, evaluator, S, t0, 0, "greedy")
    for step in range(1, (ks[-1] if ks else 0) + 1):
        gains = evaluator.gains(S)
        S.add(int(np.argmax(gains)))
        if step in ks:
            results[step] = _finish(instance, evaluator, S, t0, step, "greedy")
    return results


def _swap_search(instance, S0, evaluation, algorithm, replacements) -> SolverResult:
    """Best-improvement swap passes, shared by local search and hill climbing.

    A pass scans the swaps (v, w) of its starting set S, v ascending and then
    w ascending over the replacements of v outside S and the infected set,
    and keeps the first swap whose total beats every earlier one and S
    itself.  The pass commits that swap; a pass without one ends the search.
    The totals of a pass come from one ``swap_totals`` call, whose first
    maximum in row-major order is that swap.  ``replacements(instance,
    nodes)`` is its mask: row i marks the replacements of ``nodes[i]``.

    S is totalled once.  Every evaluator reduces the same integer counts
    through ``weighted_total``, so the committed swap's entry is the float
    that ``total_saved`` would give for the new S, and it is carried over.
    """
    t0 = time.perf_counter()
    S = checked_nodes(S0, instance.n, instance.infected, instance.k)
    evaluator = make_evaluator(instance, evaluation)
    current = evaluator.total_saved(S)
    passes = 0
    while True:
        passes += 1
        nodes = sorted(S)
        totals = evaluator.swap_totals(S, replacements(instance, nodes))
        if not totals.size:
            break
        i, w = np.unravel_index(np.argmax(totals), totals.shape)
        if not totals[i, w] > current:
            break
        S = (S - {nodes[i]}) | {int(w)}
        current = totals[i, w]
    return _finish(instance, evaluator, S, t0, passes, algorithm)


def _graph_neighbors(instance, nodes) -> np.ndarray:
    """Row i marks the graph neighbours, in or out, of ``nodes[i]``."""
    graph, n = instance.graph, instance.n
    row = np.full(n, -1, dtype=np.intp)
    row[nodes] = np.arange(len(nodes))
    allowed = np.zeros((len(nodes), n), dtype=bool)
    for a, b in ((graph.src, graph.dst), (graph.dst, graph.src)):
        hit = row[a] >= 0
        allowed[row[a[hit]], b[hit]] = True
    return allowed


def _every_node(instance, nodes) -> np.ndarray:
    """Every row marks every node."""
    return np.ones((len(nodes), instance.n), dtype=bool)


def local_search(instance: ProblemInstance, S0, evaluation: str = "bfs") -> SolverResult:
    """Improve S0 by neighbor swaps until a full pass finds no improvement.

    Within a pass every (v in S, v' adjacent to v in the source graph) swap of
    the pass's starting set is compared against the running best; the best is
    committed at pass end.  Only strictly improving swaps are accepted, so the
    result never scores below S0 and termination is guaranteed.
    """
    return _swap_search(instance, S0, evaluation, "ls", _graph_neighbors)


def hill_climb(instance: ProblemInstance, S0, evaluation: str = "bfs") -> SolverResult:
    """Repeatedly apply the single best strictly improving unrestricted swap.

    Unlike local search the replacement node can be any non-infected node, so
    the neighborhood is larger and convergence is slower.
    """
    return _swap_search(instance, S0, evaluation, "hc", _every_node)
