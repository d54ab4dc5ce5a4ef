"""LP solving and exact branch & bound over the vaccination indicators.

Two interchangeable relaxed-LP engines: ``highs`` (scipy's HiGHS interface,
the default) and ``simplex`` (the built-in tableau solver, for desk-scale
models and cross-checks).  Binary models are solved exactly by branch and
bound: branch on the most fractional vaccination variable, explore in
best-bound order with depth-first tie-breaks, and stop at ``node_cap``
nodes with a capacity status.

Every simplex solve and every branch-and-bound node LP runs on the
reachability-pruned view of ``pruned_view``; relaxed HiGHS solves keep the
full model.
"""

from __future__ import annotations

import heapq

import numpy as np
from scipy.optimize import linprog

from ..errors import ParameterError
from ..spread import ProblemInstance, VaccinationSet
from .model import LpModel, LpSolution, build_model, pruned_view
from .simplex import solve_simplex

DEFAULT_NODE_CAP = 1_000_000
_INT_TOL = 1e-6
_PRUNE_TOL = 1e-9

ENGINES = ("highs", "simplex")


def _solve_relaxed(model, engine, lower, upper, view=None):
    """One relaxed solve under the given bounds; returns (status, values, objective).

    With a ``view`` from ``pruned_view`` the engine sees only the kept
    columns and rows, and every dropped column comes back as 0.
    """
    c, A, rhs, eq, lo, hi = model.objective, model.A, model.rhs, model.eq, lower, upper
    if view is not None:
        cols, rows = view
        c, A, rhs, eq, lo, hi = c[cols], A[rows][:, cols], rhs[rows], eq[rows], lo[cols], hi[cols]
    if engine == "highs":
        res = linprog(
            c,
            A_ub=A[~eq],
            b_ub=rhs[~eq],
            A_eq=A[eq],
            b_eq=rhs[eq],
            bounds=np.column_stack([lo, hi]),
            method="highs",
        )
        if res.status == 2:
            return "infeasible", None, None
        if res.status != 0:
            return "capacity", None, None
    elif engine == "simplex":
        res = solve_simplex(c, A, rhs, eq, lo, hi)
        if res.status == "unbounded":
            raise RuntimeError("unbounded LP; infection models are box-bounded")
        if res.status != "optimal":
            return res.status, None, None
    else:
        raise ParameterError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    if view is None:
        values = res.x
    else:
        values = np.zeros(model.num_vars)
        values[view[0]] = res.x
    values = np.clip(values, lower, upper)
    return "optimal", values, float(np.dot(model.objective, values))


def _bounds_for(model, fixed0, fixed1):
    lower = model.lower.copy()
    upper = model.upper.copy()
    if fixed0:
        upper[list(fixed0)] = 0.0
    if fixed1:
        lower[list(fixed1)] = 1.0
    return lower, upper


def _branch_and_bound(model: LpModel, engine: str, node_cap: int) -> LpSolution:
    int_vars = sorted(model.integral)
    i_base = model.s * model.n
    # seeds are never vaccinated; pinned nodes always are
    must0 = set((i_base + model.infected).tolist())
    must1 = set((i_base + model.pins).tolist())

    def node_lp(fixed0, fixed1):
        view = pruned_view(model, [v - i_base for v in fixed1])
        return _solve_relaxed(model, engine, *_bounds_for(model, fixed0, fixed1), view)

    status, values, objective = node_lp((), ())
    if status != "optimal":
        return LpSolution(status=status, values=(), objective=float("nan"))

    incumbent_values = None
    incumbent_obj = float("inf")

    def try_integral_assignment(assignment1: set[int]):
        nonlocal incumbent_values, incumbent_obj
        fixed1 = frozenset(assignment1 | must1)
        fixed0 = frozenset(v for v in int_vars if v not in fixed1)
        st, vals, obj = node_lp(fixed0, fixed1)
        if st == "optimal" and obj < incumbent_obj:
            incumbent_values, incumbent_obj = vals, obj

    # Root dive: round the relaxation to a feasible assignment for an early
    # incumbent, which lets best-bound search prune aggressively.
    free = [v for v in int_vars if v not in must0 and v not in must1]
    scores = sorted(free, key=lambda v: (-values[v], v))
    room = max(model.budget - len(must1), 0)
    try_integral_assignment(set(scores[:room]))

    counter = 0
    heap = [(objective, 0, counter, frozenset(), frozenset())]
    pops = 0
    while heap:
        bound, negdepth, _, fixed0, fixed1 = heapq.heappop(heap)
        if bound >= incumbent_obj - _PRUNE_TOL:
            break  # best-bound order: every remaining node is at least as bad
        pops += 1
        if pops > node_cap:
            return LpSolution(
                status="capacity",
                values=tuple() if incumbent_values is None else tuple(incumbent_values),
                objective=incumbent_obj if incumbent_values is not None else float("nan"),
            )
        status, values, objective = node_lp(fixed0, fixed1)
        if status != "optimal" or objective >= incumbent_obj - _PRUNE_TOL:
            continue
        branch_var = -1
        branch_frac = _INT_TOL
        for v in int_vars:
            frac = min(values[v], 1.0 - values[v])
            if frac > branch_frac:
                branch_var = v
                branch_frac = frac
        if branch_var < 0:
            incumbent_values, incumbent_obj = values, objective
            continue
        depth = -negdepth + 1
        counter += 1
        heapq.heappush(heap, (objective, -depth, counter, fixed0 | {branch_var}, fixed1))
        if len(fixed1 | must1) < model.budget:
            counter += 1
            heapq.heappush(heap, (objective, -depth, counter, fixed0, fixed1 | {branch_var}))

    if incumbent_values is None:
        return LpSolution(status="infeasible", values=(), objective=float("nan"))
    return LpSolution(
        status="optimal", values=tuple(incumbent_values), objective=incumbent_obj
    )


def solve(model: LpModel, engine: str = "highs", node_cap: int = DEFAULT_NODE_CAP) -> LpSolution:
    """Solve a model: plain LP when relaxed, exact branch & bound when binary."""
    if engine not in ENGINES:
        raise ParameterError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    if model.integral:
        return _branch_and_bound(model, engine, node_cap)
    # HiGHS keeps the full model: on the view it can return another optimal
    # vertex, and the rounding that reads the vertex would pick another set
    view = pruned_view(model) if engine == "simplex" else None
    status, values, objective = _solve_relaxed(model, engine, *_bounds_for(model, (), ()), view)
    if status != "optimal":
        return LpSolution(status=status, values=(), objective=float("nan"))
    return LpSolution(status="optimal", values=tuple(values), objective=objective)


def solve_blp(
    instance: ProblemInstance, engine: str = "highs", node_cap: int = DEFAULT_NODE_CAP
) -> tuple[VaccinationSet, LpSolution]:
    """Exact sampled-optimal vaccination set via the binary program."""
    model = build_model(instance, relaxed=False)
    solution = solve(model, engine=engine, node_cap=node_cap)
    if solution.status != "optimal":
        return VaccinationSet(frozenset()), solution
    ivals = model.i_values(solution.values)
    S = frozenset(j for j in range(model.n) if ivals[j] > 0.5)
    return VaccinationSet(S), solution
