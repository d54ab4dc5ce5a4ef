"""LP solving and exact branch & bound over the vaccination indicators.

Two interchangeable relaxed-LP engines: ``highs`` (scipy's HiGHS interface,
the default) and ``simplex`` (the built-in tableau solver, for desk-scale
models and cross-checks).  Binary models are solved exactly by branch and
bound: branch on the most fractional vaccination variable, explore in
best-bound order with depth-first tie-breaks, and stop at ``node_cap``
nodes with a capacity status.
"""

from __future__ import annotations

import heapq

import numpy as np
from scipy.optimize import linprog

from ..errors import ParameterError
from ..spread import ProblemInstance, VaccinationSet
from .model import LpModel, LpSolution, build_model
from .simplex import solve_simplex

DEFAULT_NODE_CAP = 1_000_000
_INT_TOL = 1e-6
_PRUNE_TOL = 1e-9

ENGINES = ("highs", "simplex")


def _solve_relaxed(model, engine, lower, upper):
    """One relaxed solve under the given bounds; returns (status, values, objective)."""
    c = model.objective
    if engine == "highs":
        ub, eq = ~model.eq, model.eq
        res = linprog(
            c,
            A_ub=model.A[ub],
            b_ub=model.rhs[ub],
            A_eq=model.A[eq],
            b_eq=model.rhs[eq],
            bounds=np.column_stack([lower, upper]),
            method="highs",
        )
        if res.status == 0:
            values = np.clip(res.x, lower, upper)
            return "optimal", values, float(np.dot(c, values))
        if res.status == 2:
            return "infeasible", None, None
        return "capacity", None, None
    if engine == "simplex":
        res = solve_simplex(c, model.A, model.rhs, model.eq, lower, upper)
        if res.status == "optimal":
            values = np.clip(res.x, lower, upper)
            return "optimal", values, float(np.dot(c, values))
        if res.status == "unbounded":
            raise RuntimeError("unbounded LP; infection models are box-bounded")
        return res.status, None, None
    raise ParameterError(f"unknown engine {engine!r}; expected one of {ENGINES}")


def _pinned_values(model: LpModel) -> tuple[set[int], set[int]]:
    """Integral variables forced to 0 or 1 by singleton equality rows."""
    A = model.A
    single = np.flatnonzero(model.eq & (np.diff(A.indptr) == 1))
    var = A.indices[A.indptr[single]]
    coef = A.data[A.indptr[single]]
    keep = (coef != 0.0) & np.isin(var, list(model.integral))
    var, val = var[keep], model.rhs[single][keep] / coef[keep]
    must0 = {int(v) for v in var[np.abs(val) <= _INT_TOL]}
    must1 = {int(v) for v in var[np.abs(val - 1.0) <= _INT_TOL]}
    return must0, must1


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
    must0, must1 = _pinned_values(model)

    lower, upper = _bounds_for(model, (), ())
    status, values, objective = _solve_relaxed(model, engine, lower, upper)
    if status != "optimal":
        return LpSolution(status=status, values=(), objective=float("nan"))

    incumbent_values = None
    incumbent_obj = float("inf")

    def try_integral_assignment(assignment1: set[int]):
        nonlocal incumbent_values, incumbent_obj
        fixed1 = frozenset(assignment1 | must1)
        fixed0 = frozenset(v for v in int_vars if v not in fixed1)
        lo, hi = _bounds_for(model, fixed0, fixed1)
        st, vals, obj = _solve_relaxed(model, engine, lo, hi)
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
        lo, hi = _bounds_for(model, fixed0, fixed1)
        status, values, objective = _solve_relaxed(model, engine, lo, hi)
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
    lower, upper = _bounds_for(model, (), ())
    status, values, objective = _solve_relaxed(model, engine, lower, upper)
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
