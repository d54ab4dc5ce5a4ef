"""LP solving and exact branch & bound over the vaccination indicators.

Two interchangeable relaxed-LP engines: ``highs`` (scipy's HiGHS interface,
the default) and ``simplex`` (the built-in tableau solver, for desk-scale
models and cross-checks).  Binary models are solved exactly by branch and
bound: solve the root LP once, round it to an incumbent, branch on the most
fractional vaccination variable, explore in best-bound order with
depth-first tie-breaks, and stop at ``node_cap`` nodes with a capacity
status that keeps the best set found.

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
    # HiGHS rejects a model with no columns; the simplex answers it
    if engine == "highs" and len(c):
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
    else:
        res = solve_simplex(c, A, rhs, eq, lo, hi)
        if res.status == "unbounded":
            raise RuntimeError("unbounded LP; infection models are box-bounded")
        if res.status != "optimal":
            return res.status, None, None
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
    int_vars = np.array(sorted(model.integral), dtype=np.int64)
    i_base = model.s * model.n
    # seeds are never vaccinated; pinned nodes always are
    must0 = set((i_base + model.infected).tolist())
    must1 = frozenset((i_base + model.pins).tolist())

    def node_lp(fixed0, fixed1):
        view = pruned_view(model, [v - i_base for v in fixed1])
        return _solve_relaxed(model, engine, *_bounds_for(model, fixed0, fixed1), view)

    root = status, values, objective = node_lp((), ())
    incumbent, incumbent_obj = None, float("inf")
    heap = []
    if status == "optimal":
        # Root dive: round the relaxation to a feasible assignment for an early
        # incumbent, which lets best-bound search prune aggressively.
        free = model.integral - must0 - must1
        room = max(model.budget - len(must1), 0)
        dive1 = must1.union(sorted(free, key=lambda v: (-values[v], v))[:room])
        st, vals, obj = node_lp(model.integral - dive1, dive1)
        if st == "optimal":
            incumbent, incumbent_obj = vals, obj
        heap.append((objective, 0, 0, frozenset(), frozenset()))
    counter = pops = 0
    while heap:
        bound, negdepth, _, fixed0, fixed1 = heapq.heappop(heap)
        if bound >= incumbent_obj - _PRUNE_TOL:
            break  # best-bound order: every remaining node is at least as bad
        pops += 1
        if pops > node_cap:
            status = "capacity"
            break
        # the root is the first node popped, and its LP is solved already
        st, vals, obj = root if pops == 1 else node_lp(fixed0, fixed1)
        if st != "optimal" or obj >= incumbent_obj - _PRUNE_TOL:
            continue
        frac = np.minimum(vals[int_vars], 1.0 - vals[int_vars])
        if not frac.size or frac.max() <= _INT_TOL:
            incumbent, incumbent_obj = vals, obj
            continue
        # most fractional, lowest index on ties
        branch_var = int(int_vars[np.argmax(frac)])
        depth = 1 - negdepth
        counter += 1
        heapq.heappush(heap, (obj, -depth, counter, fixed0 | {branch_var}, fixed1))
        if len(fixed1 | must1) < model.budget:
            counter += 1
            heapq.heappush(heap, (obj, -depth, counter, fixed0, fixed1 | {branch_var}))

    if incumbent is None:
        if status == "optimal":  # the root LP solved, but no node was integral
            status = "infeasible"
        incumbent, incumbent_obj = (), float("nan")
    return LpSolution(status=status, values=tuple(incumbent), objective=incumbent_obj)


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
    # the incumbent's values, also on capacity; none when no set was feasible
    ivals = model.i_values(solution.values)
    return VaccinationSet(frozenset(j for j, v in enumerate(ivals) if v > 0.5)), solution
