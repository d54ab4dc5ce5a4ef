"""Self-contained two-phase primal simplex with bounded variables.

Dense tableau, Bland's anti-cycling rule, nonbasic variables allowed at
either bound.  Intended for desk-scale models and as an independent
cross-check of the default HiGHS engine.  ``_MAX_ITER`` caps the pivots of
a solve, which turns a runaway instance into a ``capacity`` status instead
of a hang.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import issparse

from ..errors import ParameterError

_TOL = 1e-9
_FEAS_TOL = 1e-7
_MAX_ITER = 200_000

_AT_LO, _AT_UP, _BASIC = 0, 1, 2


@dataclass
class SimplexResult:
    status: str  # optimal | infeasible | unbounded | capacity
    x: np.ndarray | None
    objective: float | None
    iterations: int


def solve_simplex(c, A, rhs, eq, lower, upper) -> SimplexResult:
    """Minimize ``c @ x`` subject to ``A[r] @ x == rhs[r]`` where ``eq[r]``,
    ``A[r] @ x <= rhs[r]`` elsewhere, and ``lower <= x <= upper``.

    ``A`` is a dense or scipy-sparse (rows x variables) matrix.
    """
    c = np.asarray(c, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    nv = c.size
    if not np.all(np.isfinite(lower)):
        raise ParameterError("simplex requires finite lower bounds")
    if np.any(upper < lower - _TOL):
        return SimplexResult("infeasible", None, None, 0)

    A = A.toarray() if issparse(A) else np.asarray(A, dtype=float)
    eq = np.asarray(eq, dtype=bool)
    m = A.shape[0]
    # shift to y = x - lower so every variable has lower bound 0
    b = np.asarray(rhs, dtype=float) - A @ lower
    u_struct = upper - lower

    # one +1 slack column per <= row, in row order; rows with b < 0 are
    # negated, and a row starts with its slack basic only if that slack
    # stays +1, otherwise with a +1 artificial column of its own
    slack_rows = np.flatnonzero(~eq)
    ns = len(slack_rows)
    flip = b < 0.0
    art_rows = np.flatnonzero(eq | flip)
    na = len(art_rows)
    total = nv + ns + na
    art_start = nv + ns
    T = np.zeros((m, total))
    T[:, :nv] = A
    T[slack_rows, nv + np.arange(ns)] = 1.0
    T[flip, :art_start] *= -1.0
    b[flip] = -b[flip]
    T[art_rows, art_start + np.arange(na)] = 1.0

    basis = np.full(m, -1, dtype=int)
    basis[slack_rows] = nv + np.arange(ns)
    basis[art_rows] = art_start + np.arange(na)
    u = np.concatenate([u_struct, np.full(ns + na, np.inf)])

    status = np.zeros(total, dtype=np.int8)
    if m:
        status[basis] = _BASIC
    xB = b.copy()
    eligible = np.ones(total, dtype=bool)
    iterations = 0

    def reduced_costs(cost: np.ndarray) -> np.ndarray:
        z = cost.copy()
        for r in range(m):
            cb = cost[basis[r]]
            if cb != 0.0:
                z -= cb * T[r]
        return z

    def run_phase(cost: np.ndarray) -> str:
        nonlocal iterations, xB
        while True:
            if iterations > _MAX_ITER:
                return "capacity"
            z = reduced_costs(cost)
            enter = -1
            for col in range(total):
                if status[col] == _BASIC or not eligible[col]:
                    continue
                if status[col] == _AT_LO and z[col] < -_TOL:
                    enter = col
                    break
                if status[col] == _AT_UP and z[col] > _TOL:
                    enter = col
                    break
            if enter < 0:
                return "optimal"
            iterations += 1
            from_up = status[enter] == _AT_UP
            sgn = 1.0 if from_up else -1.0  # xB moves by sgn * t * column
            col_vec = T[:, enter]
            # candidates: (t, blocking var index, row, leaving status)
            best_t = u[enter]
            best_var = enter
            best_row = -1
            best_leave_status = _AT_UP if not from_up else _AT_LO  # for a bound flip
            for r in range(m):
                delta = sgn * col_vec[r]
                bvar = basis[r]
                if delta < -_TOL:  # basic variable decreasing toward 0
                    t = max(xB[r] / (-delta), 0.0)
                    leave_status = _AT_LO
                elif delta > _TOL and np.isfinite(u[bvar]):  # increasing toward its upper bound
                    t = max((u[bvar] - xB[r]) / delta, 0.0)
                    leave_status = _AT_UP
                else:
                    continue
                if t < best_t - _TOL or (t < best_t + _TOL and bvar < best_var):
                    best_t = t
                    best_var = bvar
                    best_row = r
                    best_leave_status = leave_status
            if not np.isfinite(best_t):
                return "unbounded"
            xB += sgn * best_t * col_vec
            if best_row < 0:
                # bound flip: the entering variable hits its other bound
                status[enter] = _AT_UP if not from_up else _AT_LO
                continue
            leaving = basis[best_row]
            basis[best_row] = enter
            status[enter] = _BASIC
            status[leaving] = best_leave_status
            xB[best_row] = (u[enter] - best_t) if from_up else best_t
            piv = T[best_row, enter]
            T[best_row] = T[best_row] / piv
            for r in range(m):
                if r != best_row:
                    factor = T[r, enter]
                    if factor != 0.0:
                        T[r] -= factor * T[best_row]

    if na:
        cost1 = np.zeros(total)
        cost1[art_start:] = 1.0
        outcome = run_phase(cost1)
        if outcome == "capacity":
            return SimplexResult("capacity", None, None, iterations)
        infeas = sum(xB[r] for r in range(m) if basis[r] >= art_start)
        if infeas > _FEAS_TOL:
            return SimplexResult("infeasible", None, None, iterations)
        # pin artificials at 0 and never let them re-enter
        u[art_start:] = 0.0
        eligible[art_start:] = False

    cost2 = np.zeros(total)
    cost2[:nv] = c
    outcome = run_phase(cost2)
    if outcome != "optimal":
        return SimplexResult(outcome, None, None, iterations)

    y = np.zeros(total)
    for col in range(total):
        if status[col] == _AT_UP:
            y[col] = u[col]
    for r in range(m):
        y[basis[r]] = xB[r]
    x = np.clip(y[:nv] + lower, lower, upper)
    return SimplexResult("optimal", x, float(np.dot(c, x)), iterations)
