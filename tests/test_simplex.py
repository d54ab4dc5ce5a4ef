"""The built-in simplex against scipy's HiGHS on random bounded LPs.

LPs are given as ``(c, A, rhs, eq, lower, upper)``: row r is
``A[r] @ x == rhs[r]`` where ``eq[r]`` and ``A[r] @ x <= rhs[r]`` otherwise;
a ``>=`` row is written as its negated ``<=`` row.
"""

import numpy as np
import pytest
from scipy.optimize import linprog

from netvax.lp.simplex import solve_simplex


def random_lp(rng, nv=6, m=5):
    """Random LP anchored to a feasible interior point (so most are solvable)."""
    c = rng.uniform(-2, 2, nv)
    lower = np.zeros(nv)
    upper = rng.uniform(0.5, 3.0, nv)
    x0 = rng.uniform(lower, upper)
    A = np.zeros((m, nv))
    rhs = np.zeros(m)
    eq = np.zeros(m, dtype=bool)
    for r in range(m):
        idx = rng.choice(nv, size=int(rng.integers(1, 4)), replace=False)
        for i in idx:
            A[r, i] = float(rng.uniform(-2, 2))
        lhs0 = A[r] @ x0
        rel = ["<=", ">=", "="][int(rng.integers(0, 3))]
        slack = float(rng.uniform(0.0, 1.0))
        if rel == "<=":
            rhs[r] = lhs0 + slack
        elif rel == ">=":
            A[r], rhs[r] = -A[r], -(lhs0 - slack)
        else:
            rhs[r], eq[r] = lhs0, True
    return c, A, rhs, eq, lower, upper


def scipy_solve(c, A, rhs, eq, lower, upper):
    return linprog(
        c,
        A_ub=A[~eq],
        b_ub=rhs[~eq],
        A_eq=A[eq],
        b_eq=rhs[eq],
        bounds=list(zip(lower, upper)),
        method="highs",
    )


def residuals(A, rhs, eq, x):
    excess = A @ x - rhs
    return float(np.max(np.where(eq, np.abs(excess), excess), initial=0.0))


def rows(*specs, nv):
    """(coeffs dict, relation, rhs) rows as (A, rhs, eq); ">=" rows are negated."""
    A = np.zeros((len(specs), nv))
    rhs = np.zeros(len(specs))
    eq = np.zeros(len(specs), dtype=bool)
    for r, (coeffs, rel, b) in enumerate(specs):
        sign = -1.0 if rel == ">=" else 1.0
        for i, coef in coeffs.items():
            A[r, i] = sign * coef
        rhs[r], eq[r] = sign * b, rel == "="
    return A, rhs, eq


def test_agrees_with_scipy_on_random_lps():
    rng = np.random.default_rng(7)
    optimal = 0
    for trial in range(60):
        c, A, rhs, eq, lower, upper = random_lp(rng)
        mine = solve_simplex(c, A, rhs, eq, lower, upper)
        ref = scipy_solve(c, A, rhs, eq, lower, upper)
        if ref.status == 2:
            assert mine.status == "infeasible", f"trial {trial}"
        elif ref.status == 0:
            assert mine.status == "optimal", f"trial {trial}"
            assert mine.objective == pytest.approx(ref.fun, abs=1e-7), f"trial {trial}"
            assert residuals(A, rhs, eq, mine.x) < 1e-8
            assert np.all(mine.x >= lower - 1e-9) and np.all(mine.x <= upper + 1e-9)
            optimal += 1
    assert optimal > 20  # the generator should produce plenty of feasible LPs


def test_simple_known_optimum():
    # min -x - 2y, x + y <= 1.5, boxes [0, 1]: optimum at (0.5, 1)
    c = [-1.0, -2.0]
    res = solve_simplex(c, *rows(({0: 1.0, 1: 1.0}, "<=", 1.5), nv=2), [0, 0], [1, 1])
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-2.5)
    assert res.x == pytest.approx([0.5, 1.0])


def test_infeasible_detected():
    res = solve_simplex([1.0], *rows(({0: 1.0}, ">=", 2.0), nv=1), [0.0], [1.0])
    assert res.status == "infeasible"


def test_unbounded_detected():
    res = solve_simplex([-1.0], *rows(nv=1), [0.0], [np.inf])
    assert res.status == "unbounded"


def test_no_constraints_box_optimum():
    res = solve_simplex([1.0, -1.0], *rows(nv=2), [0.0, 0.0], [2.0, 3.0])
    assert res.status == "optimal"
    assert res.x == pytest.approx([0.0, 3.0])


def test_equality_with_upper_bounds():
    # x + y = 1 with y <= 0.25 forces x = 0.75
    res = solve_simplex([1.0, 0.0], *rows(({0: 1.0, 1: 1.0}, "=", 1.0), nv=2), [0.0, 0.0], [1.0, 0.25])
    assert res.status == "optimal"
    assert res.x == pytest.approx([0.75, 0.25])


def test_fixed_variables():
    res = solve_simplex([-1.0, -1.0], *rows(({0: 1.0, 1: 1.0}, "<=", 5.0), nv=2), [0.5, 0.0], [0.5, 1.0])
    assert res.status == "optimal"
    assert res.x == pytest.approx([0.5, 1.0])


def test_degenerate_lp_terminates():
    # many redundant constraints through the origin; Bland's rule must not cycle
    cons = rows(
        ({0: 1.0, 1: -1.0}, "<=", 0.0),
        ({0: 1.0, 1: 1.0}, "<=", 0.0),
        ({0: 2.0, 1: -1.0}, "<=", 0.0),
        ({0: 1.0}, "<=", 0.0),
        nv=2,
    )
    res = solve_simplex([-1.0, 1.0], *cons, [0.0, 0.0], [1.0, 1.0])
    assert res.status == "optimal"
    assert res.objective == pytest.approx(0.0, abs=1e-9)


def test_negative_rhs_rows():
    # -x <= -0.5 (i.e. x >= 0.5) exercises row normalization
    res = solve_simplex([1.0], *rows(({0: -1.0}, "<=", -0.5), nv=1), [0.0], [1.0])
    assert res.status == "optimal"
    assert res.x == pytest.approx([0.5])
