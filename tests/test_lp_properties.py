"""Differential property tests: the HiGHS and simplex engines on one model,
every engine on the reachability-pruned view against the full model,
branch and bound against scipy's MIP solver, and top-k rounding against its
literal two-phase loop."""

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import Bounds, LinearConstraint, milp

from conftest import random_instance

from netvax import IC, LT, ProblemInstance, build_model, enumerate_all, generate_er, infected_on, solve, verify_solution
from netvax.lp import ENGINES, LpSolution, pruned_view, round_tkr, solve_simplex
from netvax.lp.rounding import SCORE_EPS
from netvax.lp.solve import _bounds_for, _solve_relaxed


@settings(max_examples=100)
@given(
    seed=st.integers(0, 2**20),
    model=st.sampled_from([LT, IC]),
    n=st.integers(4, 7),
    s=st.integers(1, 3),
    k=st.integers(0, 3),
    kind=st.sampled_from(["relaxed", "binary", "pinned"]),
    data=st.data(),
)
def test_highs_and_simplex_agree(seed, model, n, s, k, kind, data):
    inst = random_instance(seed, model=model, n=n, p=0.35, s=s, k=k)
    pins = ()
    if kind == "pinned":
        pins = data.draw(st.lists(st.sampled_from(inst.candidates()), max_size=inst.k, unique=True))
    lp = build_model(inst, relaxed=kind != "binary", pinned_ones=pins)
    a = solve(lp, engine="highs")
    b = solve(lp, engine="simplex")
    assert a.status == b.status == "optimal"
    assert a.objective == pytest.approx(b.objective, abs=1e-7)
    assert verify_solution(lp, a.values) == []
    assert verify_solution(lp, b.values) == []


@st.composite
def instances(draw):
    """Small sampled instances, or mu-weighted sets of every topology."""
    seed = draw(st.integers(0, 2**20))
    model = draw(st.sampled_from([LT, IC]))
    n = draw(st.integers(4, 8))
    k = draw(st.integers(0, 3))
    n_infected = draw(st.integers(1, 2))
    if draw(st.booleans()):
        return random_instance(seed, model=model, n=n, p=0.35, s=draw(st.integers(1, 4)), n_infected=n_infected, k=k)
    graph = generate_er(n, 0.2, model, seed)
    assume(graph.m <= 6)  # at most 2^6 enumerated topologies
    infected = frozenset(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n_infected, unique=True)))
    return ProblemInstance(graph, infected, min(k, n - len(infected)), enumerate_all(graph))


def pins_for(inst, data):
    if not inst.candidates():
        return []
    return data.draw(st.lists(st.sampled_from(inst.candidates()), max_size=inst.k, unique=True))


def whole_model(model, vaccinated=()):
    """A view that keeps every column and row, so B&B solves the full model."""
    return np.arange(model.num_vars), np.arange(model.A.shape[0])


@settings(max_examples=150)
@given(inst=instances(), data=st.data())
def test_view_keeps_the_x_columns_of_exactly_the_infected_nodes(inst, data):
    # the spread definition, not a second search, says which x(t, i) the view keeps
    model = build_model(inst, relaxed=True)
    candidates = inst.candidates()
    vaccinated = data.draw(st.lists(st.sampled_from(candidates), unique=True)) if candidates else []
    cols, _ = pruned_view(model, vaccinated)
    expected = [
        model.x_index(t, i)
        for t, topology in enumerate(inst.topologies)
        for i in sorted(infected_on(topology, vaccinated, inst.infected))
    ]
    assert cols[cols < model.s * model.n].tolist() == expected


@settings(max_examples=150)
@given(inst=instances(), data=st.data())
def test_simplex_on_view_returns_the_full_model_vector(inst, data):
    model = build_model(inst, relaxed=True, pinned_ones=pins_for(inst, data))
    cols, rows = pruned_view(model)
    full = solve_simplex(model.objective, model.A, model.rhs, model.eq, model.lower, model.upper)
    view = solve_simplex(
        model.objective[cols], model.A[rows][:, cols], model.rhs[rows], model.eq[rows],
        model.lower[cols], model.upper[cols],
    )
    assert full.status == view.status == "optimal"
    assert view.iterations == full.iterations
    x = np.zeros(model.num_vars)
    x[cols] = view.x
    assert x.tobytes() == full.x.tobytes()
    assert verify_solution(model, x) == []
    solution = solve(model, engine="simplex")
    assert np.asarray(solution.values).tobytes() == full.x.tobytes()


@settings(max_examples=100)
@given(inst=instances(), engine=st.sampled_from(ENGINES), data=st.data())
def test_branch_and_bound_on_view_matches_the_full_model(inst, engine, data):
    model = build_model(inst, relaxed=False, pinned_ones=pins_for(inst, data))
    pruned = solve(model, engine=engine)
    with patch("netvax.lp.solve.pruned_view", whole_model):
        full = solve(model, engine=engine)
    assert pruned.status == full.status
    if full.status == "optimal":
        assert pruned.objective == pytest.approx(full.objective, abs=1e-9)
        assert verify_solution(model, pruned.values) == []


@settings(max_examples=100)
@given(inst=instances(), engine=st.sampled_from(ENGINES), data=st.data())
def test_node_lp_with_vaccinated_nodes_matches_the_full_model(inst, engine, data):
    # a B&B node: the fixed-1 nodes are vaccinated in the view
    model = build_model(inst, relaxed=False)
    fixed1 = pins_for(inst, data)
    lower, upper = _bounds_for(model, (), {model.i_index(j) for j in fixed1})
    full = _solve_relaxed(model, engine, lower, upper)
    pruned = _solve_relaxed(model, engine, lower, upper, pruned_view(model, fixed1))
    assert pruned[0] == full[0] == "optimal"
    assert pruned[2] == pytest.approx(full[2], abs=1e-9)
    assert verify_solution(model, pruned[1]) == []
    assert np.all(pruned[1][model.i_index(np.array(fixed1, dtype=int))] == 1.0)


def milp_solve(model):
    """The binary model solved by ``scipy.optimize.milp``: (status, objective)."""
    integrality = np.zeros(model.num_vars)
    integrality[sorted(model.integral)] = 1
    res = milp(
        model.objective,
        constraints=LinearConstraint(model.A, np.where(model.eq, model.rhs, -np.inf), model.rhs),
        integrality=integrality,
        bounds=Bounds(model.lower, model.upper),
        options={"mip_rel_gap": 0.0},
    )
    assert res.status in (0, 2), res.message
    return ("optimal", res.fun) if res.status == 0 else ("infeasible", None)


@settings(max_examples=100)
@given(inst=instances(), engine=st.sampled_from(ENGINES), data=st.data())
def test_branch_and_bound_matches_milp(inst, engine, data):
    # up to 2 pins, so a budget below the pin count gives an infeasible model
    pins = data.draw(st.lists(st.sampled_from(inst.candidates()), max_size=2, unique=True)) if inst.candidates() else []
    model = build_model(inst, relaxed=False, pinned_ones=pins)
    sol = solve(model, engine=engine)
    status, objective = milp_solve(model)
    assert sol.status == status
    if status == "optimal":
        assert sol.objective == pytest.approx(objective, abs=1e-6)
        assert verify_solution(model, sol.values) == []


def reference_tkr(scores, inst):
    """Top-k as two sorted lists: the scored nodes, then the zero-score fill."""
    degree = inst.graph.out_degree
    scored = sorted((j for j in inst.candidates() if scores[j] > SCORE_EPS), key=lambda j: (-scores[j], -degree(j), j))
    rest = sorted((j for j in inst.candidates() if scores[j] <= SCORE_EPS), key=lambda j: (-degree(j), j))
    return frozenset((scored + rest)[: inst.k])


@settings(max_examples=200)
@given(inst=instances(), data=st.data())
def test_tkr_matches_the_literal_ranking(inst, data):
    # few distinct scores, so ties and scores at or near SCORE_EPS are common
    levels = st.sampled_from([-1e-12, 0.0, SCORE_EPS, 2 * SCORE_EPS, 0.5])
    scores = data.draw(st.lists(levels, min_size=inst.n, max_size=inst.n))
    values = (0.0,) * (len(inst.topologies) * inst.n) + tuple(scores)
    assert round_tkr(LpSolution("optimal", values, 0.0), inst).nodes == reference_tkr(scores, inst)
