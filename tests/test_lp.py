"""Model construction, exact solving, and the rounding procedures."""

import importlib
from pathlib import Path

import numpy as np
import pytest

from conftest import random_instance, single_topology_instance

from netvax import (
    IC,
    LT,
    Graph,
    ProblemInstance,
    Topology,
    TopologySet,
    avg_saved,
    build_model,
    exhaustive_optimal,
    round_irp,
    round_tkr,
    sample_ic,
    solve,
    solve_blp,
    verify_solution,
    write_lp_file,
)
from netvax.errors import ParameterError
from netvax.generators import generate_er
from netvax.lp.model import LpSolution, pruned_view
from netvax.lp.simplex import solve_simplex

GOLDEN = Path(__file__).resolve().parent / "data" / "lp"


def row(model, r):
    """Row r as {variable index: coefficient}."""
    A = model.A
    lo, hi = A.indptr[r], A.indptr[r + 1]
    return dict(zip(A.indices[lo:hi].tolist(), A.data[lo:hi].tolist()))


# --- build_model -----------------------------------------------------------


def test_variable_count():
    inst = random_instance(1, n=7, s=3)
    model = build_model(inst, relaxed=True)
    assert model.num_vars == 7 * 3 + 7
    assert model.A.shape[1] == model.num_vars
    for vec in (model.objective, model.lower, model.upper):
        assert vec.shape == (model.num_vars,)
    assert model.var_name(model.i_index(0)) == "I[0]"
    assert model.var_name(model.x_index(2, 6)) == "x[t=2,i=6]"


def test_empty_topology_set_rejected():
    g = generate_er(4, 0.3, IC, 1)
    ts = TopologySet([], "", 0)
    inst = ProblemInstance(g, frozenset({0}), 1, ts)
    with pytest.raises(ParameterError):
        build_model(inst, relaxed=True)


def test_no_live_edges_optimum_is_seed_count():
    g = Graph(5, [], IC)
    ts = TopologySet([Topology(5, []), Topology(5, [])], "", 0)
    inst = ProblemInstance(g, frozenset({0, 3}), 1, ts)
    sol = solve(build_model(inst, relaxed=True))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(2.0, abs=1e-9)


def test_zero_budget_matches_unvaccinated_spread():
    for seed in range(5):
        inst = random_instance(seed, n=8, s=3, k=0)
        sol = solve(build_model(inst, relaxed=False))
        expected_infected = inst.n - avg_saved(inst, set()).avg_saved
        assert sol.objective == pytest.approx(expected_infected, abs=1e-7)


def test_build_deterministic():
    inst = random_instance(2, n=6, s=2)
    a, b = build_model(inst, relaxed=True), build_model(inst, relaxed=True)
    for name in ("objective", "rhs", "eq", "lower", "upper"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(a.A, name), getattr(b.A, name)), name
    assert a.A.shape == b.A.shape
    assert a.integral == b.integral


def test_integrality_marks():
    inst = random_instance(2, n=6, s=2)
    relaxed = build_model(inst, relaxed=True)
    binary = build_model(inst, relaxed=False)
    assert relaxed.integral == frozenset()
    assert binary.integral == frozenset(binary.i_index(j) for j in range(6))


def test_seed_pins_and_budget_row():
    inst = single_topology_instance(4, [(0, 1), (1, 2)], infected={0}, k=2)
    model = build_model(inst, relaxed=True)
    pins = np.flatnonzero(model.eq)
    # x(0, seed) = 1 and I(seed) = 0
    assert row(model, pins[0]) == {model.x_index(0, 0): 1.0}
    assert model.rhs[pins[0]] == 1.0
    assert any(row(model, r) == {model.i_index(0): 1.0} and model.rhs[r] == 0.0 for r in pins)
    budget = model.A.shape[0] - 1
    assert not model.eq[budget]
    assert model.rhs[budget] == 2.0
    assert row(model, budget) == {model.i_index(j): 1.0 for j in range(1, 4)}


def test_edge_constraint_shape():
    inst = single_topology_instance(3, [(0, 1)], infected={0}, k=1)
    model = build_model(inst, relaxed=True)
    # x(t,src) - x(t,dst) - I(dst) <= 0
    assert not model.eq[0]
    assert model.rhs[0] == 0.0
    assert row(model, 0) == {
        model.x_index(0, 0): 1.0,
        model.x_index(0, 1): -1.0,
        model.i_index(1): -1.0,
    }


def test_view_keeps_everything_when_seeds_reach_every_node():
    # every topology is a star out of the seed, so every x(t, i) is reachable
    n = 6
    star = [(0, i) for i in range(1, n)]
    g = Graph(n, [(0, i, 0.5) for i in range(1, n)], IC)
    ts = TopologySet([Topology(n, star), Topology(n, star[::-1])], "", 0)
    model = build_model(ProblemInstance(g, frozenset({0}), 2, ts), relaxed=True, pinned_ones=[3])
    cols, rows = pruned_view(model)
    assert np.array_equal(cols, np.arange(model.num_vars))
    assert np.array_equal(rows, np.arange(model.A.shape[0]))


def test_view_drops_unreached_columns_and_their_edge_rows():
    # path 0 -> 1 -> 2 with node 3 isolated; seed 0
    inst = single_topology_instance(4, [(0, 1), (1, 2)], infected={0}, k=1)
    model = build_model(inst, relaxed=True)
    i_cols = [model.i_index(j) for j in range(4)]
    non_edge = list(range(2, model.A.shape[0]))
    cols, rows = pruned_view(model)
    assert cols.tolist() == [model.x_index(0, i) for i in (0, 1, 2)] + i_cols
    assert rows.tolist() == [0, 1] + non_edge
    # vaccinating node 1 cuts 1 and 2 off; the edge row out of the seed stays
    cols, rows = pruned_view(model, vaccinated=[1])
    assert cols.tolist() == [model.x_index(0, 0)] + i_cols
    assert rows.tolist() == [0] + non_edge


def test_model_keeps_its_live_edges_seeds_and_pins():
    inst = random_instance(3, n=6, s=2, n_infected=2, k=2)
    pins = inst.candidates()[::-1][:2]
    model = build_model(inst, relaxed=True, pinned_ones=pins)
    assert model.live is inst.topologies.stacked_edges()
    assert model.infected.tolist() == sorted(inst.infected)
    assert model.pins.tolist() == pins


@pytest.mark.parametrize("node", [-1, 4, 7, 2**70])
def test_view_rejects_vaccinated_node_outside_node_range(node):
    # a path 0 -> 1 -> 2 -> 3; -1 must not stand for node 3
    inst = single_topology_instance(4, [(0, 1), (1, 2), (2, 3)], infected={0}, k=1)
    model = build_model(inst, relaxed=True)
    with pytest.raises(ParameterError, match=f"cannot vaccinate node {node}: nodes lie in 0..3"):
        pruned_view(model, [node])


@pytest.mark.parametrize("pin", [-1, 4, 7])
def test_pin_outside_node_range_rejected(pin):
    inst = single_topology_instance(4, [(0, 1), (1, 2)], infected={0}, k=2)
    with pytest.raises(ParameterError):
        build_model(inst, relaxed=True, pinned_ones=[pin])


def test_lp_file_dump(tmp_path):
    inst = random_instance(3, n=5, s=2)
    model = build_model(inst, relaxed=False)
    path = tmp_path / "model.lp"
    write_lp_file(model, path)
    text = path.read_text()
    for section in ("Minimize", "Subject To", "Bounds", "Binary", "End"):
        assert section in text
    relaxed_path = tmp_path / "relaxed.lp"
    write_lp_file(build_model(inst, relaxed=True), relaxed_path)
    assert "Binary" not in relaxed_path.read_text()


@pytest.mark.parametrize(
    "name, relaxed, pinned",
    [("binary", False, ()), ("relaxed", True, ()), ("pinned", True, (2, 3))],
)
def test_lp_file_text_is_stable(tmp_path, name, relaxed, pinned):
    # two infected nodes (0 and 1) and LT topologies with edges into seeds
    inst = random_instance(3, n=6, s=2, n_infected=2, k=2)
    path = tmp_path / f"{name}.lp"
    write_lp_file(build_model(inst, relaxed=relaxed, pinned_ones=pinned), path)
    assert path.read_text() == (GOLDEN / f"{name}.lp").read_text()


# --- solve -----------------------------------------------------------------


def gap_instance():
    """Fractional LP optimum strictly below the binary optimum.

    Seed 0 feeds 1, 2, 3; pair nodes 4, 5, 6 are each reachable through two
    of them, so covering all pairs needs 2 vaccines but the LP can spread
    2/3 across each gateway.
    """
    edges = [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (2, 5), (3, 5), (1, 6), (3, 6)]
    return single_topology_instance(7, edges, infected={0}, k=2)


@pytest.mark.parametrize("engine", ["highs", "simplex"])
def test_blp_matches_oracle_on_tiny_instances(engine):
    for seed in range(8):
        inst = random_instance(seed, n=8, s=3, n_infected=2, k=2)
        S, sol = solve_blp(inst, engine=engine)
        assert sol.status == "optimal"
        _, best = exhaustive_optimal(inst)
        assert inst.n - sol.objective == pytest.approx(best, abs=1e-6)
        assert len(S.nodes) <= inst.k
        assert not (S.nodes & inst.infected)


def test_relaxation_is_lower_bound():
    for seed in range(100):
        inst = random_instance(seed, n=7, s=2, k=2)
        relaxed = solve(build_model(inst, relaxed=True))
        binary = solve(build_model(inst, relaxed=False))
        assert relaxed.objective <= binary.objective + 1e-6


def test_budget_covering_everything():
    inst = single_topology_instance(4, [(0, 1), (1, 2), (2, 3)], infected={0}, k=3)
    sol = solve(build_model(inst, relaxed=False))
    assert sol.objective == pytest.approx(1.0, abs=1e-9)  # only the seed stays infected


def test_gap_instance_solved_exactly():
    inst = gap_instance()
    relaxed = solve(build_model(inst, relaxed=True))
    binary = solve(build_model(inst, relaxed=False))
    assert relaxed.objective < binary.objective - 0.1  # true integrality gap
    assert binary.objective == pytest.approx(4.0, abs=1e-8)


def test_node_cap_reports_capacity():
    sol = solve(build_model(gap_instance(), relaxed=False), node_cap=0)
    assert sol.status == "capacity"


@pytest.mark.parametrize("relaxed", [True, False])
def test_simplex_iteration_cap_reports_capacity(relaxed, monkeypatch):
    monkeypatch.setattr(importlib.import_module("netvax.lp.simplex"), "_MAX_ITER", 1)
    model = build_model(gap_instance(), relaxed=relaxed)
    res = solve_simplex(model.objective, model.A, model.rhs, model.eq, model.lower, model.upper)
    assert (res.status, res.iterations) == ("capacity", 2)
    sol = solve(model, engine="simplex")
    assert (sol.status, sol.values) == ("capacity", ())


@pytest.mark.parametrize("engine", ["highs", "simplex"])
def test_node_cap_keeps_the_incumbent(engine):
    inst = gap_instance()
    S, sol = solve_blp(inst, engine=engine, node_cap=0)
    assert sol.status == "capacity"
    assert S.nodes == {1, 2}
    assert len(S.nodes) <= inst.k
    assert verify_solution(build_model(inst, relaxed=False), sol.values) == []
    assert inst.n - sol.objective == pytest.approx(avg_saved(inst, S.nodes).avg_saved, abs=1e-9)


@pytest.mark.parametrize("engine", ["highs", "simplex"])
def test_branch_and_bound_solves_the_root_lp_once(engine, monkeypatch):
    solve_module = importlib.import_module("netvax.lp.solve")
    relaxed_solve = solve_module._solve_relaxed
    calls = []

    def counted(model, engine, lower, upper, view=None):
        nothing_fixed = np.array_equal(lower, model.lower) and np.array_equal(upper, model.upper)
        calls.append(nothing_fixed)
        return relaxed_solve(model, engine, lower, upper, view)

    monkeypatch.setattr(solve_module, "_solve_relaxed", counted)
    sol = solve(build_model(gap_instance(), relaxed=False), engine=engine)
    assert sol.status == "optimal"
    assert len(calls) == 6
    assert sum(calls) == 1


@pytest.mark.parametrize("engine", ["highs", "simplex"])
@pytest.mark.parametrize("relaxed", [True, False])
def test_model_without_columns(engine, relaxed):
    # n = 0: no x and no I columns, only the budget row 0 <= 0
    inst = ProblemInstance(Graph(0, [], LT), frozenset(), 0, TopologySet([Topology(0, [])], "", 0))
    model = build_model(inst, relaxed=relaxed)
    assert model.num_vars == 0
    assert solve(model, engine=engine) == LpSolution("optimal", (), 0.0)
    S, sol = solve_blp(inst, engine=engine)
    assert S.nodes == frozenset()
    assert sol == LpSolution("optimal", (), 0.0)


def test_infeasible_from_conflicting_pins():
    inst = single_topology_instance(5, [(0, 1)], infected={0}, k=1)
    model = build_model(inst, relaxed=True, pinned_ones=[1, 2, 3])
    assert solve(model).status == "infeasible"


@pytest.mark.parametrize("engine", ["highs", "simplex"])
def test_returned_solutions_are_feasible(engine):
    for seed in range(6):
        inst = random_instance(seed, n=6, s=2, k=2)
        for relaxed in (True, False):
            model = build_model(inst, relaxed=relaxed)
            sol = solve(model, engine=engine)
            assert sol.status == "optimal"
            assert verify_solution(model, sol.values) == []


def test_engines_agree_on_binary_models():
    for seed in range(6):
        inst = random_instance(seed, n=7, s=2, k=2)
        a = solve(build_model(inst, relaxed=False), engine="highs")
        b = solve(build_model(inst, relaxed=False), engine="simplex")
        assert a.objective == pytest.approx(b.objective, abs=1e-7)


def test_verify_solution_flags_tampering():
    inst = single_topology_instance(3, [(0, 1), (1, 2)], infected={0}, k=1)
    model = build_model(inst, relaxed=True)
    sol = solve(model)
    good = np.array(sol.values)
    assert verify_solution(model, good) == []
    assert good[model.i_index(1)] == pytest.approx(1.0)  # the unique optimum
    pin = np.flatnonzero(model.eq)[0]  # x(0, seed) = 1
    budget = model.A.shape[0] - 1

    values = good.copy()
    values[model.x_index(0, 0)] = 0.0  # break the seed pin
    assert verify_solution(model, values) == [f"row {pin}: 0.0 != 1.0"]

    values = good.copy()
    values[model.i_index(1)] = 0.0  # the seed now reaches node 1, but x(0, 1) = 0
    assert verify_solution(model, values) == ["row 0: 1.0 > 0.0"]

    values = good.copy()
    values[model.i_index(2)] = 1.0  # two vaccines against a budget of one
    assert verify_solution(model, values) == [f"row {budget}: 2.0 > 1.0"]

    values = good.copy()
    values[model.x_index(0, 2)] = 1.5
    assert verify_solution(model, values) == ["x[t=0,i=2] = 1.5 outside [0.0, 1.0]"]


def test_verify_solution_reports_non_finite_values():
    inst = single_topology_instance(3, [(0, 1), (1, 2)], infected={0}, k=1)
    model = build_model(inst, relaxed=True)
    assert len(verify_solution(model, np.full(model.num_vars, np.nan))) >= model.num_vars
    values = np.array(solve(model).values)
    values[model.x_index(0, 2)] = np.nan
    assert verify_solution(model, values) == ["x[t=0,i=2] = nan is not finite"]


# --- rounding --------------------------------------------------------------


def make_relaxed_solution(inst, scores):
    """Solution vector with a scripted vaccination block."""
    model = build_model(inst, relaxed=True)
    values = np.zeros(model.num_vars)
    for j, v in enumerate(scores):
        values[model.i_index(j)] = v
    return LpSolution(status="optimal", values=tuple(values), objective=0.0)


def tkr_instance(k):
    g = Graph(4, [(0, 1, 0.5), (0, 2, 0.5), (0, 3, 0.5), (1, 2, 0.5)], IC)
    ts = sample_ic(g, 2, 1)
    return ProblemInstance(g, frozenset(), k, ts)


def test_tkr_zero_budget():
    inst = tkr_instance(0)
    sol = make_relaxed_solution(inst, [0.9, 0.6, 0.0, 0.0])
    assert round_tkr(sol, inst).nodes == frozenset()


def test_tkr_takes_top_scores():
    inst = tkr_instance(2)
    sol = make_relaxed_solution(inst, [0.6, 0.9, 0.0, 0.0])
    assert round_tkr(sol, inst).nodes == {0, 1}


def test_tkr_all_equal_falls_back_to_degree_then_index():
    inst = tkr_instance(2)
    sol = make_relaxed_solution(inst, [0.5, 0.5, 0.5, 0.5])
    # node 0 has out-degree 3, node 1 has 1, nodes 2,3 have 0
    assert round_tkr(sol, inst).nodes == {0, 1}


def test_tkr_fills_from_zero_scores():
    inst = tkr_instance(2)
    sol = make_relaxed_solution(inst, [0.0, 0.7, 0.0, 0.0])
    # one scored node, then the best zero-score node by degree
    assert round_tkr(sol, inst).nodes == {0, 1}


def test_tkr_respects_infected():
    g = Graph(3, [(0, 1, 0.5), (1, 2, 0.5)], IC)
    ts = sample_ic(g, 1, 1)
    inst = ProblemInstance(g, frozenset({1}), 2, ts)
    sol = make_relaxed_solution(inst, [0.1, 0.9, 0.2])
    assert round_tkr(sol, inst).nodes == {0, 2}


def test_tkr_requires_optimal():
    inst = tkr_instance(1)
    with pytest.raises(ParameterError):
        round_tkr(LpSolution("infeasible", (), float("nan")), inst)


def test_irp_feasible_and_sized():
    for seed in range(5):
        inst = random_instance(seed, n=8, s=3, n_infected=2, k=3)
        S = round_irp(inst)
        assert len(S.nodes) == min(inst.k, inst.n - len(inst.infected))
        assert not (S.nodes & inst.infected)


def test_irp_single_step_equals_tkr_top1():
    inst = single_topology_instance(5, [(0, 1), (1, 2), (1, 3), (1, 4)], infected={0}, k=1)
    relaxed = solve(build_model(inst, relaxed=True))
    assert round_irp(inst) == round_tkr(relaxed, inst)
    assert round_irp(inst).nodes == {1}


def test_irp_objective_monotone_under_pins():
    inst = random_instance(11, n=9, s=3, n_infected=1, k=3)
    chosen = []
    prev = -np.inf
    for _ in range(inst.k):
        model = build_model(inst, relaxed=True, pinned_ones=chosen)
        sol = solve(model)
        assert sol.status == "optimal"
        assert sol.objective >= prev - 1e-9
        prev = sol.objective
        scores = model.i_values(sol.values)
        best = max(
            (j for j in inst.candidates() if j not in chosen),
            key=lambda j: (scores[j], inst.graph.out_degree(j), -j),
        )
        chosen.append(best)
    assert round_irp(inst).nodes == frozenset(chosen)


def test_irp_failure_carries_iteration(monkeypatch):
    import netvax.lp.rounding as rounding

    def fake_solve(model, engine="highs"):
        return LpSolution("capacity", (), float("nan"))

    monkeypatch.setattr(rounding, "solve", fake_solve)
    inst = tkr_instance(2)
    with pytest.raises(RuntimeError, match="iteration 0"):
        round_irp(inst)


def test_irp_matches_oracle_on_scanned_instance():
    # scan a few seeds for an instance where iterative rounding attains the
    # exhaustive optimum, then pin the first hit
    for seed in range(20):
        inst = random_instance(seed, n=8, s=3, n_infected=1, k=2)
        S = round_irp(inst)
        _, best = exhaustive_optimal(inst)
        if avg_saved(inst, S).avg_saved == pytest.approx(best, abs=1e-9):
            return
    pytest.fail("IRP never matched the oracle on 20 scanned instances")
