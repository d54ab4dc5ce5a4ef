from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    enumerated_instance,
    neighbor_mask,
    random_instance,
    single_topology_instance,
    tiny_config,
)

from netvax import (
    IC,
    LT,
    Graph,
    ProblemInstance,
    Topology,
    TopologySet,
    VaccinationSet,
    avg_saved,
    exhaustive_optimal,
    greedy,
    heuristics,
    hill_climb,
    local_search,
    sample_ic,
)
from netvax.bench import ExperimentConfig, build_instance, sweep_budget
from netvax.errors import ContractViolationError, ParameterError
from netvax.fastpath import BfsEvaluator, IcDominatorEvaluator, LtChainEvaluator, make_evaluator
from netvax.heuristics import greedy_trajectory


def hub_instance(k=1):
    # seed 0 infects hub 1, which fans out to 2..5
    edges = [(0, 1)] + [(1, j) for j in range(2, 6)]
    return single_topology_instance(6, edges, infected={0}, k=k)


# --- greedy -----------------------------------------------------------------


@pytest.mark.parametrize(
    "run",
    [
        lambda inst: greedy(inst, evaluation="x"),
        lambda inst: local_search(inst, {2}, evaluation="x"),
        lambda inst: hill_climb(inst, {2}, evaluation="x"),
    ],
    ids=["greedy", "local_search", "hill_climb"],
)
def test_unknown_evaluation_mode_is_a_parameter_error(run):
    with pytest.raises(ParameterError, match="unknown evaluation mode 'x'"):
        run(hub_instance())


def test_greedy_zero_budget():
    res = greedy(hub_instance(k=0))
    assert res.vaccination.nodes == frozenset()
    assert res.iterations == 0


def test_greedy_picks_hub():
    res = greedy(hub_instance())
    assert res.vaccination.nodes == {1}
    assert res.per_topology_saved == (5,)
    # cross-check: enumerate all five candidates
    gains = {v: avg_saved(hub_instance(), {v}).avg_saved for v in range(1, 6)}
    assert max(gains.values()) == gains[1] == 5.0


def test_greedy_never_beats_oracle():
    for seed in range(10):
        inst = random_instance(seed, n=9, s=3, n_infected=2, k=2)
        res = greedy(inst)
        _, best = exhaustive_optimal(inst)
        assert res.avg_saved <= best + 1e-9


def test_greedy_uses_full_budget_even_with_zero_gains():
    # no edges at all: every gain is zero, lowest-index candidates fill the set
    g = Graph(5, [], IC)
    ts = TopologySet([Topology(5, [])], "", 0)
    inst = ProblemInstance(g, frozenset({2}), 2, ts)
    res = greedy(inst)
    assert res.vaccination.nodes == {0, 1}


def test_greedy_deterministic_and_mode_invariant():
    for seed in range(6):
        inst = random_instance(seed, n=12, s=4, n_infected=2, k=3)
        a = greedy(inst, evaluation="bfs")
        b = greedy(inst, evaluation="structural")
        assert a.vaccination == b.vaccination
        assert a.avg_saved == b.avg_saved
        assert greedy(inst).vaccination == a.vaccination


def test_greedy_result_consistency():
    inst = random_instance(4, n=10, s=3, k=2)
    res = greedy(inst)
    recomputed = avg_saved(inst, res.vaccination)
    assert res.avg_saved == recomputed.avg_saved
    assert res.per_topology_saved == recomputed.per_topology_saved
    assert res.iterations == len(res.vaccination.nodes) == min(
        inst.k, inst.n - len(inst.infected)
    )


def test_greedy_trajectory_matches_individual_runs():
    for seed in range(4):
        inst = random_instance(seed, n=12, s=4, n_infected=1, k=5)
        traj = greedy_trajectory(inst, [0, 2, 5], evaluation="structural")
        for k in (0, 2, 5):
            sub = ProblemInstance(inst.graph, inst.infected, k, inst.topologies)
            assert traj[k].vaccination == greedy(sub).vaccination
            assert traj[k].avg_saved == greedy(sub).avg_saved


def test_greedy_trajectory_budget_range_checked():
    inst = random_instance(1, n=8, k=2)
    with pytest.raises(ContractViolationError):
        greedy_trajectory(inst, [5])


# --- local search ------------------------------------------------------------


def test_local_search_fixpoint():
    inst = hub_instance()
    res = local_search(inst, {1})
    assert res.vaccination.nodes == {1}
    assert res.iterations == 1


def test_local_search_chain_swap():
    # chain 0 -> 1 -> 2 -> 3 with seed 0: {v2} saves 2, its neighbor v1 saves 3
    inst = single_topology_instance(4, [(0, 1), (1, 2), (2, 3)], infected={0}, k=1)
    res = local_search(inst, {2})
    assert res.vaccination.nodes == {1}
    assert res.avg_saved == 3.0


def test_local_search_only_improves():
    for seed in range(8):
        inst = random_instance(seed, n=12, s=4, n_infected=2, k=3)
        g = greedy(inst)
        res = local_search(inst, g.vaccination)
        assert res.avg_saved >= g.avg_saved
        assert len(res.vaccination.nodes) == len(g.vaccination.nodes)
        assert not (res.vaccination.nodes & inst.infected)


def test_local_search_rejects_bad_start():
    inst = hub_instance()
    with pytest.raises(ContractViolationError):
        local_search(inst, {0})  # vaccinating the seed
    with pytest.raises(ContractViolationError):
        local_search(inst, {1, 2})  # over budget


def test_swap_searches_reject_start_nodes_outside_the_graph():
    inst = hub_instance()
    for bad in (-1, 6):
        with pytest.raises(ContractViolationError, match="outside 0..5"):
            local_search(inst, {bad})
        with pytest.raises(ContractViolationError, match="outside 0..5"):
            hill_climb(inst, {bad})


def test_local_search_empty_start_converges():
    inst = hub_instance(k=0)
    res = local_search(inst, set())
    assert res.vaccination.nodes == frozenset()
    assert res.iterations == 1


# --- hill climbing ------------------------------------------------------------


def test_hill_climb_fixpoint():
    res = hill_climb(hub_instance(), {1})
    assert res.vaccination.nodes == {1}


def test_hill_climb_reaches_beyond_graph_neighbors():
    # start far from the infection: local search is stuck (its only swap
    # neighbor is useless) while hill climbing jumps to the cut node
    edges = [(0, 1), (1, 2), (3, 4)]
    inst = single_topology_instance(5, edges, infected={0}, k=1)
    ls = local_search(inst, {3})
    hc = hill_climb(inst, {3})
    assert ls.vaccination.nodes == {3}  # stuck
    assert hc.vaccination.nodes == {1}
    _, best = exhaustive_optimal(inst)
    assert hc.avg_saved == best == 4.0


def test_hill_climb_never_below_greedy():
    for seed in range(8):
        inst = random_instance(seed, n=12, s=4, n_infected=2, k=3)
        g = greedy(inst)
        res = hill_climb(inst, g.vaccination)
        assert res.avg_saved >= g.avg_saved
        assert len(res.vaccination.nodes) == len(g.vaccination.nodes)


def test_hill_climb_deterministic():
    inst = random_instance(9, n=12, s=4, n_infected=1, k=3)
    S0 = greedy(inst).vaccination
    assert hill_climb(inst, S0).vaccination == hill_climb(inst, S0).vaccination


def test_heuristics_accept_vaccination_set_or_iterable():
    inst = hub_instance()
    a = local_search(inst, VaccinationSet(frozenset({2})))
    b = local_search(inst, [2])
    assert a.vaccination == b.vaccination


def test_improvement_chain_on_random_instances():
    # saved(ls(greedy)) >= saved(greedy) and saved(hc(greedy)) >= saved(greedy)
    for seed in range(6):
        inst = random_instance(seed, n=14, s=5, n_infected=2, k=3)
        g = greedy(inst)
        assert local_search(inst, g.vaccination).avg_saved >= g.avg_saved
        assert hill_climb(inst, g.vaccination).avg_saved >= g.avg_saved


# --- structural swap neighbourhoods on IC ------------------------------------


def ic_waxman_instance(seed):
    cfg = ExperimentConfig(
        model=IC, generator="waxman", n=40, centers=3, samples=20, seed=seed, alpha=0.05, beta=0.5
    )
    return build_instance(cfg, 0)


def test_ic_structural_swaps_match_bfs():
    # greedy's set is often already swap-optimal; the lowest-index set is not
    for seed in range(3):
        inst = ic_waxman_instance(seed)
        starts = (greedy(inst, evaluation="structural").vaccination, inst.candidates()[: inst.k])
        for start in starts:
            for search in (local_search, hill_climb):
                ref = search(inst, start, evaluation="bfs")
                fast = search(inst, start, evaluation="structural")
                assert fast.vaccination == ref.vaccination
                assert fast.avg_saved == ref.avg_saved
                assert fast.iterations == ref.iterations


def test_ic_structural_swaps_use_dominator_passes(monkeypatch):
    # gains, swap passes, the swap search's start total and every solver's
    # final counts all read the dominator table: no BFS count, no BFS adjacency
    calls = {"saved_one": 0, "dominator": 0}
    saved_one = BfsEvaluator._saved_one
    dominator_pass = IcDominatorEvaluator._dominator_pass

    def counted_saved_one(self, *args, **kwargs):
        calls["saved_one"] += 1
        return saved_one(self, *args, **kwargs)

    def counted_dominator_pass(self, *args):
        calls["dominator"] += 1
        return dominator_pass(self, *args)

    monkeypatch.setattr(BfsEvaluator, "_saved_one", counted_saved_one)
    monkeypatch.setattr(IcDominatorEvaluator, "_dominator_pass", counted_dominator_pass)
    inst = ic_waxman_instance(0)
    start = greedy(inst, evaluation="structural").vaccination
    local_search(inst, start, evaluation="structural")
    hill_climb(inst, inst.candidates()[: inst.k], evaluation="structural")
    assert calls["saved_one"] == 0
    assert all(t._out is None for t in inst.topologies)
    assert calls["dominator"] > 0


@pytest.fixture
def table_builds(monkeypatch):
    """The base of every table an ``IcDominatorEvaluator`` makes: its full
    table from ``_table`` and every compact one from ``_shrink``."""
    calls = []
    table, shrink = IcDominatorEvaluator._table, IcDominatorEvaluator._shrink

    def counted(self, base):
        calls.append(base)
        return table(self, base)

    def counted_shrink(self, old):
        new = shrink(self, old)
        calls.append(new.base)
        return new

    monkeypatch.setattr(IcDominatorEvaluator, "_table", counted)
    monkeypatch.setattr(IcDominatorEvaluator, "_shrink", counted_shrink)
    return calls


def test_second_greedy_run_on_a_shared_evaluator_resets_its_compact_table(table_builds):
    inst = replace(ic_waxman_instance(1), k=20)
    greedy_trajectory(inst, [5, 20], evaluation="structural")
    shared = make_evaluator(inst, "structural")
    assert shared._compact is not shared._full
    del table_builds[:]
    again = greedy(replace(inst, k=12), evaluation="structural")
    assert make_evaluator(inst, "structural") is shared
    rebuilt = table_builds[:]
    # an equal copy of the topology set misses the factory's slot: a fresh evaluator
    ts = inst.topologies
    copy = replace(inst, k=12, topologies=TopologySet(ts.topologies, ts.source_graph_hash, ts.seed))
    del table_builds[:]
    fresh = greedy(copy, evaluation="structural")
    assert make_evaluator(copy, "structural") is not shared
    assert again.vaccination == fresh.vaccination
    assert again.avg_saved == fresh.avg_saved
    assert again.per_topology_saved == fresh.per_topology_saved
    # the same compactions as a fresh run, after the fresh run's full table
    assert rebuilt and [frozenset()] + rebuilt == table_builds


def test_ic_swap_searches_build_no_table_after_greedy(table_builds):
    for seed in range(3):
        inst = replace(ic_waxman_instance(seed), k=12)
        start = greedy(inst, evaluation="structural").vaccination
        assert make_evaluator(inst, "structural")._compact.base
        del table_builds[:]
        local_search(inst, start, evaluation="structural")
        hill_climb(inst, start, evaluation="structural")
        assert table_builds == []


# --- swap passes: the matrix scan and its kernel calls ------------------------


@pytest.mark.parametrize("search", [local_search, hill_climb], ids=["ls", "hc"])
@pytest.mark.parametrize(
    "model, evaluation", [(LT, "structural"), (IC, "structural"), (LT, "bfs"), (IC, "bfs")]
)
def test_swap_search_without_a_swap_returns_its_start(search, model, evaluation):
    # k = 0 gives a pass with no row at all; a start holding every candidate
    # gives rows with no replacement
    for seed in range(3):
        empty = random_instance(seed, model=model, n=8, p=0.3, s=3, n_infected=2, k=0)
        full = random_instance(seed, model=model, n=8, p=0.3, s=3, n_infected=2, k=6)
        for inst, start in ((empty, frozenset()), (full, frozenset(full.candidates()))):
            res = search(inst, start, evaluation=evaluation)
            assert res.vaccination.nodes == start
            assert res.iterations == 1
            assert res.avg_saved == avg_saved(inst, start).avg_saved


def test_lt_structural_swap_pass_is_one_kernel_pass(monkeypatch):
    calls = {"swap_totals": 0, "totals_with": 0}
    swap_totals = LtChainEvaluator.swap_totals
    totals_with = BfsEvaluator.totals_with

    def counted_swap_totals(self, *args):
        calls["swap_totals"] += 1
        return swap_totals(self, *args)

    def counted_totals_with(self, *args):
        calls["totals_with"] += 1
        return totals_with(self, *args)

    monkeypatch.setattr(LtChainEvaluator, "swap_totals", counted_swap_totals)
    monkeypatch.setattr(BfsEvaluator, "totals_with", counted_totals_with)
    for seed in range(3):
        inst = build_instance(
            ExperimentConfig(model=LT, generator="waxman", n=40, centers=3, samples=20, seed=seed), 0
        )
        start = inst.candidates()[: inst.k]
        for search in (local_search, hill_climb):
            calls.update(swap_totals=0, totals_with=0)
            res = search(inst, start, evaluation="structural")
            assert res.iterations > 1
            assert calls == {"swap_totals": res.iterations, "totals_with": 0}


# --- one evaluator per instance -----------------------------------------------


@pytest.fixture
def builds(monkeypatch):
    """Constructor calls of the structural evaluators, by class name."""
    counts = {"LtChainEvaluator": 0, "IcDominatorEvaluator": 0}
    for cls in (LtChainEvaluator, IcDominatorEvaluator):
        init = cls.__init__

        def counted(self, instance, _init=init, _name=cls.__name__):
            counts[_name] += 1
            _init(self, instance)

        monkeypatch.setattr(cls, "__init__", counted)
    return counts


@pytest.mark.parametrize("model", [LT, IC])
def test_greedy_and_swap_searches_share_one_evaluator(builds, model):
    inst = random_instance(2, model=model, n=16, s=4, n_infected=2, k=4)
    start = greedy(inst, evaluation="structural").vaccination
    local_search(inst, start, evaluation="structural")
    hill_climb(inst, start, evaluation="structural")
    built = "LtChainEvaluator" if model == LT else "IcDominatorEvaluator"
    assert builds == {"LtChainEvaluator": 0, "IcDominatorEvaluator": 0, built: 1}


@pytest.mark.parametrize(
    "overrides", [{"model": LT}, {"model": IC, "alpha": 0.2, "beta": 0.5}], ids=["LT", "IC"]
)
def test_budget_sweep_builds_one_evaluator_per_repetition(builds, overrides):
    cfg = tiny_config(algorithms=("greedy", "ls", "hc"), repetitions=2, **overrides)
    rows = sweep_budget(cfg, [0.1, 0.2, 0.3])
    assert len(rows) == 3 * 2 * 3
    built = "LtChainEvaluator" if overrides["model"] == LT else "IcDominatorEvaluator"
    assert builds == {"LtChainEvaluator": 0, "IcDominatorEvaluator": 0, built: 2}


def test_lt_structural_solvers_build_no_bfs_adjacency():
    # the LT kernel answers gains, swaps and the final counts; nothing walks ``Topology.out``
    for seed in range(3):
        inst = build_instance(
            ExperimentConfig(model=LT, generator="waxman", n=40, centers=3, samples=20, seed=seed), 0
        )
        start = greedy(inst, evaluation="structural").vaccination
        local_search(inst, start, evaluation="structural")
        hill_climb(inst, inst.candidates()[: inst.k], evaluation="structural")
        assert all(t._out is None for t in inst.topologies)


def test_local_search_mask_holds_the_graph_neighbours():
    rng = np.random.default_rng(4)
    for seed in range(6):
        inst = random_instance(seed, n=14, p=0.2, s=2, n_infected=2, k=5)
        cands = inst.candidates()
        for size in (0, 1, 5):
            nodes = sorted(int(v) for v in rng.choice(cands, size=size, replace=False))
            assert np.array_equal(heuristics._graph_neighbors(inst, nodes), neighbor_mask(inst, nodes))


# --- exact results: final counts and carried totals ------------------------------


class RecordingEvaluator:
    """Passes every call through to an evaluator and logs each ``swap_totals`` call."""

    def __init__(self, evaluator, log):
        self._evaluator = evaluator
        self._log = log

    def __getattr__(self, name):
        return getattr(self._evaluator, name)

    def swap_totals(self, S, allowed):
        totals = self._evaluator.swap_totals(S, allowed)
        self._log.append((frozenset(S), totals))
        return totals


def reference_swap_search(inst, S0, replacements):
    """The swap scan written out: each pass re-scores S and every swap with ``avg_saved``.

    Returns the final set and the pass count.
    """
    S, passes = frozenset(S0), 0
    while True:
        passes += 1
        best, best_set = avg_saved(inst, S).avg_saved, None
        for v in sorted(S):
            for w in replacements(v):
                if w not in S and w not in inst.infected:
                    swapped = (S - {v}) | {w}
                    value = avg_saved(inst, swapped).avg_saved
                    if value > best:
                        best, best_set = value, swapped
        if best_set is None:
            return S, passes
        S = best_set


@pytest.mark.parametrize("model", [LT, IC])
def test_solver_results_are_exact(monkeypatch, model):
    # with either evaluator, the reported counts equal a fresh BFS; each
    # committed swap's total, which the search carries into the next pass,
    # equals ``total_saved`` bit for bit; the searches end where the
    # written-out scan ends
    log = []
    monkeypatch.setattr(
        heuristics,
        "make_evaluator",
        lambda inst, mode: RecordingEvaluator(make_evaluator(inst, mode), log),
    )
    swaps = {"sampled": 0, "enumerated": 0}
    for seed in range(4):
        for kind, inst in (
            ("sampled", random_instance(seed, model=model, n=12, p=0.25, s=5, n_infected=2, k=3)),
            ("enumerated", enumerated_instance(seed, model, n=5, k=2)),
        ):
            g = greedy(inst, "bfs")
            neighbourhoods = (
                (local_search, inst.graph.neighbors),
                (hill_climb, lambda v: range(inst.n)),
            )
            expected = {
                (start, search): reference_swap_search(inst, start, replacements)
                for start in (g.vaccination.nodes, frozenset(inst.candidates()[: inst.k]))
                for search, replacements in neighbourhoods
            }
            for evaluation in ("bfs", "structural"):
                evaluator = make_evaluator(inst, evaluation)
                results = [greedy(inst, evaluation), *greedy_trajectory(inst, [0, 1], evaluation).values()]
                for (start, search), reference in expected.items():
                    log.clear()
                    res = search(inst, start, evaluation=evaluation)
                    assert (res.vaccination.nodes, res.iterations) == reference
                    results.append(res)
                    for (S, totals), (after, _) in zip(log, log[1:]):
                        i, w = np.unravel_index(np.argmax(totals), totals.shape)
                        assert after == (S - {sorted(S)[i]}) | {int(w)}
                        assert float(totals[i, w]).hex() == float(evaluator.total_saved(after)).hex()
                        swaps[kind] += 1
                for res in results:
                    fresh = avg_saved(inst, res.vaccination)
                    assert res.avg_saved == fresh.avg_saved
                    assert res.per_topology_saved == fresh.per_topology_saved
    assert all(swaps.values())
