import itertools
import math

import numpy as np
import pytest

from conftest import path_graph, random_instance, random_topology, single_topology_instance

from netvax import (
    IC,
    LT,
    Graph,
    ProblemInstance,
    SpreadResult,
    Topology,
    TopologySet,
    VaccinationSet,
    avg_saved,
    enumerate_all,
    exhaustive_optimal,
    find_modularity_witness,
    infected_on,
    marginal_gain,
    saved_on,
)
from netvax.errors import CapacityError, ContractViolationError, ParameterError


def chain_topology(n):
    return Topology(n, [(i, i + 1) for i in range(n - 1)])


# --- infected_on / saved_on -------------------------------------------------


def test_no_seeds_no_infection():
    assert infected_on(chain_topology(3), set(), set()) == frozenset()


def test_vaccination_blocks_chain():
    t = chain_topology(3)
    assert infected_on(t, {1}, {0}) == {0}
    assert saved_on(t, {1}, {0}) == 2


def test_full_chain_reachability():
    t = chain_topology(3)
    assert infected_on(t, set(), {0}) == {0, 1, 2}
    assert saved_on(t, set(), {0}) == 0


def test_overlapping_sets_rejected():
    with pytest.raises(ContractViolationError):
        infected_on(chain_topology(3), {0}, {0})


def test_nodes_outside_the_graph_rejected():
    inst = single_topology_instance(4, [(0, 1), (1, 2), (2, 3)], infected={0}, k=1)
    for bad in (-1, 4):
        with pytest.raises(ContractViolationError, match="outside 0..3"):
            avg_saved(inst, {bad})
        with pytest.raises(ContractViolationError, match="outside 0..3"):
            infected_on(chain_topology(4), set(), {bad})
        with pytest.raises(ContractViolationError, match="outside 0..3"):
            marginal_gain(chain_topology(4), set(), bad, {0})


def test_total_blockade():
    t = chain_topology(4)
    assert saved_on(t, {1, 2, 3}, {0}) == 3


def test_everything_infected():
    t = chain_topology(3)
    assert saved_on(t, set(), {0, 1, 2}) == 0


def test_seeds_always_infected_and_vaccinated_never():
    rng = np.random.default_rng(8)
    for _ in range(50):
        topo = random_topology(rng, 10, 0.3)
        nodes = list(range(10))
        rng.shuffle(nodes)
        I = frozenset(nodes[:2])
        S = frozenset(nodes[2:5])
        inf = infected_on(topo, S, I)
        assert I <= inf
        assert not (inf & S)


# --- avg_saved --------------------------------------------------------------


def test_avg_saved_single_topology():
    inst = single_topology_instance(3, [(0, 1), (1, 2)], infected={0}, k=1)
    res = avg_saved(inst, {1})
    assert res.per_topology_saved == (2,)
    assert res.avg_saved == 2.0
    assert res.avg_infected == 1.0


def test_avg_saved_enumerated_expectation():
    g = path_graph([0.5, 0.5], IC)
    ts = enumerate_all(g)
    inst = ProblemInstance(g, frozenset({0}), 0, ts)
    res = avg_saved(inst, set())
    # infected expectation 1 + 1/2 + 1/4, saved = 3 - 1.75
    assert res.avg_saved == pytest.approx(1.25, abs=1e-12)


def test_avg_saved_of_sampled_topologies_is_their_mean():
    # chain 0 -> 1 -> 2 -> 3 and its first edge alone; vaccinating 2 saves 2 and 3
    g = path_graph([0.5, 0.5, 0.5], IC)
    ts = TopologySet([chain_topology(4), Topology(4, [(0, 1)])], "", 0)
    inst = ProblemInstance(g, frozenset({0}), 1, ts)
    res = avg_saved(inst, {2})
    assert res.per_topology_saved == (2, 2)
    assert avg_saved(inst, set()).per_topology_saved == (0, 2)
    assert avg_saved(inst, set()).avg_saved == 1.0
    assert res == SpreadResult.from_counts(4, [2, 2], None)
    mu = np.array([0.25, 0.75])
    assert SpreadResult.from_counts(4, [0, 2], mu).avg_saved == 1.5
    assert SpreadResult.from_counts(4, [], None).avg_saved == 0.0


def test_avg_saved_monotone_in_vaccination():
    inst = random_instance(3, n=12, k=3)
    base = avg_saved(inst, set()).avg_saved
    better = avg_saved(inst, {next(iter(inst.candidates()))}).avg_saved
    assert better >= base


def test_avg_saved_budget_enforced():
    inst = single_topology_instance(4, [(0, 1)], infected={0}, k=1)
    with pytest.raises(ContractViolationError):
        avg_saved(inst, {1, 2})


def test_instance_invariants():
    g = path_graph([0.5], IC)
    ts = TopologySet([Topology(2, [])], "", 0)
    with pytest.raises(ParameterError):
        ProblemInstance(g, frozenset({5}), 0, ts)
    with pytest.raises(ParameterError):
        ProblemInstance(g, frozenset({0}), 2, ts)


def test_instance_rejects_live_edges_outside_the_graph():
    g = path_graph([0.5, 0.5], IC)  # 0 -> 1 -> 2
    ProblemInstance(g, frozenset({0}), 1, TopologySet([Topology(3, [(0, 1), (1, 2)])], "", 0))
    for edges in ([(1, 0)], [(0, 1), (0, 2)]):
        ts = TopologySet([Topology(3, [(0, 1)]), Topology(3, edges)], "", 0)
        with pytest.raises(ParameterError, match="topology 1"):
            ProblemInstance(g, frozenset({0}), 1, ts)


# --- exhaustive oracle --------------------------------------------------------


def test_oracle_zero_budget():
    inst = single_topology_instance(3, [(0, 1), (1, 2)], infected={0}, k=0)
    S, value = exhaustive_optimal(inst)
    assert S.nodes == frozenset()
    assert value == avg_saved(inst, set()).avg_saved


def test_oracle_full_budget():
    inst = single_topology_instance(4, [(0, 1), (1, 2), (2, 3)], infected={0}, k=3)
    S, value = exhaustive_optimal(inst)
    assert S.nodes == frozenset({1, 2, 3})
    assert value == 3.0


def test_oracle_star_hub():
    edges = [(0, 1)] + [(1, j) for j in range(2, 6)]
    inst = single_topology_instance(6, edges, infected={0}, k=1)
    S, value = exhaustive_optimal(inst)
    # cross-check by scanning all five candidates directly
    best = max(
        ((v, avg_saved(inst, {v}).avg_saved) for v in inst.candidates()),
        key=lambda t: t[1],
    )
    assert S.nodes == {1}
    assert value == best[1] == 5.0


def test_oracle_tie_breaks_lexicographic():
    # two symmetric branches: {1} and {2} tie, the oracle must return {1}
    edges = [(0, 1), (0, 2), (1, 3), (2, 4)]
    inst = single_topology_instance(5, edges, infected={0}, k=1)
    S, _ = exhaustive_optimal(inst)
    assert S.nodes == {1}


def test_oracle_capacity_guard():
    g = Graph(40, [], IC)
    ts = TopologySet([Topology(40, [])], "", 0)
    inst = ProblemInstance(g, frozenset({0}), 12, ts)
    with pytest.raises(CapacityError):
        exhaustive_optimal(inst)


def test_oracle_dominates_any_feasible_set():
    rng = np.random.default_rng(4)
    for seed in range(10):
        inst = random_instance(seed, n=8, k=2, s=3)
        _, best = exhaustive_optimal(inst)
        cands = inst.candidates()
        for combo in itertools.combinations(cands, min(2, len(cands))):
            assert best >= avg_saved(inst, set(combo)).avg_saved - 1e-12


# --- monotonicity property ----------------------------------------------------


def test_monotonicity_random_cases():
    rng = np.random.default_rng(99)
    for _ in range(2000):
        n = int(rng.integers(3, 12))
        topo = random_topology(rng, n, 0.3)
        nodes = list(rng.permutation(n))
        I = frozenset(int(x) for x in nodes[:1])
        S = frozenset(int(x) for x in nodes[1 : 1 + int(rng.integers(0, 3))])
        rest = [v for v in range(n) if v not in I and v not in S]
        if not rest:
            continue
        v = int(rest[int(rng.integers(0, len(rest)))])
        assert saved_on(topo, S | {v}, I) >= saved_on(topo, S, I)


# --- modularity witnesses -----------------------------------------------------


def test_parallel_paths_witness_by_hand():
    # two gateways from the seed; rest reachable through either
    n = 8
    edges = [(0, 1), (0, 2)]
    edges += [(1, j) for j in range(3, n)]
    edges += [(2, j) for j in range(3, n)]
    topo = Topology(n, edges)
    I = {0}
    # closing one gateway alone saves only itself; closing the second then
    # rescues the entire remainder
    assert marginal_gain(topo, frozenset(), 1, I) == 1
    assert marginal_gain(topo, frozenset({2}), 1, I) == n - 2


def test_witness_search_finds_both_directions():
    res = find_modularity_witness(8, 10_000, 42)
    assert res.found_both
    for w, expect_less in [
        (res.submodularity_violation, True),
        (res.supermodularity_violation, False),
    ]:
        assert w.A < w.B
        assert w.v not in w.B and w.v not in w.infected
        g_a = marginal_gain(w.topology, w.A, w.v, w.infected)
        g_b = marginal_gain(w.topology, w.B, w.v, w.infected)
        assert (g_a, g_b) == (w.gain_subset, w.gain_superset)
        assert (g_a < g_b) if expect_less else (g_a > g_b)


def test_isolated_seed_has_no_witness():
    # nothing spreads, so every marginal gain is identical and no ordering
    # violation can exist
    topo = Topology(5, [])
    I = {0}
    gains = set()
    for size_b in (1, 2):
        for B in itertools.combinations(range(1, 5), size_b):
            for size_a in range(size_b):
                for A in itertools.combinations(B, size_a):
                    for v in range(1, 5):
                        if v in B:
                            continue
                        gains.add(
                            (
                                marginal_gain(topo, frozenset(A), v, I),
                                marginal_gain(topo, frozenset(B), v, I),
                            )
                        )
    assert all(a == b for a, b in gains)


def test_witness_search_requires_min_size():
    with pytest.raises(ParameterError):
        find_modularity_witness(4, 10, 1)
