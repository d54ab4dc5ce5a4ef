"""The structural evaluators must match BFS re-evaluation exactly."""

import itertools
from dataclasses import replace

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    enumerated_instance,
    neighbor_mask,
    random_instance,
    random_topology,
    single_topology_instance,
)

from netvax import (
    IC,
    LT,
    ExperimentConfig,
    Graph,
    ProblemInstance,
    Topology,
    TopologySet,
    exhaustive_optimal,
    greedy,
    hill_climb,
    local_search,
    saved_on,
)
from netvax.bench import build_instance
from netvax.errors import ContractViolationError, ModelMismatchError
from netvax.fastpath import (
    _CERT,
    _DEAD,
    _VAC,
    BfsEvaluator,
    IcDominatorEvaluator,
    LtChainEvaluator,
    _stable_order,
    make_evaluator,
)
from netvax.heuristics import greedy_trajectory
from netvax.topology import flowgraph


def naive_gains(instance, S):
    """Independent oracle: per-candidate difference of summed saved counts."""
    S = set(S)
    out = np.full(instance.n, -np.inf)
    base = sum(saved_on(t, S, instance.infected) for t in instance.topologies)
    for v in instance.candidates():
        if v in S:
            continue
        tot = sum(saved_on(t, S | {v}, instance.infected) for t in instance.topologies)
        out[v] = tot - base
    return out


def random_sets(rng, instance, count=4):
    cands = instance.candidates()
    sets = [frozenset()]
    for _ in range(count):
        size = int(rng.integers(0, min(4, len(cands)) + 1))
        sets.append(frozenset(int(x) for x in rng.choice(cands, size=size, replace=False)))
    return sets


@pytest.mark.parametrize("model", [LT, IC])
def test_structural_counts_match_bfs(model):
    rng = np.random.default_rng(1)
    for seed in range(15):
        inst = random_instance(seed, model=model, n=12, p=0.3, s=6, n_infected=2, k=4)
        ref = make_evaluator(inst, "bfs")
        fast = make_evaluator(inst, "structural")
        for S in random_sets(rng, inst):
            assert ref.per_topology_saved(S) == fast.per_topology_saved(S)
            assert ref.total_saved(S) == fast.total_saved(S)


@pytest.mark.parametrize("model", [LT, IC])
def test_structural_gains_match_naive_oracle(model):
    rng = np.random.default_rng(2)
    for seed in range(12):
        inst = random_instance(seed, model=model, n=11, p=0.3, s=5, n_infected=1, k=4)
        fast = make_evaluator(inst, "structural")
        for S in random_sets(rng, inst, count=2):
            expected = naive_gains(inst, S)
            assert np.array_equal(fast.gains(S), expected)
            assert np.array_equal(BfsEvaluator(inst).gains(S), expected)


def test_ic_gains_along_greedy_trajectory_match_fresh_and_naive():
    # greedy calls gains with S growing one node at a time; one evaluator
    # must agree with a fresh one and with the oracle at every step
    for seed in range(6):
        inst = random_instance(seed, model=IC, n=14, p=0.25, s=5, n_infected=2, k=6)
        reused = IcDominatorEvaluator(inst)
        S = set()
        for _ in range(inst.k):
            got = reused.gains(S)
            fresh = IcDominatorEvaluator(inst).gains(S)
            assert np.array_equal(got, fresh)
            assert np.array_equal(got, naive_gains(inst, S))
            S.add(int(np.argmax(got)))


def test_lt_long_chain_and_cycle():
    # a 40-edge chain from the seed and a seedless cycle
    n = 70
    chain = [(i, i + 1) for i in range(40)]
    cycle = [(i, i + 1) for i in range(45, 69)] + [(69, 45)]
    topo = Topology(n, chain + cycle)
    ts = TopologySet([topo], "", 0)
    graph = Graph(n, [(s, d, 0.5) for s, d in chain + cycle], LT)
    inst = ProblemInstance(graph, frozenset({0}), 3, ts)
    ref = BfsEvaluator(inst)
    fast = LtChainEvaluator(inst)
    for S in [frozenset(), frozenset({20}), frozenset({1, 30})]:
        assert ref.per_topology_saved(S) == fast.per_topology_saved(S)
        assert np.array_equal(ref.gains(S), fast.gains(S))


def lt_chain_and_seed_cycle_instance(rng, n, n_seeds, s):
    """LT topologies with a chain of 30 nodes off a seed and a cycle through every seed.

    Each node keeps at most one live parent: a random one first, then the
    chain's and the cycle's, which replace it.  Also returns the chain of
    the first topology.
    """
    seeds = [int(v) for v in rng.choice(n, size=n_seeds, replace=False)]
    others = [v for v in range(n) if v not in seeds]
    topologies, chains = [], []
    for _ in range(s):
        parent = {v: int(rng.choice([u for u in range(n) if u != v])) for v in range(n) if rng.random() < 0.3}
        chains.append([int(v) for v in rng.permutation(others)[:30]])
        parent.update(zip(chains[-1], [seeds[0]] + chains[-1][:-1]))
        ring = [v for seed in seeds for v in (seed, int(rng.choice(others)))]
        ring = list(dict.fromkeys(ring))  # a node drawn twice closes the ring early
        parent.update(zip(ring[1:] + ring[:1], ring))
        topologies.append(Topology(n, sorted((u, v) for v, u in parent.items())))
    pairs = sorted(set().union(*(t.live_edges for t in topologies)))
    graph = Graph(n, [(a, b, 1.0 / s) for a, b in pairs], LT)
    inst = ProblemInstance(graph, frozenset(seeds), 3, TopologySet(topologies, "", 0))
    return inst, chains[0]


@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), n_seeds=st.integers(1, 3), s=st.integers(1, 3))
def test_lt_kernel_on_long_chains_and_seed_cycles(seed, n_seeds, s):
    # vaccinated nodes along one chain cover the rows below them many times
    rng = np.random.default_rng(seed)
    inst, chain = lt_chain_and_seed_cycle_instance(rng, 48, n_seeds, s)
    ref = BfsEvaluator(inst)
    fast = LtChainEvaluator(inst)
    others = [v for v in inst.candidates() if v not in chain]
    nested = {int(v) for v in rng.choice(chain, size=int(rng.integers(1, 5)), replace=False)}
    for S in [frozenset(), frozenset(nested), frozenset(nested | {int(rng.choice(others))})]:
        assert fast.per_topology_saved(S) == ref.per_topology_saved(S)
        assert np.array_equal(fast.gains(S), ref.gains(S))
        for v in sorted(S):
            ws = [w for w in inst.candidates() if w not in S]
            assert list(fast.totals_with(S - {v}, ws)) == list(ref.totals_with(S - {v}, ws))
        assert_same_swap_totals(fast, ref, S)


def assert_same_swap_totals(fast, ref, S):
    """``swap_totals`` of two evaluators agree entry for entry, -inf included.

    Both neighbourhoods: hill climbing's (every node) and local search's
    (graph neighbours).
    """
    inst = fast.instance
    for allowed in (np.ones((len(S), inst.n), dtype=bool), neighbor_mask(inst, S)):
        got = fast.swap_totals(S, allowed)
        assert got.shape == (len(S), inst.n)
        assert np.array_equal(got, ref.swap_totals(S, allowed))


@settings(max_examples=80)
@given(
    seed=st.integers(0, 2**20),
    model=st.sampled_from([LT, IC]),
    enumerated=st.booleans(),
    data=st.data(),
)
def test_swap_totals_agree_on_random_masks(seed, model, enumerated, data):
    # any mask: empty rows, and marks on S and the infected set, which must
    # still come back -inf; LT structural without mu runs its cover pass
    if enumerated:
        inst = enumerated_instance(seed, model, k=3)
    else:
        inst = random_instance(seed, model=model, n=12, p=0.3, s=4, n_infected=2, k=4)
    S = frozenset(
        data.draw(st.lists(st.sampled_from(inst.candidates()), min_size=1, max_size=inst.k, unique=True))
    )
    rng = np.random.default_rng(seed)
    allowed = rng.random((len(S), inst.n)) < data.draw(st.sampled_from([0.0, 0.3, 0.8, 1.0]))
    allowed[data.draw(st.integers(0, len(S) - 1))] = False
    blocked = sorted(S | inst.infected)
    if data.draw(st.booleans()):
        allowed[:, blocked] = True
    ref = BfsEvaluator(inst)
    got = make_evaluator(inst, "structural").swap_totals(S, allowed)
    assert np.array_equal(got, ref.swap_totals(S, allowed))
    expected_open = allowed.copy()
    expected_open[:, blocked] = False
    assert np.array_equal(got != -np.inf, expected_open)


@pytest.mark.parametrize("evaluation", ["bfs", "structural"])
@pytest.mark.parametrize("model", [LT, IC])
def test_swap_mask_of_the_wrong_shape_is_a_contract_violation(model, evaluation):
    inst = random_instance(1, model=model, n=10, s=3, n_infected=1, k=3)
    evaluator = make_evaluator(inst, evaluation)
    S = inst.candidates()[:3]
    for shape in ((2, inst.n), (3, inst.n - 1), (inst.n,)):
        with pytest.raises(ContractViolationError, match="swap mask has shape"):
            evaluator.swap_totals(S, np.ones(shape, dtype=bool))


@pytest.mark.parametrize("evaluation", ["bfs", "structural"])
@pytest.mark.parametrize("model", [LT, IC])
def test_totals_with_and_swap_totals_reject_infected_and_out_of_range_nodes(model, evaluation):
    cfg = ExperimentConfig(
        model=model, generator="waxman", n=20, centers=2, samples=4, alpha=0.3, beta=0.5, seed=1
    )
    inst = build_instance(cfg, 0)
    assert inst.infected == {11, 17}
    evaluator = make_evaluator(inst, evaluation)
    w = inst.candidates()[0]
    assert evaluator.totals_with(set(), [w])[0] == evaluator.total_saved({w})
    for base, candidates in (
        (set(), [11]),
        (set(), [-1]),
        (set(), [inst.n]),
        ({17}, [w]),
        ({-1}, [w]),
    ):
        with pytest.raises(ContractViolationError):
            evaluator.totals_with(base, candidates)
    for S in ([w, 17], [w, -1], [w, inst.n]):
        with pytest.raises(ContractViolationError):
            evaluator.swap_totals(S, np.ones((2, inst.n), dtype=bool))


@pytest.mark.parametrize("evaluation", ["bfs", "structural"])
@pytest.mark.parametrize("model", [LT, IC])
def test_gains_and_set_totals_reject_infected_and_out_of_range_nodes(model, evaluation):
    # -1 must not be read as node n - 1, nor n raise a bare IndexError
    inst = random_instance(1, model=model, n=12, p=0.3, s=4, n_infected=2, k=4)
    evaluator = make_evaluator(inst, evaluation)
    w = inst.candidates()[0]
    infected = min(inst.infected)
    for S in ({-1}, {inst.n}, {infected}, {w, -1}, {w, inst.n}, {w, infected}):
        for query in (evaluator.gains, evaluator.per_topology_saved, evaluator.total_saved):
            with pytest.raises(ContractViolationError):
                query(S)
    assert evaluator.total_saved({w}) == BfsEvaluator(inst).total_saved({w})


def nested_pair(topo, seeds, rng):
    """A live edge (a, b) that the seeds reach, neither end a seed.

    Vaccinating a and b together covers b's row twice.
    """
    reached, stack = set(seeds), list(seeds)
    while stack:
        for w in topo.out[stack.pop()]:
            if w not in reached:
                reached.add(w)
                stack.append(w)
    pairs = [(a, b) for a, b in topo.live_edges if a in reached and a not in seeds and b not in seeds]
    return pairs[int(rng.integers(len(pairs)))]


def test_lt_kernel_matches_dominator_kernel_at_benchmark_size():
    # the IC dominator kernel is exact on LT too, so it is the oracle here
    inst = build_instance(
        ExperimentConfig(model="LT", generator="waxman", n=256, centers=5, samples=50, seed=0), 0
    )
    assert (inst.n, len(inst.topologies)) == (256, 50)
    oracle = IcDominatorEvaluator(inst)
    fast = LtChainEvaluator(inst)
    rng = np.random.default_rng(3)
    cands = inst.candidates()
    for i in range(20):
        S = set()
        if i % 2:
            S |= set(nested_pair(inst.topologies[int(rng.integers(50))], inst.infected, rng))
        while len(S) < inst.k:
            S.add(int(rng.choice(cands)))
        S = frozenset(S)
        assert fast.per_topology_saved(S) == oracle.per_topology_saved(S)
        assert np.array_equal(fast.gains(S), oracle.gains(S))
        for v in sorted(S):
            ws = [w for w in cands if w not in S]
            assert list(fast.totals_with(S - {v}, ws)) == list(oracle.totals_with(S - {v}, ws))
        assert_same_swap_totals(fast, oracle, S)


def test_lt_cycle_through_seed():
    # a cycle containing the seed infects the whole loop
    topo = Topology(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    ts = TopologySet([topo], "", 0)
    graph = Graph(4, [(s, d, 0.2) for s, d in topo.live_edges], LT)
    inst = ProblemInstance(graph, frozenset({0}), 2, ts)
    assert LtChainEvaluator(inst).per_topology_saved(frozenset()) == [0]
    assert LtChainEvaluator(inst).per_topology_saved(frozenset({2})) == [2]


def test_lt_evaluator_rejects_multi_parent_topologies():
    topo = Topology(3, [(0, 2), (1, 2)])
    ts = TopologySet([topo], "", 0)
    graph = Graph(3, [(0, 2, 0.3), (1, 2, 0.3)], LT)
    with pytest.raises(ModelMismatchError):
        ProblemInstance(graph, frozenset({0}), 1, ts)


def swap_ties(instance, S):
    """Check structural swap totals against bfs; count tied swaps of S."""
    ref = make_evaluator(instance, "bfs")
    fast = make_evaluator(instance, "structural")
    ties = 0
    for v in sorted(S):
        ws = [w for w in instance.candidates() if w not in S]
        values = list(ref.totals_with(S - {v}, ws))
        assert list(fast.totals_with(S - {v}, ws)) == values
        ties += len(values) - len(set(values))
    assert_same_swap_totals(fast, ref, S)
    return ties


@pytest.mark.parametrize("model", [LT, IC])
def test_structural_swap_search_matches_bfs(model):
    ties = {"sampled": 0, "enumerated": 0}
    for seed in range(6):
        for kind, inst in (
            ("sampled", random_instance(seed, model=model, n=12, p=0.25, s=5, n_infected=2, k=3)),
            ("enumerated", enumerated_instance(seed, model)),
        ):
            cands = inst.candidates()
            starts = {greedy(inst, "structural").vaccination.nodes, frozenset(cands[: inst.k])}
            for S0 in starts:
                ties[kind] += swap_ties(inst, S0)
                for search in (local_search, hill_climb):
                    ref = search(inst, S0, evaluation="bfs")
                    fast = search(inst, S0, evaluation="structural")
                    assert fast.vaccination == ref.vaccination
                    assert fast.avg_saved == ref.avg_saved
                    assert fast.iterations == ref.iterations
    assert all(ties.values())


def test_lt_swap_totals_on_enumerated_instances_fall_back_to_the_base_loop(monkeypatch):
    # mu-weighted floats depend on the order of the sum, so LT reduces each
    # removed node's totals as ``totals_with`` does
    calls = []
    totals_with = BfsEvaluator.totals_with

    def logged_totals_with(self, *args):
        calls.append(self.name)
        return totals_with(self, *args)

    monkeypatch.setattr(BfsEvaluator, "totals_with", logged_totals_with)
    for seed in range(6):
        inst = enumerated_instance(seed, LT, k=3)
        ref = BfsEvaluator(inst)
        fast = LtChainEvaluator(inst)
        cands = inst.candidates()
        for S in (frozenset(cands[:3]), frozenset(cands[-3:]), greedy(inst, "structural").vaccination.nodes):
            calls.clear()
            assert_same_swap_totals(fast, ref, S)
            assert "structural" in calls


def test_make_evaluator_modes():
    inst = random_instance(1, model=LT)
    assert isinstance(make_evaluator(inst, "bfs"), BfsEvaluator)
    assert isinstance(make_evaluator(inst, "structural"), LtChainEvaluator)
    inst_ic = random_instance(2, model=IC)
    assert isinstance(make_evaluator(inst_ic, "structural"), IcDominatorEvaluator)
    with pytest.raises(ValueError):
        make_evaluator(inst, "magic")


# --- the factory's one-slot reuse --------------------------------------------

FRESH = {
    ("bfs", LT): BfsEvaluator,
    ("bfs", IC): BfsEvaluator,
    ("structural", LT): LtChainEvaluator,
    ("structural", IC): IcDominatorEvaluator,
}


def assert_serves_like_fresh(inst, evaluation):
    """The factory's evaluator answers as one built for ``inst`` right now."""
    served = make_evaluator(inst, evaluation)
    fresh = FRESH[evaluation, inst.graph.model](inst)
    assert type(served) is type(fresh)
    S = inst.candidates()[: max(inst.k, 1)]
    assert served.total_saved(S) == fresh.total_saved(S)
    assert np.array_equal(served.gains(S), fresh.gains(S))
    swaps = neighbor_mask(inst, S)
    assert np.array_equal(served.swap_totals(S, swaps), fresh.swap_totals(S, swaps))
    return served


@pytest.mark.parametrize("model", [LT, IC])
def test_factory_reuses_only_for_the_same_topologies_graph_and_infected(model):
    a = random_instance(3, model=model, n=12, s=4, n_infected=2, k=3)
    other = sorted(set(range(a.n)) - a.infected)[:2]
    b = ProblemInstance(a.graph, frozenset(other), a.k, a.topologies)  # another infected set
    for evaluation in ("bfs", "structural"):
        first = assert_serves_like_fresh(a, evaluation)
        assert make_evaluator(replace(a, k=1), evaluation) is first  # no evaluator reads k
        assert assert_serves_like_fresh(b, evaluation) is not first
        assert assert_serves_like_fresh(a, evaluation) is not first  # A, B, A: A is rebuilt


@pytest.mark.parametrize("model", [LT, IC])
def test_factory_switches_between_modes_on_one_instance(model):
    inst = random_instance(4, model=model, n=12, s=4, n_infected=2, k=3)
    for evaluation in ("bfs", "structural", "bfs", "structural", "structural"):
        assert make_evaluator(inst, evaluation).name == evaluation
        assert_serves_like_fresh(inst, evaluation)


def test_factory_keys_on_identity_and_hashes_nothing(monkeypatch):
    inst = random_instance(5, model=LT, n=12, s=4, n_infected=2, k=3)
    ts = inst.topologies
    same = TopologySet(ts.topologies, ts.source_graph_hash, ts.seed)
    copy = ProblemInstance(inst.graph, inst.infected, inst.k, same)
    assert copy.topologies == ts

    def refuse(*args):
        raise AssertionError("the evaluator factory compared or hashed content")

    for cls in (TopologySet, Topology, Graph):
        for name in ("__eq__", "__hash__", "digest", "serialize"):
            if name in cls.__dict__:
                monkeypatch.setattr(cls, name, refuse)
    first = make_evaluator(inst, "structural")
    assert make_evaluator(inst, "structural") is first
    assert make_evaluator(copy, "structural") is not first


def test_ic_gains_with_dense_cycles():
    # strongly cyclic digraphs exercise the iterative dominator computation
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = 9
        topo = random_topology(rng, n, 0.45)
        ts = TopologySet([topo], "", 0)
        graph = Graph(n, [(s, d, 0.5) for s, d in topo.live_edges], IC)
        inst = ProblemInstance(graph, frozenset({0, 1}), 3, ts)
        fast = IcDominatorEvaluator(inst)
        assert np.array_equal(fast.gains(set()), naive_gains(inst, set()))


def dominator_oracle(topo, infected, S):
    """(saved, gain counts) of one topology from networkx's dominator tree.

    The flowgraph is the live-edge graph without the nodes of S, plus a
    super-source n feeding every seed; a node's gain is the number of
    reached nodes it dominates, itself included, and 0 for seeds.
    """
    n = topo.n
    g = nx.DiGraph()
    g.add_node(n)
    g.add_edges_from((n, i) for i in infected if i not in S)
    g.add_edges_from((a, b) for a, b in topo.live_edges if a not in S and b not in S)
    idom = nx.immediate_dominators(g, n)
    reached = [u for u in idom if u != n]
    counts = np.zeros(n, dtype=np.int64)
    for u in reached:
        while u != n:
            if u not in infected:
                counts[u] += 1
            u = idom[u]
    return n - len(reached), counts


def lt_edges(draw, rng, n, seeds, others):
    """LT-shaped live edges: at most one parent per node.

    Random parents first, then optionally a long chain (from a seed when
    there is one), a cycle without seeds and a cycle through a seed, each
    replacing the parents of the nodes it covers.
    """
    parent = {}
    p = draw(st.sampled_from([0.0, 0.3, 0.9]))
    for v in range(n):
        if rng.random() < p:
            u = int(rng.integers(n - 1))
            parent[v] = u + (u >= v)  # any node but v
    if draw(st.booleans()):
        path = seeds[:1] + [int(v) for v in rng.permutation(others)[:40]]
        parent.update(zip(path[1:], path[:-1]))
    if draw(st.booleans()):
        ring = [int(v) for v in rng.choice(others, size=min(5, len(others)), replace=False)]
        parent.update(zip(ring[1:] + ring[:1], ring))
    if seeds and draw(st.booleans()):
        ring = seeds[:1] + [int(v) for v in rng.choice(others, size=4, replace=False)]
        parent.update(zip(ring[1:] + ring[:1], ring))
    return {(u, v) for v, u in parent.items()}


@st.composite
def dominator_cases(draw):
    """IC and LT instances around the packed-word boundary with adversarial shapes.

    The graph holds exactly the topologies' live edges, which
    ``ProblemInstance`` requires of every topology.
    """
    model = draw(st.sampled_from([IC, LT]))
    n = draw(st.sampled_from([63, 64, 65]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    seeds = [int(v) for v in rng.choice(n, size=draw(st.integers(0, 3)), replace=False)]
    others = [v for v in range(n) if v not in seeds]
    topologies = []
    for _ in range(draw(st.integers(1, 3))):
        if model == LT:
            topologies.append(Topology(n, sorted(lt_edges(draw, rng, n, seeds, others))))
            continue
        p = draw(st.sampled_from([0.0, 0.01, 0.03, 0.08]))  # 0.0: an empty topology
        edges = set(random_topology(rng, n, p).live_edges)
        if draw(st.booleans()):  # seeds with in-edges from other seeds
            edges |= set(zip(seeds, seeds[1:] + seeds[:1])) - {(v, v) for v in seeds}
        if draw(st.booleans()):  # a cycle without seeds
            ring = [int(v) for v in rng.choice(others, size=min(5, len(others)), replace=False)]
            edges |= set(zip(ring, ring[1:] + ring[:1]))
        topologies.append(Topology(n, sorted(edges)))
    pairs = sorted(set().union(*(t.live_edges for t in topologies)))
    graph = Graph(n, [(a, b, 0.5) for a, b in pairs], model)
    inst = ProblemInstance(graph, frozenset(seeds), 0, TopologySet(topologies, "", 0))
    kind = draw(st.sampled_from(["empty", "random", "all"]))
    if kind == "all":
        S = frozenset(others)
    elif kind == "random":
        S = frozenset(int(v) for v in rng.choice(others, size=int(rng.integers(1, 9)), replace=False))
    else:
        S = frozenset()
    return inst, S


@st.composite
def cyclic_ic_instances(draw):
    """Small IC instances whose topologies hold cycles without seeds and through a seed."""
    n = draw(st.integers(8, 14))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    seeds = [int(v) for v in rng.choice(n, size=draw(st.integers(1, 2)), replace=False)]
    others = [v for v in range(n) if v not in seeds]
    topologies = []
    for _ in range(draw(st.integers(1, 4))):
        edges = set(random_topology(rng, n, draw(st.sampled_from([0.05, 0.15, 0.3]))).live_edges)
        ring = [int(v) for v in rng.choice(others, size=4, replace=False)]
        edges |= set(zip(ring, ring[1:] + ring[:1]))
        ring = seeds[:1] + ring[:2]
        edges |= set(zip(ring, ring[1:] + ring[:1]))
        topologies.append(Topology(n, sorted(edges)))
    pairs = sorted(set().union(*(t.live_edges for t in topologies)))
    graph = Graph(n, [(a, b, 0.5) for a, b in pairs], IC)
    return ProblemInstance(graph, frozenset(seeds), 0, TopologySet(topologies, "", 0))


@st.composite
def cyclic_ic_cases(draw):
    """A small cyclic IC instance and a random vaccinated set of up to 5 nodes."""
    inst = draw(cyclic_ic_instances())
    return inst, frozenset(draw(st.lists(st.sampled_from(inst.candidates()), max_size=5, unique=True)))


@settings(max_examples=280)
@given(st.one_of(dominator_cases(), cyclic_ic_cases()))
def test_dominator_kernel_matches_networkx(case):
    inst, S = case
    fast = make_evaluator(inst, "structural")
    saved, gain_counts = fast._counts(S, range(inst.n))
    for t, topo in enumerate(inst.topologies):
        expected_saved, expected_counts = dominator_oracle(topo, inst.infected, S)
        assert saved[t] == expected_saved
        assert np.array_equal(gain_counts[t], expected_counts)


def sweeps_from_all_ones(fast, blocked, words):
    """The Dom sets of every row of the table of ``fast`` with the rows in
    ``blocked`` vaccinated, from sweeps over every row that read every
    predecessor, starting from an all-ones table, until one changes nothing."""
    ones = ~np.uint64(0)
    rows = len(blocked)
    dom = np.full((rows + 1, words), ones)
    dom[-1] = 0  # the super-source
    own = np.zeros((rows, words), dtype=np.uint64)
    own[np.arange(rows), fast._node >> 6] = fast._bit
    while rows:
        acc = np.bitwise_and.reduceat(dom[fast._preds], fast._first[:-1], axis=0) | own
        acc[blocked] = ones
        if np.array_equal(acc, dom[:-1]):
            break
        dom[:-1] = acc
    return dom[:-1]


def pred_lists(fast):
    """Each row's predecessor rows, as lists."""
    first, degree = fast._first[:-1].tolist(), fast._degree[:-1].tolist()
    return [fast._preds[f : f + d].tolist() for f, d in zip(first, degree)]


def least_certified(fast, blocked):
    """The rows that the two-certified-predecessors rule reaches from the
    seed rows, round by round, with the rows in ``blocked`` left out."""
    rows = len(blocked)
    cert = np.zeros(rows + 1, dtype=bool)
    cert[-1] = True  # the super-source, the seeds' one predecessor
    seeds = (fast._degree[:-1] == 1) & (fast._preds[fast._first[:-1]] == rows)
    entry_row = np.repeat(np.arange(rows), fast._degree[:-1])
    while True:
        count = np.bincount(entry_row, weights=cert[fast._preds], minlength=rows)
        now = np.append(((count >= 2) | seeds) & ~blocked, True)
        if np.array_equal(now, cert):
            return cert[:-1]
        cert = now


def vaccinated_rows(fast, S):
    blocked = np.zeros(len(fast._node), dtype=bool)
    where = fast._pos[:, sorted(S)].ravel()
    blocked[where[where >= 0]] = True
    return blocked


def assert_state_matches_references(inst, fast, S):
    """The kernel's state under S against sweeps from all ones and a fresh
    certification: Dom sets bit for bit, each row's kind, sound and acyclic
    certificates on two predecessors, and the counts."""
    n, s = inst.n, len(inst.topologies)
    rows = len(fast._node)
    blocked = vaccinated_rows(fast, S)
    ref = sweeps_from_all_ones(fast, blocked, n // 64 + 1)
    assert fast._vaccinated == S
    assert np.array_equal(fast._dom[:-1], ref)
    unreached = (ref[:, n >> 6] >> np.uint64(n & 63)) & np.uint64(1) == 1
    kind = fast._kind[:-1]
    assert np.array_equal(kind == _VAC, blocked)
    assert np.array_equal(kind == _DEAD, unreached & ~blocked)
    # certified rows: their own bit alone, exactly the rule's rows, each on
    # two distinct certified predecessors, with no cycle among witnesses
    certified = (kind == _CERT).nonzero()[0]
    own = np.zeros((len(certified), ref.shape[1]), dtype=np.uint64)
    own[np.arange(len(certified)), fast._node[certified] >> 6] = fast._bit[certified]
    assert np.array_equal(ref[certified], own)
    assert np.array_equal(kind == _CERT, least_certified(fast, blocked))
    preds = pred_lists(fast)
    for r in certified.tolist():
        if preds[r] == [rows]:  # a seed: its one predecessor is the super-source
            continue
        a, b = fast._witness[r].tolist()
        assert a != b and a in preds[r] and b in preds[r]
        assert fast._kind[a] == fast._kind[b] == _CERT
    done = np.zeros(rows + 1, dtype=bool)
    done[rows] = True
    pending = certified
    while len(pending):  # peel off the certified rows whose witnesses are done
        ready = done[fast._witness[pending]].all(axis=1)
        assert ready.any(), "the witness graph has a cycle"
        done[pending[ready]] = True
        pending = pending[~ready]
    # per (t, v) the reached rows of t whose Dom holds v, then per t its reached rows
    live = ~unreached & ~blocked
    holds = np.unpackbits(ref[live].view(np.uint8), axis=1, bitorder="little")[:, :n]
    per_node = np.zeros((s, n), dtype=np.int64)
    np.add.at(per_node, fast._topo[live], holds)
    counts = np.concatenate([per_node.ravel(), np.bincount(fast._topo[live], minlength=s)])
    assert np.array_equal(fast._tally, counts)


def ic128_greedy_with_swap_passes(monkeypatch, check):
    """12 greedy steps at IC n=128, s=50, with a local-search swap pass after
    each; ``check(inst, fast, S)`` runs after every pass."""
    cfg = ExperimentConfig(
        model=IC, generator="waxman", n=128, centers=5, samples=50, seed=0, alpha=0.05, beta=0.5
    )
    inst = build_instance(cfg, 0)
    move = IcDominatorEvaluator._move
    moves = []

    def checked_move(self, S):
        move(self, S)
        moves.append(len(S))
        check(inst, self, S)

    monkeypatch.setattr(IcDominatorEvaluator, "_move", checked_move)
    fast = IcDominatorEvaluator(inst)
    S = set()
    for _ in range(12):
        gains = fast.gains(S)
        if S:
            fast.swap_totals(S, neighbor_mask(inst, S))
        S.add(int(np.argmax(gains)))
    assert len(moves) > 12 and max(moves) > 0
    return fast


def test_dom_tables_match_sweeps_from_all_ones_along_greedy_and_swaps(monkeypatch):
    # a pass sweeps only the open rows downstream of what changed and reads
    # the certified rows as constants; after every pass the Dom sets, kinds,
    # certificates and counts must be those of sweeps over every row from
    # all ones and of a fresh certification, bit for bit
    swept = []
    sweep = IcDominatorEvaluator._sweep

    def noted_sweep(self, rows):
        swept.append(len(rows) / len(self._node))
        return sweep(self, rows)

    monkeypatch.setattr(IcDominatorEvaluator, "_sweep", noted_sweep)
    ic128_greedy_with_swap_passes(monkeypatch, assert_state_matches_references)
    assert np.median(swept) < 0.25  # most passes sweep a small part of the table


def test_certificates_cover_most_rows_at_their_own_bit_along_greedy_and_swaps(monkeypatch):
    # solving with the certified rows fixed at their own bit must give the
    # greatest fixpoint, so every certified row is its own bit alone under
    # sweeps from all ones; and certificates must cover most such rows
    covered = []

    def check(inst, fast, S):
        blocked = vaccinated_rows(fast, S)
        ref = sweeps_from_all_ones(fast, blocked, inst.n // 64 + 1)
        certified = fast._kind[:-1] == _CERT
        alone = np.bitwise_count(ref).sum(axis=1) == 1
        assert np.all(alone[certified])
        covered.append(np.count_nonzero(certified) / max(np.count_nonzero(alone & ~blocked), 1))

    ic128_greedy_with_swap_passes(monkeypatch, check)
    assert min(covered) > 0.5


def test_a_second_greedy_run_releases_the_first_runs_set_in_one_move(monkeypatch):
    # the evaluator keeps its state under greedy's final set, so a second
    # run on it starts with one pass that releases the whole set; the state
    # after that pass must match the references, and the run must retrace
    # the first, fresh one
    cfg = ExperimentConfig(
        model=IC, generator="waxman", n=128, centers=5, samples=50, seed=0, alpha=0.05, beta=0.5
    )
    inst = replace(build_instance(cfg, 0), k=20)
    budgets = range(1, inst.k + 1)
    first = greedy_trajectory(inst, budgets, evaluation="structural")
    shared = make_evaluator(inst, "structural")
    assert shared._vaccinated == first[inst.k].vaccination.nodes
    move = IcDominatorEvaluator._move
    released = []

    def checked_move(self, S):
        was = self._vaccinated
        move(self, S)
        if was and not S:
            released.append(len(was))
            assert_state_matches_references(inst, self, S)

    monkeypatch.setattr(IcDominatorEvaluator, "_move", checked_move)
    again = greedy_trajectory(inst, budgets, evaluation="structural")
    assert make_evaluator(inst, "structural") is shared
    assert released == [inst.k]
    for k in budgets:
        assert again[k].vaccination == first[k].vaccination
        assert again[k].avg_saved == first[k].avg_saved
        assert again[k].per_topology_saved == first[k].per_topology_saved


def test_states_carried_along_greedy_at_ic512_equal_fresh_ones():
    # at the paper's IC size, vaccination along greedy takes certificates
    # back from rows whose witness it vaccinates; the state carried from
    # step to step must equal the one a fresh evaluator starts under the set
    cfg = ExperimentConfig(
        model=IC, generator="waxman", n=512, centers=5, samples=50, seed=0, alpha=0.05, beta=0.5
    )
    inst = build_instance(cfg, 0)
    fast = IcDominatorEvaluator(inst)
    S = set()
    for step in range(1, 161):
        gains = fast.gains(S)
        if step % 40 == 0:
            fresh = IcDominatorEvaluator(inst)
            assert np.array_equal(fresh.gains(S), gains)
            for field in ("_kind", "_dom", "_tally"):
                assert np.array_equal(getattr(fast, field), getattr(fresh, field)), field
        S.add(int(np.argmax(gains)))


def assert_table_lists(inst, fast):
    """Check the table of ``fast`` against its flowgraph: its rows are the
    reached ones in row id order, each row's predecessors are the tails of
    the edges into it in edge order, at least one, each row's successors are
    the heads of the edges out of it in edge order, and the seeds' one
    predecessor is the super-source."""
    n, s = inst.n, len(inst.topologies)
    tail, head, level = flowgraph(inst.topologies.stacked_edges(), s, n, sorted(inst.infected))
    heads = np.flatnonzero(level[: s * n] >= 0)
    rows = len(heads)
    assert np.array_equal(fast._topo.astype(np.int64) * n + fast._node, heads)
    pos = np.append(fast._pos.ravel(), rows)  # the super-source's row is the last
    assert np.array_equal(pos[heads], np.arange(rows))
    want_preds, want_succs = [[] for _ in range(rows)], [[] for _ in range(rows + 1)]
    for a, b in zip(pos[tail].tolist(), pos[head].tolist()):
        want_preds[b].append(a)
        want_succs[a].append(b)
    assert pred_lists(fast) == want_preds and all(want_preds)
    first, degree = fast._out_first.tolist(), fast._out_degree.tolist()
    succs = [fast._succs[f : f + d].tolist() for f, d in zip(first, degree)]
    assert succs == want_succs
    seeds = {(t, v) for t in range(s) for v in inst.infected}
    assert {(int(fast._topo[r]), int(fast._node[r])) for r in want_succs[rows]} == seeds


@settings(max_examples=60)
@given(inst=cyclic_ic_instances())
def test_tables_hold_reached_rows_with_preds_and_succs_in_edge_order(inst):
    assert_table_lists(inst, IcDominatorEvaluator(inst))


@st.composite
def query_sequences(draw):
    """A dominator case and up to 8 queries on sets that grow, shrink, swap,
    jump or repeat; a swap is ``(S - {v}) | {w}``, as a swap pass asks."""
    inst, S = draw(st.one_of(dominator_cases(), cyclic_ic_cases()))
    cands = inst.candidates()
    steps = []
    S = set(S)
    for _ in range(draw(st.integers(1, 8))):
        move = draw(st.sampled_from(["grow", "shrink", "swap", "jump", "repeat"]))
        outside = [v for v in cands if v not in S]
        if move == "grow" and outside:
            S = S | set(draw(st.lists(st.sampled_from(outside), min_size=1, max_size=3, unique=True)))
        elif move == "shrink" and S:
            S = S - set(draw(st.lists(st.sampled_from(sorted(S)), min_size=1, max_size=3, unique=True)))
        elif move == "swap" and S and outside:
            S = (S - {draw(st.sampled_from(sorted(S)))}) | {draw(st.sampled_from(outside))}
        elif move == "jump":
            S = set(draw(st.lists(st.sampled_from(cands), max_size=8, unique=True)))
        query = draw(st.sampled_from(["gains", "totals_with", "per_topology_saved", "swap_totals"]))
        outside = [v for v in cands if v not in S]
        ws = draw(st.lists(st.sampled_from(outside), max_size=6, unique=True)) if outside else []
        steps.append((frozenset(S), query, ws))
    return inst, steps


@settings(max_examples=80)
@given(query_sequences())
def test_a_shared_structural_evaluator_answers_query_sequences_as_fresh_ones_and_bfs(sequence):
    inst, steps = sequence
    shared = make_evaluator(inst, "structural")
    ref = BfsEvaluator(inst)
    for S, query, ws in steps:
        fresh = type(shared)(inst)
        if query == "gains":
            want = ref.gains(S)
            assert np.array_equal(fresh.gains(S), want)
            assert np.array_equal(shared.gains(S), want)
        elif query == "totals_with":
            want = list(ref.totals_with(S, ws))
            assert list(fresh.totals_with(S, ws)) == want
            assert list(shared.totals_with(S, ws)) == want
        elif query == "swap_totals":
            allowed = np.ones((len(S), inst.n), dtype=bool)
            want = ref.swap_totals(S, allowed)
            assert np.array_equal(fresh.swap_totals(S, allowed), want)
            assert np.array_equal(shared.swap_totals(S, allowed), want)
        else:
            want = ref.per_topology_saved(S)
            assert fresh.per_topology_saved(S) == want
            assert shared.per_topology_saved(S) == want
        if isinstance(shared, IcDominatorEvaluator):
            # moved both ways, the shared state must still hold sound certificates
            assert_state_matches_references(inst, shared, shared._vaccinated)


@pytest.mark.parametrize("bound", [1, 5, 2**16, 2**16 + 1, 2**31])
def test_stable_order_matches_a_stable_argsort(bound):
    rng = np.random.default_rng(bound)
    for size in (0, 1, 1000):
        keys = rng.integers(0, bound, size=size)
        keys[: size // 2] = keys[size // 2 :][: size // 2]  # repeated keys keep their order
        assert np.array_equal(_stable_order(keys, bound), np.argsort(keys, kind="stable"))


def test_no_dom_table_on_lt_and_no_one_sweep_on_ic_back_edge():
    for seed in range(6):
        inst = random_instance(seed, model=LT, n=30, p=0.2, s=5, n_infected=2, k=3)
        fast = LtChainEvaluator(inst)
        assert not isinstance(fast, IcDominatorEvaluator)
        assert not hasattr(fast, "_dom")
    # 0 -> 1 -> 2 -> 1: the edge 2 -> 1 runs back to a lower BFS level
    edges = [(0, 1), (1, 2), (2, 1), (2, 3), (0, 4), (4, 5), (5, 4)]
    inst = single_topology_instance(6, edges, {0}, 1)
    fast = IcDominatorEvaluator(inst)
    for S in (set(), {4}, {4, 2}, {4, 5, 3}):
        assert np.array_equal(fast.gains(S), naive_gains(inst, S))


@settings(max_examples=60)
@given(seed=st.integers(0, 2**20), model=st.sampled_from([LT, IC]), enumerated=st.booleans())
def test_bfs_structural_and_oracle_agree_on_every_subset(seed, model, enumerated):
    # each size-k subset is its largest node w added to the rest, so the
    # totals_with calls below cover every subset exactly once
    if enumerated:
        inst = enumerated_instance(seed, model, n=5)
    else:
        inst = random_instance(seed, model=model, n=8, p=0.3, s=4, n_infected=1, k=3)
    ref = make_evaluator(inst, "bfs")
    fast = make_evaluator(inst, "structural")
    cands = inst.candidates()
    best = -np.inf
    for rest in itertools.combinations(cands, inst.k - 1):
        ws = [w for w in cands if not rest or w > rest[-1]]
        totals = list(ref.totals_with(rest, ws))
        assert list(fast.totals_with(rest, ws)) == totals
        best = max([best, *totals])
    S, value = exhaustive_optimal(inst)
    assert fast.total_saved(S.nodes) == ref.total_saved(S.nodes) == best
    assert value == (best if enumerated else best / len(inst.topologies))


@settings(max_examples=20)
@given(seed=st.integers(0, 2**20), data=st.data())
def test_ic_kernel_equals_bfs_on_enumerated_instance(seed, data):
    # mu-weighted floats must agree bit for bit, ties included
    inst = enumerated_instance(seed, IC)
    S = frozenset(data.draw(st.lists(st.sampled_from(inst.candidates()), max_size=3, unique=True)))
    ref = BfsEvaluator(inst)
    fast = IcDominatorEvaluator(inst)
    assert np.array_equal(fast.gains(S), ref.gains(S))
    ws = [w for w in inst.candidates() if w not in S]
    assert list(fast.totals_with(S, ws)) == list(ref.totals_with(S, ws))
