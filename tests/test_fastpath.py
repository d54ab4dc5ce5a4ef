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
from netvax.fastpath import BfsEvaluator, IcDominatorEvaluator, LtChainEvaluator, make_evaluator


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


def test_narrowed_sweeps_match_sweeps_over_every_row_along_greedy(monkeypatch):
    # after the second sweep the kernel sweeps only its open rows; sweeping
    # every row instead must give the same answers bit for bit
    cfg = ExperimentConfig(
        model=IC, generator="waxman", n=128, centers=5, samples=50, seed=0, alpha=0.05, beta=0.5
    )
    inst = build_instance(cfg, 0)
    open_levels = IcDominatorEvaluator._open_levels

    def trajectory():
        fast = IcDominatorEvaluator(inst)
        S, out = set(), []
        for _ in range(12):
            gains = fast.gains(S)
            out.append((gains, fast.per_topology_saved(S)))
            if S:
                out.append(fast.swap_totals(S, neighbor_mask(inst, S)))
            S.add(int(np.argmax(gains)))
        return out

    def every_row(self, table, blocked, open_rows):
        return open_levels(self, table, blocked, np.ones_like(open_rows))

    with monkeypatch.context() as m:
        m.setattr(IcDominatorEvaluator, "_open_levels", every_row)
        expected = trajectory()
    settled = []  # per narrowing: the rows it leaves out that are not vaccinated

    def spy(self, table, blocked, open_rows):
        settled.append(int(np.count_nonzero(~blocked & ~open_rows)))
        return open_levels(self, table, blocked, open_rows)

    monkeypatch.setattr(IcDominatorEvaluator, "_open_levels", spy)
    got = trajectory()
    assert settled and min(settled) > 0
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        if isinstance(a, tuple):
            assert np.array_equal(a[0], b[0]) and a[1] == b[1]
        else:
            assert np.array_equal(a, b)


def test_no_dom_table_on_lt_and_no_one_sweep_on_ic_back_edge():
    for seed in range(6):
        inst = random_instance(seed, model=LT, n=30, p=0.2, s=5, n_infected=2, k=3)
        fast = LtChainEvaluator(inst)
        assert not isinstance(fast, IcDominatorEvaluator)
        assert not hasattr(fast, "_full") and not hasattr(fast, "_compact")
    # 0 -> 1 -> 2 -> 1: the edge 2 -> 1 runs back to a lower BFS level;
    # vaccinating 4 leaves 4 of the 6 reached rows, so gains({4}) compacts
    edges = [(0, 1), (1, 2), (2, 1), (2, 3), (0, 4), (4, 5), (5, 4)]
    inst = single_topology_instance(6, edges, {0}, 1)
    fast = IcDominatorEvaluator(inst)
    assert np.array_equal(fast.gains(set()), naive_gains(inst, set()))
    assert fast._compact is fast._full
    assert np.array_equal(fast.gains({4}), naive_gains(inst, {4}))
    assert fast._compact.base == {4} and len(fast._compact.node) == 4
    for S in ({4}, {4, 2}, {4, 5, 3}):
        assert np.array_equal(fast.gains(S), naive_gains(inst, S))


def matches_fresh(inst, fast, S, rng):
    """Assert that ``fast`` answers S bit for bit as a fresh evaluator does; return its gains.

    ``gains`` comes last, because it may reset or rebuild the compact table.
    """
    fresh = IcDominatorEvaluator(inst)
    S = frozenset(S)
    ws = [w for w in inst.candidates() if w not in S]
    assert np.array_equal(fast.totals_with(S, ws), fresh.totals_with(S, ws))
    allowed = np.zeros((len(S), inst.n), dtype=bool)
    rows = rng.choice(len(S), size=min(4, len(S)), replace=False)
    allowed[rows] = rng.random((len(rows), inst.n)) < 0.5
    assert np.array_equal(fast.swap_totals(S, allowed), fresh.swap_totals(S, allowed))
    assert fast.per_topology_saved(S) == fresh.per_topology_saved(S)
    got = fast.gains(S)
    assert np.array_equal(got, fresh.gains(S))
    return got


def test_compacted_ic_table_matches_a_fresh_evaluator(monkeypatch):
    # at the paper's IC size, greedy compacts the table after some 75 steps
    cfg = ExperimentConfig(
        model=IC, generator="waxman", n=512, centers=5, samples=50, seed=0, alpha=0.05, beta=0.5
    )
    inst = build_instance(cfg, 0)
    fast = IcDominatorEvaluator(inst)
    S = set()
    while fast._compact is fast._full:
        S.add(int(np.argmax(fast.gains(S))))
    assert 0 < len(fast._compact.node) < 0.8 * len(fast._full.node)
    # every pass names its set and then its table; S - {v} of a swap pass
    # holds the base only when v is not in it
    passes, tables = [], []
    dominator_pass = IcDominatorEvaluator._dominator_pass
    dominator_sets = IcDominatorEvaluator._dominator_sets

    def spy_pass(self, S, candidates):
        if self is fast:
            passes.append(frozenset(S))
        return dominator_pass(self, S, candidates)

    def spy_sets(self, table, blocked):
        if self is fast:
            tables.append(table)
        return dominator_sets(self, table, blocked)

    monkeypatch.setattr(IcDominatorEvaluator, "_dominator_pass", spy_pass)
    monkeypatch.setattr(IcDominatorEvaluator, "_dominator_sets", spy_sets)
    rng = np.random.default_rng(0)
    base = fast._compact.base
    others = [v for v in inst.candidates() if v not in base]
    supersets = [base | {int(v) for v in rng.choice(others, size=extra)} for extra in (0, 1, 3, 8)]
    without_one = (base - {min(base)}) | {int(v) for v in rng.choice(others, size=3)}
    for S in supersets + [without_one]:
        compact = fast._compact
        assert (compact.base <= S) == (S is not without_one)
        passes.clear()
        tables.clear()
        matches_fresh(inst, fast, S, rng)
        assert len(passes) == len(tables) > 0
        for P, table in zip(passes, tables):
            assert table is (compact if compact.base <= P else fast._full)
        assert (tables[-1] is compact) == (S is not without_one)  # the gains pass


@settings(max_examples=40)
@given(
    inst=st.one_of(
        cyclic_ic_instances(),
        st.integers(0, 2**20).map(lambda seed: enumerated_instance(seed, IC)),
    ),
    seed=st.integers(0, 2**20),
)
def test_compacted_ic_tables_match_a_fresh_evaluator_on_small_instances(inst, seed):
    rng = np.random.default_rng(seed)
    fast = IcDominatorEvaluator(inst)
    cands = inst.candidates()
    # greedy over every candidate, which compacts on the way
    S = frozenset()
    for _ in cands:
        assert fast._compact.base <= S
        S = S | {int(np.argmax(matches_fresh(inst, fast, S, rng)))}
    # with a table under any base, sets with and without it answer as on a fresh one
    count = int(rng.integers(len(cands) + 1))
    base = frozenset(int(v) for v in rng.choice(cands, size=count, replace=False))
    for size in range(3):
        fast._compact = fast._table(base)
        extra = rng.choice(cands, size=min(size, len(cands)), replace=False)
        matches_fresh(inst, fast, base | {int(v) for v in extra}, rng)
        fast._compact = fast._table(base)
        matches_fresh(inst, fast, frozenset(int(v) for v in extra), rng)


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
