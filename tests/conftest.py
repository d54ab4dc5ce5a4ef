"""Shared builders for the test suite."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import settings

from netvax import (
    IC,
    LT,
    Graph,
    ProblemInstance,
    Topology,
    TopologySet,
    generate_er,
    sample_ic,
    sample_lt,
)
from netvax.bench import ExperimentConfig

# Property tests draw the same examples on every run, so tier-1 stays
# deterministic; solver calls have no per-example deadline.
settings.register_profile("netvax", derandomize=True, deadline=None)
settings.load_profile("netvax")


def tiny_config(**overrides):
    """A small structural LT experiment: Waxman n=24, s=8, one repetition."""
    base = ExperimentConfig(
        model=LT,
        generator="waxman",
        n=24,
        centers=3,
        samples=8,
        algorithms=("greedy",),
        seed=7,
        repetitions=1,
        evaluation="structural",
    )
    return replace(base, **overrides)


def path_graph(values, model):
    """Chain 0 -> 1 -> ... with the given edge values."""
    edges = [(i, i + 1, v) for i, v in enumerate(values)]
    return Graph(len(values) + 1, edges, model)


def topology_from_edges(n, edges, mu=None):
    return Topology(n, edges, mu=mu)


def single_topology_instance(n, edges, infected, k):
    """Instance whose only topology is the given live-edge set."""
    topo = Topology(n, edges)
    ts = TopologySet([topo], source_graph_hash="", seed=0)
    graph = Graph(n, [(s, d, 1.0) for s, d in edges], IC)
    return ProblemInstance(graph, frozenset(infected), k, ts)


def random_instance(seed, model=None, n=10, p=0.25, s=4, n_infected=1, k=2):
    """Small random instance; model alternates with the seed when not given."""
    rng = np.random.default_rng(seed)
    if model is None:
        model = LT if seed % 2 else IC
    graph = generate_er(n, p, model, int(rng.integers(1 << 30)))
    infected = frozenset(int(v) for v in rng.choice(n, size=n_infected, replace=False))
    k = min(k, n - n_infected)
    sampler = sample_lt if model == LT else sample_ic
    ts = sampler(graph, s, int(rng.integers(1 << 30)))
    return ProblemInstance(graph, infected, k, ts)


def random_topology(rng, n, p):
    """Arbitrary random digraph realization (not tied to a weighted graph)."""
    mask = rng.random((n, n)) < p
    np.fill_diagonal(mask, False)
    edges = [(int(i), int(j)) for i, j in zip(*np.nonzero(mask))]
    return Topology(n, edges)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
