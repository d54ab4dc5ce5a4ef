"""Tests of the benchmark's independent checker against networkx and brute force.

Run with ``python3 -m pytest benchmark/checker_selftest.py`` from the repository
root.  The file name keeps it out of the package's own test collection.
"""

from __future__ import annotations

import itertools
import os
import sys

import networkx as nx
import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from checker import TOL, Instance  # noqa: E402


def random_instance(rng, n, s, p, n_infected, k, one_parent=False):
    edges = []
    for _ in range(s):
        live = []
        for j in range(n):
            sources = [i for i in range(n) if i != j and rng.random() < p]
            if one_parent and sources:
                sources = [sources[int(rng.integers(len(sources)))]]
            live.extend((i, j) for i in sources)
        edges.append(live)
    infected = rng.choice(n, size=n_infected, replace=False)
    return Instance(n, infected, k, edges)


def nx_saved(inst: Instance, S) -> list[int]:
    """Per-topology saved counts from networkx descendants, vaccinated nodes removed."""
    out = []
    for e in inst.edges:
        g = nx.DiGraph()
        g.add_nodes_from(range(inst.n))
        g.add_edges_from(map(tuple, e.tolist()))
        g.remove_nodes_from(S)
        reached = set(int(i) for i in inst.infected)
        for i in inst.infected:
            reached |= nx.descendants(g, int(i))
        out.append(inst.n - len(reached))
    return out


def brute_force_optimum(inst: Instance) -> float:
    """Fewest average infections over every vaccination set of size min(k, candidates)."""
    candidates = [v for v in range(inst.n) if v not in set(inst.infected.tolist())]
    r = min(inst.k, len(candidates))
    best = max(sum(nx_saved(inst, S)) for S in itertools.combinations(candidates, r))
    return inst.n - best / inst.s


@pytest.mark.parametrize("seed", range(12))
def test_reachability_matches_networkx(seed):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, n=int(rng.integers(4, 14)), s=4, p=0.25, n_infected=2, k=3)
    candidates = [v for v in range(inst.n) if v not in set(inst.infected.tolist())]
    for _ in range(5):
        size = int(rng.integers(0, min(3, len(candidates)) + 1))
        S = [int(v) for v in rng.choice(candidates, size=size, replace=False)]
        assert inst.per_topology_saved(S).tolist() == nx_saved(inst, S)
        assert inst.avg_saved(S) == sum(nx_saved(inst, S)) / inst.s


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("one_parent", [False, True])
def test_blp_matches_brute_force_and_bounds_lp(seed, one_parent):
    rng = np.random.default_rng(100 + seed)
    inst = random_instance(rng, n=7, s=3, p=0.3, n_infected=1, k=2, one_parent=one_parent)
    optimum = brute_force_optimum(inst)
    assert abs(inst.blp_optimum() - optimum) <= TOL
    assert inst.lp_optimum() <= optimum + TOL


def test_lp_violation_flags_each_kind_of_row():
    # One topology, chain 0 -> 1 -> 2, seed 0, budget 1.
    inst = Instance(3, [0], 1, [[(0, 1), (1, 2)]])
    feasible = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])  # nobody vaccinated
    assert inst.lp_violation(feasible) == 0.0
    assert inst.lp_objective(feasible) == 3.0
    blocked = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0])  # vaccinate node 1
    assert inst.lp_violation(blocked) == 0.0
    leaky = np.array([1.0, 0.5, 0.0, 0.0, 0.0, 0.0])  # edge rows violated
    assert inst.lp_violation(leaky) == pytest.approx(0.5)
    over_budget = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 1.0])
    assert inst.lp_violation(over_budget) == pytest.approx(1.0)
    seed_vaccinated = np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0])
    assert inst.lp_violation(seed_vaccinated) == pytest.approx(1.0)
    assert inst.lp_violation(feasible[:-1]) == float("inf")
    assert inst.blp_optimum() == pytest.approx(1.0)
