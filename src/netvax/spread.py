"""Infection spread evaluation on live-edge topologies.

A node contracts the disease iff it is reachable from an infected seed along
live edges that avoid vaccinated nodes; vaccinated nodes are never infected
and never transmit.  The maximization objective throughout the package is the
saved count, n minus the number of infected nodes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import CapacityError, ContractViolationError, ModelMismatchError, ParameterError
from .graph import LT, Graph
from .topology import Topology, TopologySet
from .util import as_rng

# Guard for the brute-force oracle: number of candidate subsets it will scan.
EXHAUSTIVE_MAX_SUBSETS = 2_000_000


@dataclass(frozen=True)
class VaccinationSet:
    nodes: frozenset[int]

    def __len__(self) -> int:
        return len(self.nodes)

    def sorted(self) -> list[int]:
        return sorted(self.nodes)


@dataclass(frozen=True)
class ProblemInstance:
    """A graph, its infected seeds, a vaccine budget, and sampled topologies."""

    graph: Graph
    infected: frozenset[int]
    k: int
    topologies: TopologySet

    def __post_init__(self):
        n = self.graph.n
        object.__setattr__(self, "infected", frozenset(int(i) for i in self.infected))
        if any(not 0 <= i < n for i in self.infected):
            raise ParameterError("infected nodes must lie in 0..n-1")
        if not (0 <= self.k <= n - len(self.infected)):
            raise ParameterError("budget k must satisfy 0 <= k <= n - |infected|")
        if self.topologies.topologies and self.topologies.n != n:
            raise ParameterError("topology node count does not match the graph")
        pairs = {(src, dst) for src, dst, _ in self.graph.edges}
        for t, topo in enumerate(self.topologies):
            if not pairs.issuperset(topo.live_edges):
                src, dst = next(e for e in topo.live_edges if e not in pairs)
                raise ParameterError(f"topology {t}: live edge ({src},{dst}) is not a graph edge")
            if self.graph.model == LT:
                heads = set()
                for _, dst in topo.live_edges:
                    if dst in heads:
                        raise ModelMismatchError(
                            f"LT topology {t}: node {dst} has two incoming live edges"
                        )
                    heads.add(dst)

    @property
    def n(self) -> int:
        return self.graph.n

    def candidates(self) -> list[int]:
        """Vaccinatable nodes: everything outside the infected set, ascending."""
        return [v for v in range(self.n) if v not in self.infected]


@dataclass(frozen=True)
class SpreadResult:
    """Per-topology saved counts and their (mu-weighted) mean."""

    n: int
    per_topology_saved: tuple[int, ...]
    avg_saved: float

    @property
    def avg_infected(self) -> float:
        return self.n - self.avg_saved

    @property
    def per_topology_infected(self) -> tuple[int, ...]:
        return tuple(self.n - s for s in self.per_topology_saved)


def _as_node_set(S) -> frozenset[int]:
    if isinstance(S, VaccinationSet):
        return S.nodes
    return frozenset(int(v) for v in S)


def _check_disjoint(S: frozenset[int], I: frozenset[int]) -> None:
    overlap = S & I
    if overlap:
        raise ContractViolationError(f"vaccinated and infected sets overlap: {sorted(overlap)}")


def infected_on(topology: Topology, S, I: Iterable[int]) -> frozenset[int]:
    """Nodes reachable from I along live edges avoiding vaccinated nodes.

    The infected set always contains I itself and never contains a
    vaccinated node.
    """
    S = _as_node_set(S)
    I = frozenset(int(i) for i in I)
    _check_disjoint(S, I)
    n = topology.n
    visited = bytearray(n)
    for v in S:
        visited[v] = 1
    stack = []
    for i in I:
        if not visited[i]:
            visited[i] = 1
            stack.append(i)
    out = topology.out
    reached = set(I)
    while stack:
        u = stack.pop()
        for w in out[u]:
            if not visited[w]:
                visited[w] = 1
                reached.add(w)
                stack.append(w)
    return frozenset(reached)


def saved_on(topology: Topology, S, I: Iterable[int]) -> int:
    """n minus the infected count on one topology."""
    return topology.n - len(infected_on(topology, S, I))


def _weighted_mean(per: Sequence[int], topologies: TopologySet) -> float:
    """One canonical reduction shared by avg_saved and the oracle."""
    if len(per) == 0:
        return 0.0
    if all(t.mu is None for t in topologies):
        return float(sum(per)) / len(per)
    return float(np.dot(topologies.weights(), per))


def avg_saved(instance: ProblemInstance, S) -> SpreadResult:
    """Saved counts over the instance's topologies and their weighted mean.

    Enumerated topology sets carry exact probabilities, in which case the
    mean is the exact expectation; sampled sets weigh uniformly.
    """
    S = _as_node_set(S)
    _check_disjoint(S, instance.infected)
    if len(S) > instance.k:
        raise ContractViolationError(f"|S| = {len(S)} exceeds budget k = {instance.k}")
    per = tuple(saved_on(t, S, instance.infected) for t in instance.topologies)
    return SpreadResult(instance.n, per, _weighted_mean(per, instance.topologies))


def exhaustive_optimal(instance: ProblemInstance) -> tuple[VaccinationSet, float]:
    """Brute-force best vaccination set: scans every size-min(k, n-|I|) subset.

    Ties are broken toward the lexicographically smallest node list, so the
    oracle is deterministic.
    """
    candidates = instance.candidates()
    r = min(instance.k, len(candidates))
    if math.comb(len(candidates), r) > EXHAUSTIVE_MAX_SUBSETS:
        raise CapacityError(
            f"C({len(candidates)},{r}) subsets exceed the {EXHAUSTIVE_MAX_SUBSETS} guard"
        )
    topologies = instance.topologies
    I = instance.infected
    best_set: tuple[int, ...] | None = None
    best_val = -math.inf
    for combo in itertools.combinations(candidates, r):
        S = frozenset(combo)
        per = [saved_on(t, S, I) for t in topologies]
        val = _weighted_mean(per, topologies)
        if val > best_val:
            best_val = val
            best_set = combo
    assert best_set is not None
    return VaccinationSet(frozenset(best_set)), best_val


@dataclass(frozen=True)
class Witness:
    """One counterexample: gain(A, v) vs gain(B, v) with A subset of B."""

    topology: Topology
    infected: frozenset[int]
    A: frozenset[int]
    B: frozenset[int]
    v: int
    gain_subset: int
    gain_superset: int


@dataclass(frozen=True)
class WitnessSearchResult:
    submodularity_violation: Witness | None  # gain(A,v) < gain(B,v)
    supermodularity_violation: Witness | None  # gain(A,v) > gain(B,v)
    trials_used: int

    @property
    def found_both(self) -> bool:
        return self.submodularity_violation is not None and self.supermodularity_violation is not None


def marginal_gain(topology: Topology, S, v: int, I) -> int:
    """saved_on(S + v) - saved_on(S)."""
    S = _as_node_set(S)
    return saved_on(topology, S | {v}, I) - saved_on(topology, S, I)


def find_modularity_witness(
    max_n: int, trials: int, rng: np.random.Generator | int
) -> WitnessSearchResult:
    """Random search for violations of submodularity and of supermodularity.

    Each trial draws a small random topology, an infected set, nested sets
    A strictly inside B, and a node v outside B, then compares the marginal
    gains of v at A and at B.  Returns as soon as both inequality directions
    have been witnessed, or after ``trials`` attempts.
    """
    if max_n < 5:
        raise ParameterError("witness search needs max_n >= 5")
    rng = as_rng(rng)
    sub: Witness | None = None
    sup: Witness | None = None
    used = 0
    for trial in range(trials):
        used = trial + 1
        n = int(rng.integers(5, max_n + 1))
        p = float(rng.uniform(0.15, 0.5))
        edges = [
            (i, j)
            for i in range(n)
            for j in range(n)
            if i != j and rng.random() < p
        ]
        topo = Topology(n, edges)
        n_inf = int(rng.integers(1, 3))
        infected = frozenset(int(x) for x in rng.choice(n, size=n_inf, replace=False))
        rest = sorted(set(range(n)) - infected)
        if len(rest) < 3:
            continue
        b_size = int(rng.integers(1, min(3, len(rest) - 1) + 1))
        B = frozenset(int(x) for x in rng.choice(rest, size=b_size, replace=False))
        a_size = int(rng.integers(0, b_size))
        A = frozenset(int(x) for x in rng.choice(sorted(B), size=a_size, replace=False))
        outside = sorted(set(rest) - B)
        if not outside:
            continue
        v = int(outside[int(rng.integers(0, len(outside)))])
        g_a = marginal_gain(topo, A, v, infected)
        g_b = marginal_gain(topo, B, v, infected)
        if g_a < g_b and sub is None:
            sub = Witness(topo, infected, A, B, v, g_a, g_b)
        elif g_a > g_b and sup is None:
            sup = Witness(topo, infected, A, B, v, g_a, g_b)
        if sub is not None and sup is not None:
            break
    return WitnessSearchResult(sub, sup, used)
