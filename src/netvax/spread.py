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
from typing import Iterable

import numpy as np

from .errors import CapacityError, ContractViolationError, ModelMismatchError, ParameterError
from .graph import LT, Graph
from .topology import Topology, TopologySet
from .util import as_rng, first_repeat

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
        # both checks read the stacked layout: row t * n + u is node u of topology t
        edges = self.topologies.stacked_edges()
        local = edges % n
        known = self.graph.src * n + self.graph.dst
        unknown = ~np.isin(local[:, 0].astype(np.int64) * n + local[:, 1], known)
        if unknown.any():
            row = int(np.argmax(unknown))
            src, dst = local[row].tolist()
            raise ParameterError(
                f"topology {edges[row, 0] // n}: live edge ({src},{dst}) is not a graph edge"
            )
        twice = first_repeat(edges[:, 1]) if self.graph.model == LT else None
        if twice is not None:
            head = int(edges[twice, 1])
            raise ModelMismatchError(
                f"LT topology {head // n}: node {head % n} has two incoming live edges"
            )

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

    @classmethod
    def from_counts(cls, n: int, per_topology_saved, mu: np.ndarray | None) -> "SpreadResult":
        """The result for these counts: their mu-weighted total, or their mean without mu.

        The one place the mean is taken, so ``avg_saved`` and the solvers,
        which read the counts off their evaluator, report the same floats.
        """
        per = tuple(per_topology_saved)
        mean = weighted_total(per, mu)
        if mu is None and per:
            mean /= len(per)
        return cls(n, per, mean)

    @property
    def avg_infected(self) -> float:
        return self.n - self.avg_saved

    @property
    def per_topology_infected(self) -> tuple[int, ...]:
        return tuple(self.n - s for s in self.per_topology_saved)


def checked_nodes(S, n: int, infected=frozenset(), k: int | None = None) -> frozenset[int]:
    """S (or I) as a node set, checked: every node in 0..n-1, none infected, at most k."""
    S = S.nodes if isinstance(S, VaccinationSet) else frozenset(int(v) for v in S)
    outside = sorted(v for v in S if not 0 <= v < n)
    if outside:
        raise ContractViolationError(f"nodes {outside} lie outside 0..{n - 1}")
    overlap = S & infected
    if overlap:
        raise ContractViolationError(f"vaccinated and infected sets overlap: {sorted(overlap)}")
    if k is not None and len(S) > k:
        raise ContractViolationError(f"|S| = {len(S)} exceeds budget k = {k}")
    return S


def _reach(topology: Topology, S: frozenset[int], I: frozenset[int]) -> set[int]:
    visited = bytearray(topology.n)
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
    return reached


def infected_on(topology: Topology, S, I: Iterable[int]) -> frozenset[int]:
    """Nodes reachable from I along live edges avoiding vaccinated nodes.

    The infected set always contains I itself and never contains a
    vaccinated node.
    """
    I = checked_nodes(I, topology.n)
    return frozenset(_reach(topology, checked_nodes(S, topology.n, I), I))


def saved_on(topology: Topology, S, I: Iterable[int]) -> int:
    """n minus the infected count on one topology."""
    return topology.n - len(infected_on(topology, S, I))


def weighted_total(per_topology, mu: np.ndarray | None):
    """The one reduction of per-topology counts, so every path produces identical floats.

    ``per_topology`` is one integer count per topology, reduced to a float,
    or a (topologies, candidates) integer array, reduced to one float per
    column.  Columns are reduced one at a time exactly as a 1-D count list
    is, because ``mu @ counts`` sums in another order and can differ in the
    last bit; without mu the integer sums are exact either way.
    """
    if isinstance(per_topology, np.ndarray) and per_topology.ndim == 2:
        if mu is None:
            return per_topology.sum(axis=0).astype(float)
        columns = np.ascontiguousarray(per_topology.T, dtype=float)
        return np.array([weighted_total(col, mu) for col in columns])
    if mu is None:
        return float(sum(per_topology))
    return float(np.dot(mu, np.asarray(per_topology, dtype=float)))


def avg_saved(instance: ProblemInstance, S) -> SpreadResult:
    """Saved counts over the instance's topologies and their weighted mean.

    Enumerated topology sets carry exact probabilities, in which case the
    mean is the mu-weighted total, the exact expectation; sampled sets
    divide the total by s.
    """
    I = instance.infected
    S = checked_nodes(S, instance.n, I, instance.k)
    per = tuple(t.n - len(_reach(t, S, I)) for t in instance.topologies)
    return SpreadResult.from_counts(instance.n, per, instance.topologies.mu)


def exhaustive_optimal(instance: ProblemInstance) -> tuple[VaccinationSet, float]:
    """Brute-force best vaccination set: scans every size-k subset.

    Ties are broken toward the lexicographically smallest node list, so the
    oracle is deterministic.
    """
    candidates = instance.candidates()
    k = instance.k
    if math.comb(len(candidates), k) > EXHAUSTIVE_MAX_SUBSETS:
        raise CapacityError(
            f"C({len(candidates)},{k}) subsets exceed the {EXHAUSTIVE_MAX_SUBSETS} guard"
        )
    best_set: tuple[int, ...] | None = None
    best_val = -math.inf
    for combo in itertools.combinations(candidates, k):
        val = avg_saved(instance, combo).avg_saved
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
    S = checked_nodes(S, topology.n)
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
