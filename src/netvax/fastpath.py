"""Spread evaluators used by the search heuristics.

Two interchangeable strategies:

* ``bfs`` re-runs a reachability pass per candidate set per topology, exactly
  as the greedy/local-search pseudocode is usually stated.  It is the
  reference for timing comparisons.
* ``structural`` exploits topology structure for identical counts at lower
  cost: LT realizations have at most one incoming live edge per node, so the
  infected set forms a forest rooted at the seeds and the marginal gain of
  vaccinating a node is its infected-subtree size; for IC realizations the
  gain of a node is the number of infected nodes it dominates on the
  reachability flowgraph.

A swap neighbourhood needs, for each removed node v, the totals of
``(S - {v}) | {w}`` over the replacements w: ``totals_with(S - {v}, ws)``.
``bfs`` evaluates each of those sets literally.  The structural evaluators
compute the per-topology saved count of ``S - {v}`` and the per-topology gain
of every node once, and add them, so one removed node costs one gains pass.

Both strategies are exact; tests assert they return equal counts.  Every
float comes from ``_weighted_total`` over per-topology integer counts, so the
strategies agree bit for bit, on mu-weighted (enumerated) instances too.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ModelMismatchError
from .graph import IC, LT
from .spread import ProblemInstance


def _weighted_total(per_topology, mu: np.ndarray | None):
    """Single canonical reduction so every evaluator produces identical floats.

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
        return np.array([_weighted_total(col, mu) for col in columns])
    if mu is None:
        return float(sum(per_topology))
    return float(np.dot(mu, np.asarray(per_topology, dtype=float)))


class BfsEvaluator:
    """Reachability-based evaluation with reusable visitation buffers."""

    name = "bfs"

    def __init__(self, instance: ProblemInstance):
        self.instance = instance
        self.n = instance.n
        self.infected = sorted(instance.infected)
        self._infected_set = instance.infected
        self.outs = [t.out for t in instance.topologies]
        mus = [t.mu for t in instance.topologies]
        self.mu = np.array(mus, dtype=float) if all(m is not None for m in mus) and mus else None
        self._vis = [0] * self.n
        self._epoch = 0

    def _infected_order(self, out, blocked, extra=-1) -> list[int]:
        """Infected nodes of one topology, each listed after its infector."""
        self._epoch += 1
        epoch = self._epoch
        vis = self._vis
        for v in blocked:
            vis[v] = epoch
        if extra >= 0:
            vis[extra] = epoch
        order = []
        for i in self.infected:
            if vis[i] != epoch:
                vis[i] = epoch
                order.append(i)
        stack = list(order)
        while stack:
            for w in out[stack.pop()]:
                if vis[w] != epoch:
                    vis[w] = epoch
                    order.append(w)
                    stack.append(w)
        return order

    def _saved_one(self, out, blocked, extra=-1) -> int:
        return self.n - len(self._infected_order(out, blocked, extra))

    def per_topology_saved(self, S) -> list[int]:
        blocked = list(S)
        return [self._saved_one(out, blocked) for out in self.outs]

    def total_saved(self, S) -> float:
        return _weighted_total(self.per_topology_saved(S), self.mu)

    def batch_total(self, candidate_sets) -> list[float]:
        return [self.total_saved(S) for S in candidate_sets]

    def totals_with(self, base, candidates) -> list[float]:
        """Total saved of ``base | {w}`` for each candidate w, set by set."""
        base = frozenset(base)
        return self.batch_total([base | {w} for w in candidates])

    def gains(self, S) -> np.ndarray:
        """Marginal gain of adding each candidate node, full re-evaluation."""
        S = set(S)
        base = _weighted_total(self.per_topology_saved(S), self.mu)
        blocked = list(S)
        out = np.full(self.n, -math.inf)
        for v in range(self.n):
            if v in S or v in self._infected_set:
                continue
            per = [self._saved_one(adj, blocked, extra=v) for adj in self.outs]
            out[v] = _weighted_total(per, self.mu) - base
        return out


class _StructuralEvaluator(BfsEvaluator):
    """Shared reductions of the structural evaluators.

    A subclass supplies ``_counts(S)``: per topology, the integer saved count
    of S and the integer gain of vaccinating each node in addition to S.
    Gains and swap totals both reduce those counts with ``_weighted_total``.
    Each concrete class defines its own ``gains`` so that the benchmark's
    tracer, which wraps methods by class and name, finds it there.
    """

    def _counts(self, S) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def _masked_gains(self, S, gain_counts: np.ndarray) -> np.ndarray:
        gains = _weighted_total(gain_counts, self.mu)
        mask = list(set(S) | self._infected_set)
        if mask:
            gains[mask] = -math.inf
        return gains

    def totals_with(self, base, candidates) -> np.ndarray:
        # saved(base | {w}) = saved(base) + gain(base)[w] in every topology
        saved, gain_counts = self._counts(base)
        return _weighted_total(gain_counts[:, list(candidates)] + saved[:, None], self.mu)


class LtChainEvaluator(_StructuralEvaluator):
    """Exact LT evaluation via the per-node incoming-parent structure.

    Every node has at most one possible infector per realization, so the
    infected nodes of a topology form a forest hanging off the seeds, and
    the gain of vaccinating an infected node is the size of its subtree.
    One traversal from the seeds per topology, stopping at vaccinated nodes,
    yields both the saved count and every node's gain, so a gains vector and
    the swap totals of one removed node each cost one pass over the
    topologies.  Set totals use the inherited traversal alone.
    """

    name = "structural"

    def __init__(self, instance: ProblemInstance):
        super().__init__(instance)
        n = self.n
        self._parent_lists = []
        for t, topo in enumerate(instance.topologies):
            parent = [n] * n
            for src, dst in topo.live_edges:
                if parent[dst] != n:
                    raise ModelMismatchError(
                        f"topology {t}: node {dst} has two incoming live edges"
                    )
                parent[dst] = src
            self._parent_lists.append(parent)
        self._seed = bytearray(n)
        for i in self.infected:
            self._seed[i] = 1

    def batch_total(self, candidate_sets) -> list[float]:
        # Defined on this class, not only inherited, so that the benchmark's
        # tracer can wrap LT set evaluation by name.
        return [self.total_saved(S) for S in candidate_sets]

    def _counts(self, S) -> tuple[np.ndarray, np.ndarray]:
        n = self.n
        seed = self._seed
        saved = np.empty(len(self.outs), dtype=np.int64)
        gain_counts = np.empty((len(self.outs), n), dtype=np.int64)
        for t, (out, parent) in enumerate(zip(self.outs, self._parent_lists)):
            order = self._infected_order(out, S)
            saved[t] = n - len(order)
            size = [0] * n
            for u in reversed(order):  # every subtree before its root
                if not seed[u]:
                    size[u] += 1
                    par = parent[u]
                    if not seed[par]:
                        size[par] += size[u]
            gain_counts[t] = size
        return saved, gain_counts

    def gains(self, S) -> np.ndarray:
        return self._masked_gains(S, self._counts(S)[1])


class IcDominatorEvaluator(_StructuralEvaluator):
    """IC gains via dominator subtree counts on the reachability flowgraph.

    A node u is saved by vaccinating v exactly when every live path from the
    seeds to u passes through v, i.e. v dominates u with respect to a virtual
    super-source feeding all seeds.  One dominator pass per topology yields
    the saved count and every node's gain; set totals still use BFS.

    Successive calls with S growing one node at a time (the greedy pattern)
    reuse per-topology results: removing a node that was not reachable in a
    topology leaves that topology's flowgraph, and hence its counts, unchanged.
    """

    name = "structural"

    def __init__(self, instance: ProblemInstance):
        super().__init__(instance)
        self.ins = [t.in_parents() for t in instance.topologies]
        self._infected_mark = bytearray(self.n + 1)
        for i in self.infected:
            self._infected_mark[i] = 1
        s = len(self.outs)
        self._cache_S: frozenset[int] | None = None
        self._cache_saved = np.zeros(s, dtype=np.int64)
        self._cache_counts = np.zeros((s, self.n), dtype=np.int64)
        self._cache_reach: list[bytearray | None] = [None] * s

    def gains(self, S) -> np.ndarray:
        return self._masked_gains(S, self._counts(S)[1])

    def _counts(self, S) -> tuple[np.ndarray, np.ndarray]:
        S = frozenset(S)
        incremental = (
            self._cache_S is not None
            and len(S) == len(self._cache_S) + 1
            and self._cache_S < S
        )
        added = next(iter(S - self._cache_S)) if incremental else -1
        for t in range(len(self.outs)):
            if incremental and not self._cache_reach[t][added]:
                continue
            row, reach = self._dominator_pass(self.outs[t], self.ins[t], S)
            self._cache_counts[t] = row
            self._cache_saved[t] = self.n - reach.count(1)
            self._cache_reach[t] = reach
        self._cache_S = S
        return self._cache_saved, self._cache_counts

    def _dominator_pass(self, out, preds, S):
        """Dominated-node counts for one topology plus its reachable mask."""
        n = self.n
        root = n  # virtual super-source feeding every seed
        blocked = bytearray(n + 1)
        for v in S:
            blocked[v] = 1
        visited = bytearray(n + 1)
        visited[root] = 1
        po = [0] * (n + 1)
        order: list[int] = []
        stack: list[list] = [[root, 0]]
        while stack:
            frame = stack[-1]
            u = frame[0]
            succs = self.infected if u == root else out[u]
            ptr = frame[1]
            advanced = False
            while ptr < len(succs):
                w = succs[ptr]
                ptr += 1
                if not visited[w] and not blocked[w]:
                    visited[w] = 1
                    frame[1] = ptr
                    stack.append([w, 0])
                    advanced = True
                    break
            if not advanced:
                stack.pop()
                po[u] = len(order)
                order.append(u)
        counts = [0] * n
        reach = visited
        reach[root] = 0
        for v in S:
            reach[v] = 0  # blocked nodes are not reachable
        if len(order) <= 1:
            return counts, reach

        idom = [-1] * (n + 1)
        idom[root] = root
        infected_mark = self._infected_mark
        rpo = order[-2::-1]  # skip the root, which finishes last
        changed = True
        while changed:
            changed = False
            for u in rpo:
                new = root if infected_mark[u] else -1
                for p in preds[u]:
                    if visited[p] and not blocked[p] and idom[p] != -1:
                        if new == -1:
                            new = p
                        elif new != p:
                            a, b = new, p
                            while a != b:
                                while po[a] < po[b]:
                                    a = idom[a]
                                while po[b] < po[a]:
                                    b = idom[b]
                            new = a
                if new != idom[u]:
                    idom[u] = new
                    changed = True
        size = [1] * (n + 1)
        for u in order[:-1]:  # postorder: dominator-tree children before parents
            size[idom[u]] += size[u]
        for u in order[:-1]:
            if not infected_mark[u]:
                counts[u] = size[u]
        return counts, reach


def make_evaluator(instance: ProblemInstance, evaluation: str = "bfs") -> BfsEvaluator:
    """Factory: 'bfs' for literal re-evaluation, 'structural' for the fast exact path."""
    if evaluation == "bfs":
        return BfsEvaluator(instance)
    if evaluation == "structural":
        if instance.graph.model == LT:
            return LtChainEvaluator(instance)
        if instance.graph.model == IC:
            return IcDominatorEvaluator(instance)
        raise ModelMismatchError(f"no structural evaluator for model {instance.graph.model}")
    raise ValueError(f"unknown evaluation mode {evaluation!r}")
