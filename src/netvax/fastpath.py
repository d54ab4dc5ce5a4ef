"""Spread evaluators used by the search heuristics.

Every evaluator supplies one method, ``_counts(S, candidates)``: per
topology, the integer saved count of S and the integer gain of vaccinating
each candidate in addition to S.  ``gains`` and ``totals_with`` are written
once, on ``BfsEvaluator``, and reduce those counts through
``spread.weighted_total``, as ``avg_saved`` does, so every evaluator
produces the same floats bit for bit, on mu-weighted (enumerated) instances
too.  Two strategies supply the counts:

* ``bfs`` runs one reachability pass per (topology, candidate), exactly as
  the greedy/local-search pseudocode is usually stated.  It is the reference
  for timing comparisons.
* ``structural`` runs one dominator kernel for both models.  Vaccinating v
  saves exactly the infected nodes that v dominates on the reachability
  flowgraph, where a virtual super-source feeds the seeds.  The kernel solves
  that dataflow for all topologies in one batched numpy pass per call, over a
  bitset table of ``s * (n + 1) * (n // 64 + 1) * 8`` bytes, and keeps no
  cache between calls.  An LT realization gives each node at most one live
  parent, so its dominator tree is the live-edge forest itself, a node's gain
  is its infected-subtree size, and the kernel finishes in one sweep.

A swap neighbourhood needs, for each removed node v, the totals of
``(S - {v}) | {w}`` over the replacements w: ``totals_with(S - {v}, ws)``,
which is ``saved(S - {v}) + gain(S - {v})[w]`` in every topology.  ``bfs``
traverses each of those sets literally; ``structural`` answers all of them
from one kernel pass.  Set totals use BFS in both.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ModelMismatchError, ParameterError
from .graph import IC, LT
from .spread import ProblemInstance, weighted_total
from .topology import stacked_levels


class BfsEvaluator:
    """Reachability-based evaluation with reusable visitation buffers.

    The base of every evaluator: a subclass replaces ``_counts`` and keeps
    the set totals and the reductions defined here.
    """

    name = "bfs"

    def __init__(self, instance: ProblemInstance):
        self.instance = instance
        self.n = instance.n
        self.infected = sorted(instance.infected)
        self._infected_set = instance.infected
        self.outs = [t.out for t in instance.topologies]
        self.mu = instance.topologies.mu
        self._vis = [0] * self.n
        self._epoch = 0

    def _saved_one(self, out, blocked, extra=-1) -> int:
        self._epoch += 1
        epoch = self._epoch
        vis = self._vis
        for v in blocked:
            vis[v] = epoch
        if extra >= 0:
            vis[extra] = epoch
        count = 0
        stack = []
        for i in self.infected:
            if vis[i] != epoch:
                vis[i] = epoch
                count += 1
                stack.append(i)
        while stack:
            for w in out[stack.pop()]:
                if vis[w] != epoch:
                    vis[w] = epoch
                    count += 1
                    stack.append(w)
        return self.n - count

    def per_topology_saved(self, S) -> list[int]:
        blocked = list(S)
        return [self._saved_one(out, blocked) for out in self.outs]

    def total_saved(self, S) -> float:
        return weighted_total(self.per_topology_saved(S), self.mu)

    def batch_total(self, candidate_sets) -> list[float]:
        # no caller in the package; the benchmark's tracer wraps it by name
        return [self.total_saved(S) for S in candidate_sets]

    def _counts(self, S, candidates) -> tuple[np.ndarray, np.ndarray]:
        """Per topology, the saved count of S and each candidate's gain on it.

        One traversal per (topology, candidate), with the candidate vaccinated
        alongside S.
        """
        blocked = list(S)
        saved = np.array(self.per_topology_saved(blocked), dtype=np.int64)
        with_each = np.array(
            [[self._saved_one(out, blocked, extra=w) for w in candidates] for out in self.outs],
            dtype=np.int64,
        ).reshape(len(self.outs), len(candidates))
        return saved, with_each - saved[:, None]

    def totals_with(self, base, candidates) -> np.ndarray:
        """Total saved of ``base | {w}`` for each candidate w."""
        saved, gain_counts = self._counts(base, candidates)
        return weighted_total(gain_counts + saved[:, None], self.mu)

    def gains(self, S) -> np.ndarray:
        """Marginal gain of vaccinating each node in addition to S.

        ``total(S | {v}) - total(S)``, each total reduced on its own, so the
        floats match across evaluators; -inf where v is in S or infected.
        """
        S = set(S)
        candidates = [v for v in range(self.n) if v not in S and v not in self._infected_set]
        saved, gain_counts = self._counts(S, candidates)
        out = np.full(self.n, -math.inf)
        out[candidates] = (
            weighted_total(gain_counts + saved[:, None], self.mu) - weighted_total(saved, self.mu)
        )
        return out


def _bit(nodes):
    """Each node's bit within its uint64 word of a packed node set."""
    return np.uint64(1) << (np.asarray(nodes) & 63).astype(np.uint64)


class IcDominatorEvaluator(BfsEvaluator):
    """Gains via dominator subtree counts on the reachability flowgraph.

    A node u is saved by vaccinating v exactly when every live path from the
    seeds to u passes through v, i.e. v dominates u with respect to a virtual
    super-source feeding all seeds.  Each ``_counts`` call solves the
    dominator dataflow ``Dom(u) = {u} | AND of Dom(p) over predecessors p``
    (Cooper, Harvey & Kennedy) for every topology at once, with no cache
    between calls.  The kernel serves IC and LT alike; see
    ``LtChainEvaluator``.

    ``Dom(u)`` is a packed bitset of ``n // 64 + 1`` uint64 words, one row
    per (topology, node) that some seed reaches when nothing is vaccinated,
    plus the super-source's empty row.  Bit n marks "not reached", so
    unreached and vaccinated rows are all ones and leave an AND unchanged.
    The table takes about ``s * (n + 1) * (n // 64 + 1) * 8`` bytes (1.8 MB
    at n=512, s=50).  Rows are ordered by the BFS level of their node, then
    by falling in-degree, so the AND of one level's rows over their j-th
    predecessors is one ``take`` into a prefix of the level's rows.  A level
    sweep repeats until nothing changes, unless every predecessor lies on a
    lower level: then the first sweep is final.
    """

    name = "structural"

    def __init__(self, instance: ProblemInstance):
        super().__init__(instance)
        n, s = self.n, len(self.outs)
        root = s * n  # virtual super-source; node u of topology t is row t*n + u
        seeds = np.array(self.infected, dtype=np.int32)
        seed_rows = (np.arange(s, dtype=np.int32)[:, None] * n + seeds).ravel()
        live = instance.topologies.stacked_edges()
        # BFS levels with nothing vaccinated; a row no seed reaches then stays
        # unreached under every S, so it gets no row in the table
        level = stacked_levels(live, s, n, seeds)
        reached = level >= 0
        # the super-source's empty row makes every seed's Dom row {seed}, so
        # no other edge into a seed can change a row
        into_seed = np.zeros(root, dtype=bool)
        into_seed[seed_rows] = True
        edges = np.concatenate(
            [live[~into_seed[live[:, 1]]],
             np.column_stack([np.full(len(seed_rows), root, dtype=np.int32), seed_rows])]
        )
        edges = edges[reached[edges[:, 0]]]
        # always so on LT, where each remaining edge runs from parent to child
        self._one_sweep = bool(np.all(level[edges[:, 0]] < level[edges[:, 1]]))
        indeg = np.bincount(edges[:, 1], minlength=root + 1)
        heads = np.flatnonzero(reached[:root])
        heads = heads[np.lexsort((-indeg[heads], level[heads]))]
        rows = len(heads)
        pos = np.full(root + 1, -1, dtype=np.int64)
        pos[heads] = np.arange(rows)
        pos[root] = rows  # the last row
        head = pos[edges[:, 1]]
        by_head = np.argsort(head, kind="stable")
        tail = pos[edges[by_head, 0]]  # predecessors grouped by head row
        del edges, head, by_head
        degree = indeg[heads]
        first = np.cumsum(degree) - degree  # each head's first entry in ``tail``
        head_level = level[heads]
        bounds = np.searchsorted(head_level, np.arange(1, head_level.max(initial=0) + 2))
        self._pos = pos[:root].reshape(s, n)  # row of (t, u); -1 if never reached
        self._topo = heads // n
        self._node = heads % n
        self._bit = _bit(self._node)
        words = n // 64 + 1
        own_word = np.arange(rows) * words + (self._node >> 6)
        # per level: first row, end row, the pred rows of each slot j (the
        # j-th predecessors of the level's rows of in-degree > j, a prefix of
        # them) and the flat index of each row's own bit within the level
        self._levels = []
        for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            slots = []
            for j in range(int(degree[lo])):
                width = int(np.count_nonzero(degree[lo:hi] > j))
                slots.append(tail[first[lo : lo + width] + j])
            self._levels.append((lo, hi, slots, own_word[lo:hi] - lo * words))
        self._widest = int(np.diff(bounds).max(initial=0))

    def gains(self, S) -> np.ndarray:
        # defined on this class, not only inherited, so that the benchmark's
        # tracer can wrap it by name
        return BfsEvaluator.gains(self, S)

    def _counts(self, S, candidates) -> tuple[np.ndarray, np.ndarray]:
        saved, gain_counts = self._dominator_pass(S)
        return saved, gain_counts[:, list(candidates)]

    def _dominator_pass(self, S) -> tuple[np.ndarray, np.ndarray]:
        """Per-topology saved counts and dominated-node counts for one set S."""
        n, s = self.n, len(self.outs)
        blocked = np.zeros(len(self._node), dtype=bool)
        where = self._pos[:, list(S)].ravel()
        blocked[where[where >= 0]] = True
        dom = self._dominator_sets(blocked)
        reached = (dom[:, n >> 6] & _bit(n)) == 0
        depth = np.where(reached, np.bitwise_count(dom).sum(axis=1, dtype=np.int64), 0)
        r = np.flatnonzero(reached)
        topo, node = self._topo, self._node
        # Dom(u) is a chain, so u's immediate dominator is its one dominator at
        # depth(u) - 1; per-(topology, depth) node masks pick it out
        at_depth = np.zeros((s, depth.max(initial=0) + 1, dom.shape[1]), dtype=np.uint64)
        np.bitwise_or.at(at_depth, (topo[r], depth[r], node[r] >> 6), self._bit[r])
        idom_bits = at_depth[topo, np.maximum(depth - 1, 0)]
        idom_bits &= dom
        inner = np.flatnonzero(depth > 1)
        word = np.argmax((idom_bits != 0)[inner], axis=1)
        bit = np.bitwise_count(idom_bits[inner, word] - np.uint64(1))
        idom = self._pos[topo[inner], word * 64 + bit]
        size = reached.astype(np.int64)
        inner_depth = depth[inner]
        for d in range(depth.max(initial=0), 1, -1):  # subtrees before their roots
            group = inner_depth == d
            np.add.at(size, idom[group], size[inner[group]])
        gain_counts = np.zeros((s, n), dtype=np.int64)
        gain_counts[topo[r], node[r]] = size[r]
        gain_counts[:, self.infected] = 0
        saved = n - np.bincount(topo[r], minlength=s)
        return saved, gain_counts

    def _dominator_sets(self, blocked) -> np.ndarray:
        """The Dom table of every row, with the rows in ``blocked`` vaccinated."""
        ones = ~np.uint64(0)
        dom = np.full((len(blocked) + 1, self.n // 64 + 1), ones)
        dom[-1] = 0  # the super-source's row: reached, dominated by nothing
        acc_buf = np.empty((self._widest, dom.shape[1]), dtype=np.uint64)
        part_buf = np.empty_like(acc_buf)
        changed = True
        while changed:  # Gauss-Seidel sweeps until one full sweep changes nothing
            changed = False
            for lo, hi, slots, own in self._levels:
                # mode="clip" writes straight into ``out`` ("raise" buffers);
                # the indices are in range by construction
                acc = acc_buf[: hi - lo]
                np.take(dom, slots[0], axis=0, out=acc, mode="clip")
                for preds in slots[1:]:
                    part = part_buf[: len(preds)]
                    np.take(dom, preds, axis=0, out=part, mode="clip")
                    acc[: len(preds)] &= part
                acc.reshape(-1)[own] |= self._bit[lo:hi]
                acc[blocked[lo:hi]] = ones
                changed = changed or not np.array_equal(acc, dom[lo:hi])
                dom[lo:hi] = acc
            # with every predecessor on a lower level the first sweep is final
            changed = changed and not self._one_sweep
        return dom[:-1]


class LtChainEvaluator(IcDominatorEvaluator):
    """LT evaluation on the dominator kernel.

    Every node has at most one live parent per realization, so the infected
    nodes of a topology form a forest hanging off the seeds.  That forest is
    its own dominator tree, so the kernel's counts are infected-subtree sizes.
    With the edges into seeds dropped, every edge runs from one BFS level to
    the next, and the kernel stops after one sweep.  The class defines
    ``gains`` and ``batch_total`` itself only so that the benchmark's tracer,
    which wraps methods by class and name, finds them here.
    """

    def gains(self, S) -> np.ndarray:
        # not ``super().gains``: the tracer wraps that one too
        return BfsEvaluator.gains(self, S)

    def batch_total(self, candidate_sets) -> list[float]:
        return [self.total_saved(S) for S in candidate_sets]


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
    raise ParameterError(f"unknown evaluation mode {evaluation!r}")
