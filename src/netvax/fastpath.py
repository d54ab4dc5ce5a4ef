"""Spread evaluators used by the search heuristics.

Every evaluator supplies one method, ``_counts(S, candidates)``: per
topology, the integer saved count of S and the integer gain of vaccinating
each candidate in addition to S.  Every query is answered from it:
``gains``, ``totals_with``, ``total_saved`` and ``per_topology_saved`` are
written once, on ``BfsEvaluator``, and reduce those counts through
``spread.weighted_total``, as ``avg_saved`` does, so every evaluator
produces the same floats bit for bit, on mu-weighted (enumerated) instances
too.  Each checks its nodes with ``spread.checked_nodes`` first: a node
outside 0..n-1 or an infected one is a ``ContractViolationError``.  Only
``bfs`` walks BFS.  Two strategies supply the counts:

* ``bfs`` runs one reachability pass per (topology, candidate), exactly as
  the greedy/local-search pseudocode is usually stated.  It is the reference
  for timing comparisons.
* ``structural`` counts, for each candidate v, the infected nodes that v
  dominates on the reachability flowgraph, where a virtual super-source
  feeds the seeds: vaccinating v saves exactly those.  Each call answers
  every topology at once in one batched numpy pass.  On IC the counts come
  from a dominator kernel over a bitset table of at most ``s * (n + 1) *
  (n // 64 + 1) * 8`` bytes: its first sweep reads only each row's
  predecessors one BFS level up and writes whole rows through a view with
  one item per row, its later sweeps stop visiting a row once the row
  holds its own bit alone, and v's gain is the number of reached rows
  whose dominator set holds v; a set total reads only which rows stay
  reached.  It keeps a second, smaller table with only the rows still
  reached under part of greedy's set, which ``gains`` rebuilds as that set
  grows; every call on a superset of that part reads it and gets the same
  counts.  An LT realization gives each node at most one live parent, so
  its flowgraph is a forest and its own dominator tree: a node's gain is
  its infected-subtree size, which prefix sums over one fixed DFS preorder
  give directly.

A swap pass needs the totals of every ``(S - {v}) | {w}``: ``swap_totals(S,
allowed)`` returns them as one (|S|, n) array, row i for the i-th node of
``sorted(S)``.  ``allowed`` is a boolean mask of the same shape that marks
the replacements a search may use; the evaluator itself clears S and the
infected set from it.  By default it makes one ``totals_with(S - {v}, ws)``
call per removed node v, which is ``saved(S - {v}) + gain(S - {v})[w]`` in
every topology: ``bfs`` traverses each swapped set literally, and IC
``structural`` runs one dominator pass per removed node.  LT ``structural``
answers the whole pass from one cover pass over its forest.

``make_evaluator`` keeps the evaluator it built last in one module-level
slot and returns it again while a request has the same topology set and
graph objects (compared by identity, so nothing is hashed), an equal
infected set and the same mode; no evaluator reads ``k``.  Any other
request empties the slot and then builds, so the slot never keeps an old
evaluator alive while a new one is built.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import depth_first_order

from .errors import ContractViolationError, ModelMismatchError, ParameterError
from .graph import IC, LT
from .spread import ProblemInstance, checked_nodes, weighted_total
from .topology import flowgraph


class BfsEvaluator:
    """Reachability-based evaluation with reusable visitation buffers.

    The base of every evaluator: a subclass replaces ``_counts``, which every
    query here reads, so only this class walks BFS or builds ``outs``.
    """

    name = "bfs"

    def __init__(self, instance: ProblemInstance):
        self.instance = instance
        self.n = instance.n
        self.infected = sorted(instance.infected)
        self._infected_set = instance.infected
        self.s = len(instance.topologies)
        self.mu = instance.topologies.mu
        self._epoch = 0

    @cached_property
    def outs(self) -> list:
        """Every topology's out-adjacency, built on first use: only BFS walks it."""
        return [t.out for t in self.instance.topologies]

    @cached_property
    def _vis(self) -> list[int]:
        """The BFS visitation buffer: per node, the epoch of its last visit."""
        return [0] * self.n

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
        """The saved count of S on each topology; S is checked as in ``totals_with``."""
        return self._counts(checked_nodes(S, self.n, self._infected_set), ())[0].tolist()

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
        blocked, extras = list(S), [-1, *candidates]  # extra -1: S alone
        counts = np.array(
            [[self._saved_one(out, blocked, extra=w) for w in extras] for out in self.outs],
            dtype=np.int64,
        ).reshape(self.s, len(extras))
        return counts[:, 0], counts[:, 1:] - counts[:, :1]

    def totals_with(self, base, candidates) -> np.ndarray:
        """Total saved of ``base | {w}`` for each candidate w.

        ``base`` and every candidate must be nodes in 0..n-1 that are not
        infected; anything else is a ``ContractViolationError``.
        """
        base = checked_nodes(base, self.n, self._infected_set)
        candidates = list(candidates)
        checked_nodes(candidates, self.n, self._infected_set)
        saved, gain_counts = self._counts(base, candidates)
        return weighted_total(gain_counts + saved[:, None], self.mu)

    def gains(self, S) -> np.ndarray:
        """Marginal gain of vaccinating each node in addition to S.

        ``total(S | {v}) - total(S)``, each total reduced on its own, so the
        floats match across evaluators; -inf where v is in S or infected.
        S is checked as ``totals_with`` checks ``base``.
        """
        return self._gains(S)[0]

    def _gains(self, S) -> tuple[np.ndarray, np.ndarray]:
        """``gains(S)`` and the per-topology saved counts of S."""
        S = checked_nodes(S, self.n, self._infected_set)
        candidates = [v for v in range(self.n) if v not in S and v not in self._infected_set]
        saved, gain_counts = self._counts(S, candidates)
        out = np.full(self.n, -math.inf)
        out[candidates] = (
            weighted_total(gain_counts + saved[:, None], self.mu) - weighted_total(saved, self.mu)
        )
        return out, saved

    def swap_totals(self, S, allowed) -> np.ndarray:
        """Total saved of every swap ``(S - {v}) | {w}`` of S.

        Row i belongs to the i-th node v of ``sorted(S)``, column w to the
        replacement.  ``allowed`` is a boolean array of that (|S|, n) shape;
        an entry is -inf where it is false, or where w is in S or infected.
        S is checked as ``totals_with`` checks ``base``.  One
        ``totals_with(S - {v}, ...)`` call per v.
        """
        S = set(S)
        nodes = sorted(S)
        allowed = self._allowed_swaps(nodes, allowed)
        out = np.full(allowed.shape, -math.inf)
        for i, v in enumerate(nodes):
            ws = np.flatnonzero(allowed[i]).tolist()
            if ws:
                out[i, ws] = self.totals_with(S - {v}, ws)
        return out

    def _allowed_swaps(self, nodes, allowed) -> np.ndarray:
        """A checked copy of ``allowed`` with the columns of S and the infected set cleared."""
        checked_nodes(nodes, self.n, self._infected_set)
        allowed = np.array(allowed, dtype=bool)
        if allowed.shape != (len(nodes), self.n):
            raise ContractViolationError(
                f"swap mask has shape {allowed.shape}, not (|S|, n) = ({len(nodes)}, {self.n})"
            )
        allowed[:, nodes] = False
        allowed[:, self.infected] = False
        return allowed


def _bit(nodes):
    """Each node's bit within its uint64 word of a packed node set."""
    return np.uint64(1) << (np.asarray(nodes) & 63).astype(np.uint64)


def _count_before(mask) -> np.ndarray:
    """For each position p, and one past the last, the true entries of mask before p."""
    out = np.zeros(len(mask) + 1, dtype=np.int64)
    np.cumsum(mask, out=out[1:])
    return out


def _stable_order(keys, bound) -> np.ndarray:
    """The stable sorting order of ``keys``, non-negative integers below ``bound``.

    numpy sorts 16-bit integers stably by radix sort, in linear time, so
    this sorts by the lowest 16-bit digit and then by each higher digit
    that ``bound`` needs.
    """
    order = keys.astype(np.uint16).argsort(kind="stable")  # astype keeps the low digit
    shift = 16
    while bound > 1 << shift:
        order = order[(keys[order] >> shift).astype(np.uint16).argsort(kind="stable")]
        shift += 16
    return order


def _slots(preds, first, degree, bounds):
    """Per level ``[lo, hi)`` of ``bounds``, the pred rows of each slot j.

    The k-th row in level order has the predecessors ``preds[first[k] :
    first[k] + degree[k]]``, and each level's rows are in falling degree, so
    slot j, the j-th predecessors of the rows whose degree exceeds j,
    belongs to a prefix of the level's rows.
    """
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        falling = -degree[lo:hi]
        widths = falling.searchsorted(-np.arange(-falling[0])).tolist()
        yield lo, hi, [preds[first[lo : lo + width] + j] for j, width in enumerate(widths)]


def _add_subtrees(size, rows, parent, depth) -> None:
    """Turn each row's own count in ``size`` into its subtree total, deepest
    rows first; ``rows`` at ``depth`` 2 and below add into their ``parent``."""
    for d in range(depth.max(initial=0), 1, -1):
        group = depth == d
        np.add.at(size, parent[group], size[rows[group]])


# ``IcDominatorEvaluator.gains`` rebuilds its compact table under S once the
# rows that S leaves reached fall below this share of the table's rows
_COMPACT_BELOW = 0.8


class _DomTable(NamedTuple):
    """The dominator kernel's rows: every (topology, node) that some seed
    reaches with ``base`` vaccinated, plus the super-source's row.

    Vaccinating more nodes only removes paths, so a row that ``base`` leaves
    unreached stays unreached under every S that contains ``base``, and the
    table serves all of them.
    """

    base: frozenset
    pos: np.ndarray  # (s, n): the row of node u in topology t; -1 if it has none
    topo: np.ndarray  # each row's topology
    node: np.ndarray  # each row's node
    bit: np.ndarray  # each row's node bit within its uint64 word
    levels: list  # per BFS level: first row, end row, pred rows per slot, own-bit indices
    forward: list  # per BFS level: its rows by falling forward in-degree, forward pred rows per slot
    widest: int  # the rows of the widest level


class IcDominatorEvaluator(BfsEvaluator):
    """Gains via dominator counts on the reachability flowgraph.

    A node u is saved by vaccinating v exactly when every live path from the
    seeds to u passes through v, i.e. v dominates u with respect to a virtual
    super-source feeding all seeds.  Each ``_counts`` call solves the
    dominator dataflow ``Dom(u) = {u} | AND of Dom(p) over predecessors p``
    (Cooper, Harvey & Kennedy) for every topology at once, and v's gain on a
    topology is the number of its reached rows whose ``Dom`` holds v.  It is
    exact on LT too, but LT has a cheaper kernel of its own; see
    ``LtChainEvaluator``.

    ``Dom(u)`` is a packed bitset of ``n // 64 + 1`` uint64 words, one row
    per (topology, node) of a ``_DomTable``, plus the super-source's empty
    row.  Bit n marks "not reached", so unreached and vaccinated rows are all
    ones and leave an AND unchanged.  Rows are ordered by the BFS level of
    their node, then by falling in-degree, so the AND of one level's rows
    over their j-th predecessors is one ``take`` into a prefix of the level's
    rows.  The first sweep reads only the predecessors one level up, with
    each level's rows in a second order, by falling in-degree from the level
    above; the second sweep reads every predecessor of every row.  A row
    that is vaccinated, or whose value is its own bit alone, then holds the
    least value it can take; the later sweeps, until one changes nothing,
    visit only the other, open rows.  Only an open row can hold a dominator
    besides itself, so the count reads just their bits.  The first sweep and
    the sweeps over open rows write rows at scattered positions, through a
    view of the table with one void item per row.

    The evaluator keeps two tables.  ``_full`` has the rows reached when
    nothing is vaccinated, about ``s * (n + 1) * (n // 64 + 1) * 8`` bytes
    (1.8 MB at n=512, s=50), and serves every set.  ``_compact`` has the rows
    reached under a vaccinated base B and serves every S that contains B,
    with the same Dom sets on fewer rows.  Only ``gains`` moves it: greedy
    calls it with a growing S, so a set without B starts a new run and
    resets it to ``_full``, and once S leaves fewer than ``_COMPACT_BELOW``
    of its rows reached it is rebuilt under S.  The swap passes never
    rebuild; a swapped set S - {v} still reads ``_compact`` when v is not in
    B.
    """

    name = "structural"

    def __init__(self, instance: ProblemInstance):
        super().__init__(instance)
        self._full = self._table(frozenset())
        self._compact = self._full

    def _table(self, base: frozenset) -> _DomTable:
        """The table of the rows that some seed reaches with ``base`` vaccinated."""
        n, s = self.n, self.s
        root = s * n
        tail, head, level = flowgraph(
            self.instance.topologies.stacked_edges(), s, n, self.infected, vaccinated=sorted(base)
        )
        reached = level >= 0
        indeg = np.bincount(head, minlength=root + 1)
        heads = reached[:root].nonzero()[0]
        heads = heads[np.lexsort((-indeg[heads], level[heads]))]
        rows = len(heads)
        pos = np.full(root + 1, -1, dtype=np.int64)
        pos[heads] = np.arange(rows)
        pos[root] = rows  # the last row
        tail = tail[_stable_order(pos[head], rows)]  # predecessors grouped by head row, in edge order
        del head
        degree = indeg[heads]
        head_level = level[heads]
        up = level[tail] + 1 == head_level.repeat(degree)  # the predecessors one level up
        tail = pos[tail]
        first = degree.cumsum() - degree  # each row's first entry in ``tail``
        forward_degree = np.add.reduceat(up, first, dtype=np.int64)
        forward_first = forward_degree.cumsum() - forward_degree  # and in ``tail[up]``
        bounds = head_level.searchsorted(np.arange(1, head_level.max(initial=0) + 2))
        node = heads % n
        words = n // 64 + 1
        sizes = bounds[1:] - bounds[:-1]  # the rows of each level
        # per level: first row, end row, the pred rows of each slot j (the
        # j-th predecessors of the level's rows of in-degree > j, a prefix of
        # them) and the flat index of each row's own bit within the level
        own = (np.arange(rows) - bounds[:-1].repeat(sizes)) * words + (node >> 6)
        levels = [(lo, hi, slots, own[lo:hi]) for lo, hi, slots in _slots(tail, first, degree, bounds)]
        # per level, the level's rows by falling forward in-degree and the
        # pred rows of each slot of their predecessors one level up alone
        at = np.lexsort((-forward_degree, head_level))
        forward = [
            (at[lo:hi], slots)
            for lo, hi, slots in _slots(tail[up], forward_first[at], forward_degree[at], bounds)
        ]
        return _DomTable(
            base=base,
            pos=pos[:root].reshape(s, n),
            topo=heads // n,
            node=node,
            bit=_bit(node),
            levels=levels,
            forward=forward,
            widest=int(sizes.max(initial=0)),
        )

    def gains(self, S) -> np.ndarray:
        # greedy is the one caller, with S growing by one node per call, so
        # the compact table is moved here and never by a swap pass: a set
        # without its base starts a new run on this shared evaluator, and a
        # set that leaves few of its rows reached makes the next call's
        # table.  The benchmark's tracer also wraps this method by name.
        S = frozenset(S)
        if not self._compact.base <= S:
            self._compact = self._full
        out, saved = self._gains(S)
        if self.n * self.s - saved.sum() < _COMPACT_BELOW * len(self._compact.node):
            self._compact = self._table(S)
        return out

    def _counts(self, S, candidates) -> tuple[np.ndarray, np.ndarray]:
        # the pass has a name of its own because the benchmark's tracer wraps it
        return self._dominator_pass(S, list(candidates))

    def _dominator_pass(self, S, candidates) -> tuple[np.ndarray, np.ndarray]:
        """Per-topology saved counts of S and dominated-node counts of ``candidates``.

        A set total (no candidates) reads only which rows stay reached.
        """
        n, s = self.n, self.s
        table = self._compact if self._compact.base.issubset(S) else self._full
        blocked = np.zeros(len(table.node), dtype=bool)
        where = table.pos[:, list(S)].ravel()
        blocked[where[where >= 0]] = True
        dom, open_rows = self._dominator_sets(table, blocked)
        reached = (dom[:, n >> 6] & np.uint64(1 << (n & 63))) == 0
        r = reached.nonzero()[0]
        saved = n - np.bincount(table.topo[r], minlength=s)
        if not candidates:
            return saved, np.zeros((s, 0), dtype=np.int64)
        # v's gain on topology t is the number of reached rows of t whose Dom
        # holds v: each reached row holds its own node, and only an open row
        # can hold more, its strict dominators
        o = (reached & open_rows).nonzero()[0]
        strict = dom.take(o, axis=0)
        strict.reshape(-1)[np.arange(len(o)) * dom.shape[1] + (table.node[o] >> 6)] ^= table.bit[o]
        row, word = strict.nonzero()
        value = strict[row, word]
        at = table.topo[o[row]] * n + word * 64  # the key of each word's bit 0
        keys = [at[:0]]  # empty, for a pass in which no row has a strict dominator
        while len(value):  # peel off each word's lowest set bit until none is left
            low = value & -value  # two's complement on uint64
            keys.append(at + np.bitwise_count(low - 1))
            value ^= low
            more = value.nonzero()[0]
            value, at = value[more], at[more]
        gain_counts = np.bincount(np.concatenate(keys), minlength=s * n)
        gain_counts[table.topo[r] * n + table.node[r]] += 1  # one key per reached row
        gain_counts = gain_counts.reshape(s, n)
        gain_counts[:, self.infected] = 0
        return saved, gain_counts[:, candidates]

    def _dominator_sets(self, table, blocked) -> tuple[np.ndarray, np.ndarray]:
        """The Dom table of every row of ``table``, with the rows in ``blocked``
        vaccinated, and the mask of the rows left open after the second sweep.

        Values only shrink from all ones, and a reached row's value holds at
        least its own bit.  In the first sweep a predecessor at the row's own
        level or above is not yet swept, so it would read all ones, the
        identity of the AND: the sweep reads only the predecessors one level
        up, which every row has, as BFS levels are defined, so the table
        starts unset and every row is written before it is read.  After the
        second sweep, the first that reads every predecessor's swept value,
        a vaccinated row and a row at its own bit alone are settled for
        good; later sweeps visit only the open rows, with each level's
        predecessor slots cut down to them once.
        """
        ones = ~np.uint64(0)
        words = self.n // 64 + 1
        dom = np.empty((len(blocked) + 1, words), dtype=np.uint64)
        dom[-1] = 0  # the super-source's row: reached, dominated by nothing
        acc_buf = np.empty((table.widest, words), dtype=np.uint64)
        part_buf = np.empty_like(acc_buf)
        # one void item per row, so that rows at scattered positions are set
        # by a 1-D index, which is faster than a 2-D one
        as_rows = np.dtype((np.void, dom.itemsize * words))
        dom_rows, acc_rows = dom.view(as_rows).ravel(), acc_buf.view(as_rows).ravel()

        def meet(slots, width) -> np.ndarray:
            """The AND over each slot's pred rows, in the first ``width`` rows of the buffer."""
            # mode="clip" writes straight into ``out`` ("raise" buffers); the
            # indices are in range by construction
            acc = acc_buf[:width]
            dom.take(slots[0], axis=0, out=acc, mode="clip")
            for preds in slots[1:]:
                part = part_buf[: len(preds)]
                dom.take(preds, axis=0, out=part, mode="clip")
                acc[: len(preds)] &= part
            return acc

        vaccinated = blocked.nonzero()[0]  # split by level below
        cuts = vaccinated.searchsorted([lo for lo, _, _, _ in table.levels[1:]]).tolist()
        by_level = [vaccinated[a:b] for a, b in zip([0, *cuts], [*cuts, len(vaccinated)])]
        # sweep 1: a row reads only its preds one level up; every other pred
        # is not yet swept and still all ones, which leaves the AND unchanged
        for (lo, hi, _, own), (rows, slots), vac in zip(table.levels, table.forward, by_level):
            meet(slots, hi - lo)  # into the buffer, in the order of ``rows``
            dom_rows[rows] = acc_rows[: hi - lo]
            dom[lo:hi].reshape(-1)[own] |= table.bit[lo:hi]
            if len(vac):
                dom[vac] = ones
        # sweep 2, over every row
        changed = False
        for (lo, hi, slots, own), vac in zip(table.levels, by_level):
            acc = meet(slots, hi - lo)
            acc.reshape(-1)[own] |= table.bit[lo:hi]
            if len(vac):
                acc[vac - lo] = ones
            changed = changed or bool((acc != dom[lo:hi]).any())
            dom[lo:hi] = acc
        # a row that is not vaccinated always holds its own bit, so it is at
        # its own bit alone when it holds one bit; counted word by word,
        # which is faster than a reduction along the short axis
        held = np.zeros(len(blocked), dtype=np.uint16)
        for w in range(words):
            held += np.bitwise_count(dom[:-1, w])
        open_rows = ~blocked & (held > 1)
        narrowed = self._open_levels(table, open_rows) if changed else []
        while changed:  # later sweeps, over the open rows, none of them vaccinated
            changed = False
            for rows, slots, own, bit in narrowed:
                acc = meet(slots, len(rows))
                acc.reshape(-1)[own] |= bit
                if not changed:
                    old = dom.take(rows, axis=0, out=part_buf[: len(rows)], mode="clip")
                    changed = bool((acc != old).any())
                dom_rows[rows] = acc_rows[: len(rows)]
        return dom[:-1], open_rows

    def _open_levels(self, table, open_rows) -> list:
        """The levels of ``table`` cut down to the rows in ``open_rows``, as the
        sweeps read them: row positions, pred rows per slot, own-bit indices and bits.

        Slot j of a level holds a prefix of the level's rows, so it also
        holds a prefix of the level's open rows.  No open row is vaccinated.
        """
        words = self.n // 64 + 1
        levels = []
        for lo, hi, slots, _ in table.levels:
            keep = open_rows[lo:hi].nonzero()[0]
            if len(keep):
                widths = keep.searchsorted([len(preds) for preds in slots]).tolist()
                rows = lo + keep
                levels.append((
                    rows,
                    [preds[keep[:w]] for preds, w in zip(slots, widths) if w],
                    np.arange(len(keep)) * words + (table.node[rows] >> 6),
                    table.bit[rows],
                ))
        return levels


class LtChainEvaluator(BfsEvaluator):
    """LT evaluation by subtree intervals of the live-edge forest.

    Every node has at most one live parent per realization, so the rows that
    the seeds reach form a tree under the super-source of ``flowgraph``.
    That tree is its own dominator tree: vaccinating u saves exactly the
    infected rows of u's subtree.  One DFS preorder, fixed at set-up, makes
    each subtree a contiguous interval ``[pre, end)`` of positions (the
    Euler-tour technique), and an unreached row gets the empty interval at
    the end.  A ``_counts`` call adds +1 at ``pre`` and -1 at ``end`` of every
    vaccinated row; the running sum counts the vaccinated rows at or above
    each position, the infected rows are those it leaves at 0, and every
    gain is a difference of one prefix sum over them.  ``swap_totals`` reads
    every swap of a set off one cover pass, nested subtrees included.  The class defines ``gains`` and
    ``batch_total`` itself only so that the benchmark's tracer, which wraps
    methods by class and name, finds them here.
    """

    name = "structural"

    def __init__(self, instance: ProblemInstance):
        super().__init__(instance)
        n, s = self.n, self.s
        root = s * n
        tail, head, level = flowgraph(instance.topologies.stacked_edges(), s, n, self.infected)
        tree = csr_matrix((np.ones(len(tail), dtype=bool), (tail, head)), shape=(root + 1, root + 1))
        order, parent = depth_first_order(tree, root, directed=True, return_predecessors=True)
        rows = order[1:]  # every reached row in preorder, the super-source left out
        size = np.zeros(root, dtype=np.int64)
        size[rows] = 1
        _add_subtrees(size, rows, parent[rows], level[rows])
        self._positions = len(rows)
        pre = np.full(root, len(rows), dtype=np.int64)
        pre[rows] = np.arange(len(rows))
        end = pre + size
        # node-major, so that the rows of one node in every topology are adjacent
        self._pre = np.ascontiguousarray(pre.reshape(s, n).T)
        self._end = np.ascontiguousarray(end.reshape(s, n).T)
        # the DFS's own arrays, for the nested pairs of ``swap_totals``
        self._node_at = rows % n  # node of each position
        self._end_at = end[rows]  # subtree end of each position
        self._parent = parent  # parent row of each row; the super-source's row for a seed
        self._seeds = np.array(self.infected, dtype=np.intp)
        self._is_seed = np.zeros(n, dtype=bool)
        self._is_seed[self._seeds] = True

    def _cover(self, pre, end) -> np.ndarray:
        """Per position, how many vaccinated rows, with intervals ``[pre, end)``, hold it."""
        positions = self._positions
        return np.cumsum(
            np.bincount(pre.ravel(), minlength=positions + 1)
            - np.bincount(end.ravel(), minlength=positions + 1)
        )[:-1]

    def _counts(self, S, candidates) -> tuple[np.ndarray, np.ndarray]:
        S = np.fromiter(S, dtype=np.intp)
        candidates = np.fromiter(candidates, dtype=np.intp)
        pre, end = self._pre, self._end
        below = _count_before(self._cover(pre[S], end[S]) == 0)  # infected positions
        # the seeds' subtrees are disjoint and hold every infected row
        infected = (below[end[self._seeds]] - below[pre[self._seeds]]).sum(axis=0)
        gain_counts = below[end[candidates]] - below[pre[candidates]]
        gain_counts[self._is_seed[candidates]] = 0
        return self.n - infected, gain_counts.T

    def swap_totals(self, S, allowed) -> np.ndarray:
        """Every swap of S from one cover pass, masked as in ``BfsEvaluator.swap_totals``.

        Let Z and O count the positions of cover 0 and cover 1 in an
        interval.  Removing v uncovers O(I_v), so S - {v} saves
        ``A(v) = n*s - infected(S) - sum_t O(I_v)``; adding w then saves
        ``B(w) = sum_t Z(I_w)`` plus, where the two subtrees are nested, the
        rows only v covered: ``O(I_w)`` where w lies under v, ``O(I_v)``
        where v lies under w.  Without mu every total is an exact integer
        sum, so it equals ``totals_with``'s float bit for bit; a mu-weighted
        sum depends on its order, so those instances take the base loop.
        """
        if self.mu is not None:
            return BfsEvaluator.swap_totals(self, S, allowed)
        S = sorted(S)
        n, s = self.n, self.s
        allowed = self._allowed_swaps(S, allowed)
        v = np.array(S, dtype=np.intp)
        pre, end = self._pre[v], self._end[v]  # (|S|, s)
        cover = self._cover(pre, end)
        zeros, ones = _count_before(cover == 0), _count_before(cover == 1)
        only_v = ones[end] - ones[pre]
        totals = (n * s - zeros[-1] - only_v.sum(axis=1))[:, None] + (
            zeros[self._end] - zeros[self._pre]
        ).sum(axis=1)
        # w under v: the positions of v's subtree after v itself
        start = (pre + 1).ravel()
        length = np.maximum(end.ravel() - start, 0)
        at = np.arange(length.sum()) + np.repeat(start - (np.cumsum(length) - length), length)
        keys = [np.repeat(np.arange(len(S)).repeat(s), length) * n + self._node_at[at]]
        weights = [ones[self._end_at[at]] - ones[at]]
        # v under w: walk up from every row of v that uncovers something
        row_of, topo = np.nonzero(only_v)
        row = topo * n + v[row_of]
        weight = only_v[row_of, topo]
        root = s * n
        while len(row):
            row = self._parent[row]
            up = row != root
            row, row_of, weight = row[up], row_of[up], weight[up]
            keys.append(row_of * n + row % n)
            weights.append(weight)
        nested = np.bincount(
            np.concatenate(keys), weights=np.concatenate(weights), minlength=len(S) * n
        )
        totals += nested.astype(np.int64).reshape(len(S), n)
        return np.where(allowed, totals, -math.inf)

    def gains(self, S) -> np.ndarray:
        # defined on this class, not only inherited, so that the benchmark's
        # tracer can wrap it by name
        return BfsEvaluator.gains(self, S)

    def batch_total(self, candidate_sets) -> list[float]:
        return [self.total_saved(S) for S in candidate_sets]


# The evaluator that ``make_evaluator`` built last, served again while the
# requests match it; None before the first build and while a build runs.
_last: BfsEvaluator | None = None


def make_evaluator(instance: ProblemInstance, evaluation: str = "bfs") -> BfsEvaluator:
    """Factory: 'bfs' for literal re-evaluation, 'structural' for the fast exact path.

    Returns the evaluator it built last while the request has the same
    topology set and graph objects (compared by identity, so an equal copy
    misses and nothing is hashed), an equal infected set and the same mode;
    no evaluator reads ``k``.  So greedy, local search and hill climbing on
    one instance, and on its copies with another ``k``, share one evaluator.
    Any other request empties the slot before it builds, so the slot never
    holds the old evaluator while the new one is built.  An evaluator is not
    safe to use from two threads at once: it keeps one BFS visitation buffer.
    """
    global _last
    if (
        _last is not None
        and _last.instance.topologies is instance.topologies
        and _last.instance.graph is instance.graph
        and _last.instance.infected == instance.infected
        and _last.name == evaluation
    ):
        return _last
    _last = None
    evaluator = _build(instance, evaluation)
    _last = evaluator
    return evaluator


def _build(instance: ProblemInstance, evaluation: str) -> BfsEvaluator:
    if evaluation == "bfs":
        return BfsEvaluator(instance)
    if evaluation == "structural":
        if instance.graph.model == LT:
            return LtChainEvaluator(instance)
        if instance.graph.model == IC:
            return IcDominatorEvaluator(instance)
        raise ModelMismatchError(f"no structural evaluator for model {instance.graph.model}")
    raise ParameterError(f"unknown evaluation mode {evaluation!r}")
