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
  every topology at once.  On IC the counts come from a dominator kernel
  over a bitset table of at most ``s * (n + 1) * (n // 64 + 1) * 8`` bytes,
  which keeps its dominator sets and counts across calls.  Most rows carry
  a certificate that they are dominated by themselves alone, resting on
  two predecessors that are, so a call certifies again and sweeps only the
  rows downstream of the nodes vaccinated or released since the last call,
  and moves the counts by the rows that changed; v's gain is the number
  of reached rows whose dominator set holds v.  The table has the rows
  that the seeds reach when nothing is vaccinated, which serve every set,
  and one state that every call moves, whichever query makes it.  An LT
  realization gives each node at most one live parent, so its flowgraph
  is a forest and its own dominator tree: a node's gain is its
  infected-subtree size, which prefix sums over one fixed DFS preorder
  give directly.

A swap pass needs the totals of every ``(S - {v}) | {w}``: ``swap_totals(S,
allowed)`` returns them as one (|S|, n) array, row i for the i-th node of
``sorted(S)``.  ``allowed`` is a boolean mask of the same shape that marks
the replacements a search may use; the evaluator itself clears S and the
infected set from it.  By default it makes one ``totals_with(S - {v}, ws)``
call per removed node v, which is ``saved(S - {v}) + gain(S - {v})[w]`` in
every topology: ``bfs`` traverses each swapped set literally, and IC
``structural`` runs one dominator pass per removed node, which moves the
kernel's state by that node and the one removed before it.  LT
``structural`` answers the whole pass from one cover pass over its forest.

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
        self._is_seed = np.zeros(self.n, dtype=bool)
        self._is_seed[self.infected] = True
        self._free = (~self._is_seed).nonzero()[0]  # the nodes that are not infected

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
        S = checked_nodes(S, self.n, self._infected_set)
        taken = np.zeros(self.n, dtype=bool)
        taken[list(S)] = True
        candidates = self._free[~taken[self._free]]
        saved, gain_counts = self._counts(S, candidates)
        out = np.full(self.n, -math.inf)
        out[candidates] = (
            weighted_total(gain_counts + saved[:, None], self.mu) - weighted_total(saved, self.mu)
        )
        return out

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


def _add_subtrees(size, rows, parent, depth) -> None:
    """Turn each row's own count in ``size`` into its subtree total, deepest
    rows first; ``rows`` at ``depth`` 2 and below add into their ``parent``."""
    for d in range(depth.max(initial=0), 1, -1):
        group = depth == d
        np.add.at(size, parent[group], size[rows[group]])


# What the dominator kernel knows of a row under the vaccinated set of its last pass
_OPEN = 0  # swept: not certified, not vaccinated, not known to be unreached
_CERT = 1  # certified: Dom is the row's own bit alone
_VAC = 2  # vaccinated
_DEAD = 3  # not vaccinated and unreached
_SWEEP = 4  # in the region of the running pass, not certified (yet)


def _offsets(group, size) -> tuple[np.ndarray, np.ndarray]:
    """Where each group 0..size-1 of the grouped ``group`` ids starts, and its size."""
    count = np.bincount(group, minlength=size).astype(np.int32)
    return np.cumsum(count, dtype=np.int32) - count, count


def _ragged(first, count) -> tuple[np.ndarray, np.ndarray]:
    """The positions ``first[i] .. first[i] + count[i] - 1`` of every i, one
    run after another, and where each i's run starts among them."""
    end = count.cumsum()
    start = end - count
    return np.arange(end[-1] if len(end) else 0) + (first - start).repeat(count), start


class IcDominatorEvaluator(BfsEvaluator):
    """Gains via dominator counts on the reachability flowgraph.

    A node u is saved by vaccinating v exactly when every live path from the
    seeds to u passes through v, i.e. v dominates u with respect to a virtual
    super-source feeding all seeds.  ``Dom(u) = {u} | AND of Dom(p) over
    predecessors p`` (Cooper, Harvey & Kennedy), and v's gain on a topology
    is the number of its reached rows whose ``Dom`` holds v.  It is exact on
    LT too, but LT has a cheaper kernel of its own; see ``LtChainEvaluator``.

    ``Dom(u)`` is a packed bitset of ``n // 64 + 1`` uint64 words, one row
    per (topology, node) that some seed reaches when nothing is vaccinated,
    plus the super-source's empty row; ``_table`` builds the rows once.
    Vaccinating nodes only removes paths, so these rows serve every set.
    Bit n marks "not reached", so unreached and vaccinated rows are all
    ones and leave an AND unchanged.  Dom is the greatest solution, the limit
    of sweeps from all ones.

    Most rows need no sweep: if a row u that is not vaccinated has two
    predecessors a and b with ``Dom(a) = {a}`` and ``Dom(b) = {b}``, the AND
    is empty and ``Dom(u) = {u}``.  The kernel certifies rows by this rule in
    rounds, the seed rows first (their one predecessor is the super-source),
    each row on two witnesses certified in an earlier round, so the witness
    graph has no cycle and a certified row stays ``{u}`` under every S that
    vaccinates no row of its witness chain.  At IC n=512, s=50 and S empty,
    certificates cover 24,270 of the 24,498 rows that are dominated by
    themselves alone.  Solving with the certified rows fixed at their own
    bit is exact: that solution is a fixpoint of the whole system, so it
    lies below the greatest, and sweeping down from all ones keeps the other
    rows above it.

    The evaluator keeps its Dom values, certificates and counts under the
    set W of its last pass, whichever query made it, and a pass to S
    touches only what S - W and W - S change (``_move``).  Its region holds
    the open rows downstream of a newly vaccinated or released row, through
    open rows, and the certified rows whose witness chain holds one; the
    region is certified again in rounds and its other rows are swept from
    all ones, every row outside it read as a constant, and the counts move
    by the rows whose value changed.  An open row's value depends only on
    the rows upstream of it through open rows, so the rows outside the
    region keep their values.  Along greedy at IC n=512 the median region
    grows from about 270 rows of 25,447 (60 of them swept) to about 950
    (800 swept) late in the run, when vaccination has left fewer rows with
    two certified predecessors.
    """

    name = "structural"

    def __init__(self, instance: ProblemInstance):
        super().__init__(instance)
        self._words = self.n // 64 + 1
        self._far = (self.n >> 6, np.uint64(1 << (self.n & 63)))  # bit n: "not reached"
        self._table()
        self._slot = np.empty(len(self._node) + 1, dtype=np.intp)  # scratch of ``_certify``
        # the state under the set W of the last pass; None until the first
        self._vaccinated: frozenset | None = None  # W
        self._kind = None  # per row, _OPEN, _CERT, _VAC or _DEAD under W
        self._witness = None  # (rows + 1, 2): the two witnesses of each certified row
        self._dom = None  # the Dom table under W
        # per t * n + v, the reached rows of t whose Dom holds v; then per t, its reached rows
        self._tally = None

    def _table(self) -> None:
        """The kernel's rows: every (topology, node) that some seed reaches,
        ordered by row id t * n + node, plus the super-source's row at the
        end, with each row's predecessors and successors in edge order."""
        n, s = self.n, self.s
        root = s * n
        tail, head, level = flowgraph(self.instance.topologies.stacked_edges(), s, n, self.infected)
        heads = (level[:root] >= 0).nonzero()[0]
        rows = len(heads)
        pos = np.full(root + 1, -1, dtype=np.int32)
        pos[heads] = np.arange(rows, dtype=np.int32)
        pos[root] = rows  # the last row
        head = pos[head]
        by_head = _stable_order(head, rows)
        preds, head = pos[tail[by_head]], head[by_head]
        del tail
        by_tail = _stable_order(preds, rows + 1)
        self._pos = pos[:root].reshape(s, n)  # (s, n): the row of node u in topology t; -1 if it has none
        self._topo = (heads // n).astype(np.int32)  # each row's topology
        self._node = (heads % n).astype(np.int32)  # each row's node
        self._bit = _bit(heads % n)  # each row's node bit within its uint64 word
        # every row's predecessor rows in edge order, one row after another;
        # each row's first entry among them, and how many it has (at least one)
        self._preds = preds
        self._first, self._degree = _offsets(head, rows + 1)
        # the same for successors, the super-source's (the seeds) included
        self._succs = head[by_tail]
        self._out_first, self._out_degree = _offsets(preds, rows + 1)

    def gains(self, S) -> np.ndarray:
        # defined on this class, not only inherited, so that the benchmark's
        # tracer can wrap it by name
        return BfsEvaluator.gains(self, S)

    def _counts(self, S, candidates) -> tuple[np.ndarray, np.ndarray]:
        # the pass has a name of its own because the benchmark's tracer wraps it
        return self._dominator_pass(S, candidates)

    def _dominator_pass(self, S, candidates) -> tuple[np.ndarray, np.ndarray]:
        """Per-topology saved counts of S and dominated-node counts of ``candidates``."""
        self._move(frozenset(S))
        candidates = np.asarray(candidates, dtype=np.intp)
        keys = self.s * self.n
        gain_counts = self._tally[:keys].reshape(self.s, self.n)[:, candidates]
        gain_counts[:, self._is_seed[candidates]] = 0
        return self.n - self._tally[keys:], gain_counts

    def _move(self, S) -> None:
        """Bring the kernel's state from its set W to S.

        The rows whose value may change form the region: the newly
        vaccinated rows, the rows no longer vaccinated and the unreached rows
        they revive, and every row downstream of those through open rows and
        through certified rows that lose a witness.  Only the region is
        certified again and swept; every row outside it keeps its value.
        """
        if self._kind is None:
            self._start(S)
            return
        add, drop = S - self._vaccinated, self._vaccinated - S
        if not (add or drop):
            return
        kind, witness, dom = self._kind, self._witness, self._dom
        newly, back = self._rows(add), self._rows(drop)
        kind[newly] = _VAC
        kind[back] = _SWEEP
        # the region grows through unreached rows too when a row is no longer
        # vaccinated, which may reach them again
        revive = _DEAD if len(back) else -1
        ahead = np.concatenate([newly, back])
        opened = [back]  # the rows whose certified predecessors may grow, or whose certificate went
        while len(ahead):
            ahead = self._successors(ahead)
            was = kind[ahead]
            certified = ahead[was == _CERT]
            # both witnesses certified: their two int8 kinds read 0x0101 as one int16
            lost = certified[kind[witness[certified]].view(np.int16).ravel() != 0x0101 * _CERT]
            revived = ahead[was == revive]
            ahead = np.concatenate([ahead[was == _OPEN], revived, lost])
            kind[ahead] = _SWEEP
            opened += [revived, lost]
        region = (kind == _SWEEP).nonzero()[0]
        rows = np.concatenate([newly, region])
        old = dom[rows]
        dom[newly] = ~np.uint64(0)
        # any other open row of the region has no more certified predecessors
        # than before, unless one is certified here
        self._certify(np.concatenate(opened))
        self._solve(region)
        new = dom[rows]
        moved = (old != new).any(axis=1)
        rows = rows[moved]
        if len(rows):
            self._count(
                np.concatenate([rows, rows]),
                np.concatenate([old[moved], new[moved]]),
                np.repeat(np.array([-1, 1]), len(rows)),
            )
        self._vaccinated = S

    def _start(self, S) -> None:
        """The kernel's first state, under S."""
        rows = len(self._node)
        self._vaccinated = S
        self._kind = kind = np.full(rows + 1, _SWEEP, dtype=np.int8)
        self._witness = np.full((rows + 1, 2), rows, dtype=np.int32)
        self._dom = np.full((rows + 1, self._words), ~np.uint64(0))
        self._dom[rows] = 0  # the super-source's row: reached, dominated by nothing
        self._tally = np.zeros(self.s * (self.n + 1), dtype=np.int64)
        kind[rows] = _CERT
        kind[self._rows(S)] = _VAC
        seeds = self._rows(self.infected)
        kind[seeds] = _CERT  # their one predecessor is the super-source
        self._certify(self._successors(seeds))
        self._solve(np.arange(rows))
        self._count(np.arange(rows), self._dom[:-1], np.ones(rows, dtype=np.int64))

    def _rows(self, nodes) -> np.ndarray:
        """The rows of ``nodes``, every topology's."""
        where = self._pos[:, np.fromiter(nodes, dtype=np.intp, count=len(nodes))].ravel()
        return where[where >= 0]

    def _successors(self, rows) -> np.ndarray:
        """The successor rows of ``rows``, with a repeat for each edge into them."""
        return self._succs[_ragged(self._out_first[rows], self._out_degree[rows])[0]]

    def _certify(self, rows) -> None:
        """Certify, round by round, the rows of this pass's region among
        ``rows``, which holds every row that may gain a certificate first, and
        among the successors of each row certified.

        A round reads only the rows certified before it, so every witness
        belongs to an earlier round, and after the first round only a
        successor of a row just certified can gain a certified predecessor.
        """
        kind, witness, slot = self._kind, self._witness, self._slot
        while True:
            rows = rows[kind[rows] == _SWEEP]
            at = np.arange(len(rows))
            slot[rows] = at
            rows = rows[slot[rows] == at]  # each once
            if not len(rows):
                return
            at, start = _ragged(self._first[rows], self._degree[rows])
            preds = self._preds[at]
            entry = np.where(kind[preds] == _CERT, np.arange(len(at)), -1)
            last = np.maximum.reduceat(entry, start)
            entry[entry < 0] = len(at)
            lowest = np.minimum.reduceat(entry, start)
            two = lowest < last  # two certified entries, and so two distinct rows
            rows = rows[two]
            if not len(rows):
                return
            kind[rows] = _CERT
            witness[rows, 0] = preds[lowest[two]]
            witness[rows, 1] = preds[last[two]]
            rows = self._successors(rows)

    def _solve(self, region) -> None:
        """Set the certified rows of ``region`` to their own bit, sweep the
        others from all ones, and mark those left unreached."""
        dom, kind = self._dom, self._kind
        was = kind[region]
        settled, sweep = region[was == _CERT], region[was == _SWEEP]
        dom[settled] = self._own(settled)
        if len(sweep):
            dom[sweep] = ~np.uint64(0)
            kind[sweep] = _OPEN
            self._sweep(sweep)
            far_word, far_bit = self._far
            kind[sweep[(dom[sweep, far_word] & far_bit) != 0]] = _DEAD

    def _sweep(self, rows) -> None:
        """Sweep ``rows``, which are all ones, all at once until a sweep
        changes nothing; every other row is a constant.

        The rows go by falling in-degree, so slot j, the j-th predecessors of
        the rows with more than j, belongs to a prefix of them: one ``take``
        gathers every slot, one after another, and a slot's AND is one slice.
        """
        dom = self._dom
        degree = self._degree[rows]
        by = np.argsort(-degree, kind="stable")
        rows, degree = rows[by], degree[by]
        widths = (-degree).searchsorted(-np.arange(degree[0]))  # per slot j, the rows of in-degree > j
        bases = np.cumsum(widths) - widths
        at, start = _ragged(self._first[rows], degree)
        slot = np.arange(len(at)) - start.repeat(degree)  # each entry's j
        slots = np.empty(len(at), dtype=self._preds.dtype)
        slots[bases[slot] + np.arange(len(rows)).repeat(degree)] = self._preds[at]
        spans = list(zip(bases[1:].tolist(), widths[1:].tolist()))
        own = self._own(rows)
        old = dom[rows]
        while True:
            part = dom.take(slots, axis=0)
            acc = part[: len(rows)]
            for lo, width in spans:
                acc[:width] &= part[lo : lo + width]
            acc |= own
            dom[rows] = acc
            if not (acc != old).any():
                return
            old = acc

    def _own(self, rows) -> np.ndarray:
        """The Dom value of each of ``rows`` that holds its own bit alone."""
        own = np.zeros((len(rows), self._words), dtype=np.uint64)
        own.reshape(-1)[np.arange(len(rows)) * self._words + (self._node[rows] >> 6)] = self._bit[rows]
        return own

    def _count(self, rows, values, sign) -> None:
        """Add ``sign[i]`` for the i-th of ``rows``, with Dom ``values[i]``, if
        it is reached: to its topology's reached rows and to the key of every
        node its Dom holds, its own included.  An unreached or vaccinated row
        adds nothing.  ``values`` is consumed."""
        n = self.n
        far_word, far_bit = self._far
        live = ((values[:, far_word] & far_bit) == 0).nonzero()[0]
        rows, sign = rows[live], sign[live]
        topo = self._topo[rows]
        keys, signs = [topo * n + self._node[rows], self.s * n + topo], [sign, sign]
        values = values[live]
        values.reshape(-1)[np.arange(len(rows)) * self._words + (self._node[rows] >> 6)] ^= self._bit[rows]
        row, word = values.nonzero()  # the strict dominators' words
        value = values[row, word]
        at = topo[row] * n + word * 64  # the key of each word's bit 0
        sign = sign[row]
        while len(value):  # peel off each word's lowest set bit until none is left
            low = value & -value  # two's complement on uint64
            keys.append(at + np.bitwise_count(low - 1))
            signs.append(sign)
            value ^= low
            more = value.nonzero()[0]
            value, at, sign = value[more], at[more], sign[more]
        np.add.at(self._tally, np.concatenate(keys), np.concatenate(signs))


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

    def _cover(self, pre, end) -> np.ndarray:
        """Per position, how many vaccinated rows, with intervals ``[pre, end)``, hold it."""
        positions = self._positions
        return np.cumsum(
            np.bincount(pre.ravel(), minlength=positions + 1)
            - np.bincount(end.ravel(), minlength=positions + 1)
        )[:-1]

    def _counts(self, S, candidates) -> tuple[np.ndarray, np.ndarray]:
        S = np.fromiter(S, dtype=np.intp)
        candidates = np.asarray(candidates, dtype=np.intp)
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
    safe to use from two threads at once: it keeps one BFS visitation buffer,
    and the IC structural one also keeps its dominator table's state.
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
