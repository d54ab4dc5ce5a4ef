"""Live-edge topology sampling for LT and IC, plus exact enumeration.

A topology is one deterministic realization of the diffusion process: an
unweighted directed graph over the same nodes, containing only the edges
that were sampled live.  LT realizations keep at most one incoming edge per
node; IC realizations keep each edge independently with its probability.
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Iterable, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .errors import CapacityError, FormatError, ModelMismatchError, ParameterError
from .graph import IC, LT, Graph, validate
from .util import first_repeat, fmt_float, reject_extra_fields, text_lines

# Enumeration guards: IC is exponential in the edge count, LT in the product
# of per-node (indegree + 1) choices.
IC_ENUM_MAX_EDGES = 20
LT_ENUM_MAX_CHOICES = 2**20

# Live edges are int32 arrays, and a stacked set numbers node u of topology t
# as t * n + u, so s * n must stay within int32.
_INT32_MAX = np.iinfo(np.int32).max

# Fields after the record name, per record kind of the topology file; a
# 'topo' line carries its mu only when the set was enumerated.
_RECORD_FIELDS = {"toposet": 3, "topo": 2, "e": 2}


class Topology:
    """Unweighted directed realization; optionally carries its probability mu.

    The live edges are held once, as a read-only (E, 2) int32 array ``edges``
    in the given order; ``live_edges`` and the adjacency ``out`` are derived
    from it.
    """

    __slots__ = ("n", "edges", "mu", "_out")

    def __init__(self, n: int, live_edges: Iterable[tuple[int, int]], mu: float | None = None):
        n = int(n)
        if not 0 <= n <= _INT32_MAX:
            raise ParameterError(f"node count {n} outside 0..{_INT32_MAX}")
        if not isinstance(live_edges, np.ndarray):
            live_edges = list(live_edges)
        try:
            edges = np.array(live_edges, dtype=np.int64).reshape(-1, 2)
        except OverflowError as exc:
            raise IndexError(f"a live edge lies outside 0..{n - 1}") from exc
        outside = np.flatnonzero(((edges < 0) | (edges >= n)).any(axis=1))
        if len(outside):
            s, d = edges[outside[0]].tolist()
            raise IndexError(f"live edge ({s},{d}) outside 0..{n - 1}")
        twice = first_repeat(edges[:, 0] * n + edges[:, 1])
        if twice is not None:
            s, d = edges[twice].tolist()
            raise ParameterError(f"live edge ({s},{d}) given twice")
        if mu is not None and not (0.0 < mu <= 1.0):
            raise ParameterError("mu must lie in (0, 1]")
        self.n = n
        self.edges = edges.astype(np.int32)
        self.edges.flags.writeable = False
        self.mu = mu
        self._out = None

    @property
    def live_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(map(tuple, self.edges.tolist()))

    @property
    def out(self) -> tuple[tuple[int, ...], ...]:
        """Per node, the heads of its live out-edges in edge order; built on first use."""
        if self._out is None:
            src = self.edges[:, 0]
            heads = self.edges[np.argsort(src, kind="stable"), 1].tolist()
            ends = np.cumsum(np.bincount(src, minlength=self.n)).tolist()
            self._out = tuple(tuple(heads[a:b]) for a, b in zip([0, *ends], ends))
        return self._out

    def __eq__(self, other):
        if not isinstance(other, Topology):
            return NotImplemented
        return self.n == other.n and self.mu == other.mu and np.array_equal(self.edges, other.edges)

    def __hash__(self):
        return hash((self.n, self.edges.tobytes(), self.mu))

    def __repr__(self):
        return f"Topology(n={self.n}, live={len(self.edges)}, mu={self.mu})"


class TopologySet:
    """A list of topologies sharing one source graph, plus sampling metadata."""

    __slots__ = ("topologies", "source_graph_hash", "seed", "mu", "_stacked")

    def __init__(self, topologies: Sequence[Topology], source_graph_hash: str, seed: int):
        tops = tuple(topologies)
        if any(t.n != tops[0].n for t in tops):
            raise ParameterError("all topologies in a set must share n")
        given = sum(t.mu is not None for t in tops)
        if 0 < given < len(tops):
            raise ParameterError(f"mu is given for {given} of {len(tops)} topologies; give it for all or none")
        self.topologies = tops
        # exact per-topology probabilities of an enumerated set; None when sampled
        self.mu = np.array([t.mu for t in tops], dtype=float) if given else None
        self.source_graph_hash = source_graph_hash
        self.seed = int(seed)
        self._stacked = None

    def __len__(self) -> int:
        return len(self.topologies)

    def __iter__(self):
        return iter(self.topologies)

    def __getitem__(self, i) -> Topology:
        return self.topologies[i]

    @property
    def n(self) -> int:
        return self.topologies[0].n if self.topologies else 0

    def stacked_edges(self) -> np.ndarray:
        """Every live edge as (t * n + src, t * n + dst), topology by topology.

        Node u of topology t is row t * n + u, which is also the LP's x(t, u)
        index.  Built once per set and read-only.
        """
        if self._stacked is None:
            if len(self.topologies) * self.n > _INT32_MAX:
                raise CapacityError(
                    f"{len(self.topologies)} topologies of {self.n} nodes exceed int32 row ids"
                )
            stacked = np.concatenate([np.empty((0, 2), dtype=np.int32), *(t.edges for t in self.topologies)])
            sizes = [len(t.edges) for t in self.topologies]
            stacked += np.repeat(np.arange(len(sizes), dtype=np.int32) * self.n, sizes)[:, None]
            stacked.flags.writeable = False
            self._stacked = stacked
        return self._stacked

    def weights(self) -> np.ndarray:
        """Per-topology weights: exact mu when enumerated, else uniform 1/s."""
        if self.mu is not None:
            return self.mu.copy()
        s = len(self.topologies)
        return np.full(s, 1.0 / s) if s else np.zeros(0)

    def serialize(self) -> str:
        lines = [f"toposet {self.n} {len(self.topologies)} {self.seed}"]
        for idx, topo in enumerate(self.topologies):
            if topo.mu is None:
                lines.append(f"topo {idx}")
            else:
                lines.append(f"topo {idx} {fmt_float(topo.mu)}")
            for s, d in topo.live_edges:
                lines.append(f"e {s} {d}")
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        return hashlib.sha256(self.serialize().encode()).hexdigest()

    def __eq__(self, other):
        if not isinstance(other, TopologySet):
            return NotImplemented
        return (
            self.topologies == other.topologies
            and self.source_graph_hash == other.source_graph_hash
            and self.seed == other.seed
        )

    def __hash__(self):
        return hash((self.topologies, self.source_graph_hash, self.seed))


def stacked_levels(live: np.ndarray, s: int, n: int, seeds, vaccinated=()) -> np.ndarray:
    """The BFS level of every row of a stacked layout, -1 where unreached.

    ``live`` is a ``TopologySet.stacked_edges()`` array over s topologies of
    n nodes.  The search starts at the super-source, row s * n (level 0),
    which feeds every seed's row in every topology (level 1).  Live edges
    that enter a ``vaccinated`` node are dropped, so such a node is reached
    only if it is a seed.
    """
    root = s * n  # stacked_edges() keeps s * n, and so every row id here, within int32
    seed_rows = (np.arange(s, dtype=np.int32)[:, None] * n + np.asarray(seeds, dtype=np.int32)).ravel()
    blocked = np.zeros(n, dtype=bool)
    blocked[np.asarray(vaccinated, dtype=np.int64)] = True
    kept = ~blocked[live[:, 1] % n]
    heads = np.concatenate([live[kept, 0], np.full(len(seed_rows), root, dtype=np.int32)])
    tails = np.concatenate([live[kept, 1], seed_rows])
    graph = csr_matrix((np.ones(len(heads), dtype=bool), (heads, tails)), shape=(root + 1, root + 1))
    dist = dijkstra(graph, indices=root, unweighted=True)
    return np.where(np.isfinite(dist), dist, -1).astype(np.int32)


def _check_sampling_pre(graph: Graph, model: str, s: int, seed: int) -> None:
    if graph.model != model:
        raise ModelMismatchError(f"expected a {model} graph, got {graph.model}")
    if s < 1:
        raise ParameterError("sample count must be at least 1")
    if seed < 0:
        raise ParameterError("seed must be non-negative")
    report = validate(graph)
    if not report.ok:
        raise ParameterError(f"graph fails validation: {report.violations[0]}")


def _topology_rng(seed: int, index: int) -> np.random.Generator:
    # One substream per topology index: topology i is identical for any s > i,
    # which lets solvers built at different sample counts share prefixes.
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(index),))
    return np.random.Generator(np.random.PCG64(ss))


def _lt_choices(graph: Graph) -> tuple[np.ndarray, np.ndarray, int, np.ndarray, np.ndarray]:
    """The incoming edges of every node, grouped by head and ascending by source.

    Returns the edges as (src, dst) rows in that order, the index of each
    edge's head among the nodes with incoming edges, the number of such
    nodes, and each edge's running weight sum within its head before and
    after its own weight.  A running sum adds the weights one after another,
    as ``acc += w`` does: heads whose in-degrees share a power of two form one
    zero-padded matrix for ``np.cumsum``, so padding stays below the edge count.
    """
    order = np.lexsort((graph.value, graph.src, graph.dst))
    dst, weights = graph.dst[order], graph.value[order]
    _, first, head, degree = np.unique(dst, return_index=True, return_inverse=True, return_counts=True)
    after = np.empty(len(weights))
    bucket = np.log2(degree).astype(np.int64)
    for b in np.unique(bucket):
        rows = np.flatnonzero(bucket == b)
        cols = np.arange(degree[rows].max())
        present = cols < degree[rows, None]
        at = (first[rows, None] + cols)[present]
        padded = np.zeros(present.shape)
        padded[present] = weights[at]
        after[at] = np.cumsum(padded, axis=1)[present]
    before = np.zeros(len(weights))
    before[1:] = after[:-1]
    before[first] = 0.0
    return np.column_stack((graph.src[order], dst)), head, len(first), before, after


def sample_lt(graph: Graph, s: int, seed: int) -> TopologySet:
    """Sample s LT live-edge realizations: per node, at most one incoming edge.

    For each node j the incoming edge (i -> j) is selected with probability
    w_ij, and no edge with the leftover 1 - sum of incoming weights, via a
    single uniform draw walked over incoming edges in ascending source order:
    the first edge whose running weight sum exceeds the draw is live.  A
    topology draws one uniform per node with incoming edges, ascending.
    """
    _check_sampling_pre(graph, LT, s, seed)
    pairs, head, n_heads, before, after = _lt_choices(graph)
    topologies = []
    for t in range(s):
        u = _topology_rng(seed, t).random(n_heads)[head]
        # weights are >= 0, so running sums rise along a head's edges and at
        # most one edge of each head has its draw in [before, after)
        topologies.append(Topology(graph.n, pairs[(before <= u) & (u < after)]))
    return TopologySet(topologies, graph.digest(), seed)


def sample_ic(graph: Graph, s: int, seed: int) -> TopologySet:
    """Sample s IC realizations: every edge independently live with its p."""
    _check_sampling_pre(graph, IC, s, seed)
    pairs = np.column_stack((graph.src, graph.dst))
    topologies = [Topology(graph.n, pairs[_topology_rng(seed, t).random(graph.m) < graph.value]) for t in range(s)]
    return TopologySet(topologies, graph.digest(), seed)


def enumerate_all(graph: Graph) -> TopologySet:
    """Every achievable topology with its exact probability; sum of mu is 1.

    Zero-probability realizations (an edge with p = 0 live, or p = 1 dead)
    are omitted, so every returned mu is positive.
    """
    report = validate(graph)
    if not report.ok:
        raise ParameterError(f"graph fails validation: {report.violations[0]}")
    if graph.model == IC:
        return _enumerate_ic(graph)
    return _enumerate_lt(graph)


def _combinations(options):
    """Each choice of one option per list, as (live edges, mu).

    An option is ``(edge or None, factor)``; mu multiplies the factors in
    list order, and the live edges come in list order too.
    """
    for combo in itertools.product(*options):
        mu = 1.0
        live = []
        for edge, factor in combo:
            mu *= factor
            if edge is not None:
                live.append(edge)
        yield live, mu


def _enumerate_ic(graph: Graph) -> TopologySet:
    if graph.m > IC_ENUM_MAX_EDGES:
        raise CapacityError(
            f"IC enumeration needs 2^{graph.m} topologies; guard is 2^{IC_ENUM_MAX_EDGES}"
        )
    # Per-edge options: live or dead with its factor; drop impossible branches
    # up front.  A validated p lies in [0, 1], so every edge keeps an option.
    options = []
    for src, dst, p in graph.edges:
        opts = []
        if p > 0.0:
            opts.append(((src, dst), p))
        if p < 1.0:
            opts.append((None, 1.0 - p))
        options.append(opts)
    topologies = [Topology(graph.n, live, mu=mu) for live, mu in _combinations(options)]
    return TopologySet(topologies, graph.digest(), seed=0)


def _enumerate_lt(graph: Graph) -> TopologySet:
    total_choices = 1
    for j in range(graph.n):
        total_choices *= len(graph.in_neighbors(j)) + 1
        if total_choices > LT_ENUM_MAX_CHOICES:
            raise CapacityError(
                f"LT enumeration exceeds {LT_ENUM_MAX_CHOICES} per-node choice combinations"
            )
    # Per-node options: each incoming edge with its weight, or none with the
    # leftover probability.  Nodes without incoming edges contribute factor 1.
    options = []
    for j in range(graph.n):
        incoming = graph.in_neighbors(j)
        if not incoming:
            continue
        opts: list[tuple[tuple[int, int] | None, float]] = []
        total = 0.0
        for src, w in incoming:
            total += w
            if w > 0.0:
                opts.append(((src, j), w))
        if 1.0 - total > 0.0:
            opts.append((None, 1.0 - total))
        options.append(opts)
    topologies = [Topology(graph.n, sorted(live), mu=mu) for live, mu in _combinations(options)]
    return TopologySet(topologies, graph.digest(), seed=0)


def write_topology_set(ts: TopologySet, path) -> None:
    with open(path, "w") as fh:
        fh.write(ts.serialize())


def read_topology_set(path, source_graph_hash: str = "") -> TopologySet:
    """Parse the text format written by write_topology_set."""
    n = None
    expected = None
    seed = 0
    topologies: list[Topology] = []
    edges: list[tuple[int, int]] = []
    mu: float | None = None
    started = False
    topo_line = 0

    def flush():
        try:
            topologies.append(Topology(n, edges, mu=mu))
        except (IndexError, ParameterError) as exc:
            raise FormatError(f"line {topo_line}: topology {len(topologies)}: {exc}") from exc

    for lineno, raw in enumerate(text_lines(path), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            reject_extra_fields(parts, _RECORD_FIELDS, lineno)
            if parts[0] == "toposet":
                if n is not None:
                    raise FormatError(f"line {lineno}: a second 'toposet' header")
                n = int(parts[1])
                if n < 0:
                    raise FormatError(f"line {lineno}: negative node count {n}")
                expected = int(parts[2])
                seed = int(parts[3])
            elif parts[0] == "topo":
                if n is None:
                    raise FormatError(f"line {lineno}: 'topo' before header")
                if started:
                    flush()
                index = int(parts[1])
                if index != len(topologies):
                    raise FormatError(
                        f"line {lineno}: topology index {index}, expected {len(topologies)}"
                    )
                started = True
                topo_line = lineno
                edges = []
                mu = float(parts[2]) if len(parts) > 2 else None
            elif parts[0] == "e":
                if not started:
                    raise FormatError(f"line {lineno}: 'e' before the first 'topo'")
                edges.append((int(parts[1]), int(parts[2])))
            else:
                raise FormatError(f"line {lineno}: unknown record {parts[0]!r}")
        except (IndexError, ValueError) as exc:
            if isinstance(exc, FormatError):
                raise
            raise FormatError(f"line {lineno}: cannot parse {line!r}") from exc
    if n is None:
        raise FormatError("missing 'toposet <n> <s> <seed>' header line")
    if started:
        flush()
    if expected is not None and expected != len(topologies):
        raise FormatError(f"header promises {expected} topologies, found {len(topologies)}")
    try:
        return TopologySet(topologies, source_graph_hash, seed)
    except ParameterError as exc:
        raise FormatError(str(exc)) from exc
