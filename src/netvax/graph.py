"""Directed weighted contact network with model-specific validation.

Edge values are interpreted per the graph's model tag: influence weights for
the linear threshold (LT) model, transmission probabilities for the
independent cascade (IC) model.  A ``Graph`` is immutable after construction
and holds its edges once, as read-only arrays in the given order; the
per-node adjacency (by source and by destination) is built from them on
first use, after which forward traversal and incoming-edge queries are both
O(degree).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import FormatError, ParameterError
from .util import fmt_float, reject_extra_fields, repeats, text_lines

LT = "LT"
IC = "IC"
MODELS = (LT, IC)

# Incoming LT weight sums at or above this cap fail validation; rescaling can
# land arbitrarily close to 1, so "strictly less than 1" carries a tolerance.
LT_INCOMING_CAP = 1.0 - 1e-9

# Fields after the record name, per record kind of the graph file.
_RECORD_FIELDS = {"graph": 2, "coord": 3, "edge": 3}


@dataclass(frozen=True)
class Violation:
    subject: str
    rule: str
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...]


def _edge_rows(edges, dtype, fields: tuple[str, ...]) -> np.ndarray:
    """The edges as a 2-D array: one row per edge, one column per field."""
    rows = np.array(edges if isinstance(edges, np.ndarray) else list(edges), dtype=dtype)
    if rows.size == 0:
        rows = rows.reshape(0, len(fields))
    if rows.ndim != 2 or rows.shape[1] != len(fields):
        raise ParameterError(f"each edge must be a ({', '.join(fields)}) tuple")
    return rows


class Graph:
    """Immutable directed graph with per-edge values and optional coordinates.

    Edge i runs from ``src[i]`` to ``dst[i]`` with value ``value[i]``: int64,
    int64 and float64 read-only arrays.  ``edges`` and the adjacency queries
    are derived from them.
    """

    __slots__ = ("n", "model", "src", "dst", "value", "coords", "_out", "_in")

    def __init__(
        self,
        n: int,
        edges: Iterable,
        model: str,
        coords: Sequence[tuple[float, float]] | None = None,
        *,
        values: Sequence[float] | None = None,
    ):
        """``edges`` holds (src, dst, value) triples, or (src, dst) pairs when
        ``values`` gives the edge values, one per pair and in the same order."""
        if model not in MODELS:
            raise ParameterError(f"unknown model tag {model!r}; expected one of {MODELS}")
        if n < 0:
            raise ParameterError("node count must be non-negative")
        n = int(n)
        try:
            if values is None:
                # object rows convert each field the way int() and float() do
                rows = _edge_rows(edges, object, ("src", "dst", "value"))
                pairs, values = rows[:, :2], rows[:, 2]
            else:
                pairs = _edge_rows(edges, np.int64, ("src", "dst"))
            src, dst = np.ascontiguousarray(pairs.T, dtype=np.int64)
        except OverflowError as exc:
            raise IndexError(f"an edge references a node outside 0..{n - 1}") from exc
        value = np.array(values, dtype=np.float64)
        if value.shape != src.shape:
            raise ParameterError("one value per edge required")
        outside = np.flatnonzero((src < 0) | (src >= n) | (dst < 0) | (dst >= n))
        if len(outside):
            i = outside[0]
            raise IndexError(f"edge ({src[i]},{dst[i]}) references a node outside 0..{n - 1}")
        if coords is not None:
            points = np.array(coords, dtype=float)
            if points.shape != (n, 2) and not (n == 0 and points.size == 0):
                raise ParameterError("coords must list one (x, y) pair per node")
            # None, not (), for a 0-node graph: its file has no coord line to read back
            coords = tuple(map(tuple, points.tolist())) or None
        for array in (src, dst, value):
            array.flags.writeable = False
        self.n = n
        self.model = model
        self.src, self.dst, self.value = src, dst, value
        self.coords = coords
        self._out = None
        self._in = None

    @property
    def m(self) -> int:
        return len(self.src)

    @property
    def edges(self) -> tuple[tuple[int, int, float], ...]:
        """Every edge as (src, dst, value), in the given order."""
        return tuple(zip(self.src.tolist(), self.dst.tolist(), self.value.tolist()))

    def _adjacency(self, heads: np.ndarray, tails: np.ndarray) -> tuple:
        """Per node of ``heads``, its (tail, value) pairs ascending."""
        order = np.lexsort((self.value, tails, heads))
        pairs = list(zip(tails[order].tolist(), self.value[order].tolist()))
        ends = np.cumsum(np.bincount(heads, minlength=self.n)).tolist()
        return tuple(tuple(pairs[a:b]) for a, b in zip([0, *ends], ends))

    def out_neighbors(self, i: int) -> tuple[tuple[int, float], ...]:
        """Edges leaving node i as (dst, value), ascending by dst."""
        if not 0 <= i < self.n:
            raise IndexError(f"node {i} outside 0..{self.n - 1}")
        if self._out is None:
            self._out = self._adjacency(self.src, self.dst)
        return self._out[i]

    def in_neighbors(self, j: int) -> tuple[tuple[int, float], ...]:
        """Edges entering node j as (src, value), ascending by src."""
        if not 0 <= j < self.n:
            raise IndexError(f"node {j} outside 0..{self.n - 1}")
        if self._in is None:
            self._in = self._adjacency(self.dst, self.src)
        return self._in[j]

    def out_degree(self, i: int) -> int:
        return len(self.out_neighbors(i))

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Union of in- and out-neighbors, ascending, direction-agnostic."""
        return tuple(sorted({d for d, _ in self.out_neighbors(v)} | {s for s, _ in self.in_neighbors(v)}))

    def with_values(self, values: Sequence[float]) -> "Graph":
        """Copy of this graph with edge values replaced positionally."""
        return Graph(self.n, np.column_stack((self.src, self.dst)), self.model, self.coords, values=values)

    def serialize(self) -> str:
        """Canonical text form; also the on-disk format (see write_graph)."""
        lines = [f"graph {self.n} {self.model}"]
        if self.coords is not None:
            for i, (x, y) in enumerate(self.coords):
                lines.append(f"coord {i} {fmt_float(x)} {fmt_float(y)}")
        for src, dst, value in self.edges:
            lines.append(f"edge {src} {dst} {fmt_float(value)}")
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        return hashlib.sha256(self.serialize().encode()).hexdigest()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        # identity first: a nan value equals only itself, as inside one tuple
        return self is other or (
            self.n == other.n
            and self.model == other.model
            and self.edges == other.edges
            and self.coords == other.coords
        )

    def __hash__(self):
        # + 0.0 turns -0.0 into 0.0, which it equals; nan hashes by its bits
        edges = (self.src.tobytes(), self.dst.tobytes(), (self.value + 0.0).tobytes())
        return hash((self.n, self.model, edges, self.coords))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m}, model={self.model})"


def in_neighbors(graph: Graph, j: int) -> list[tuple[int, float]]:
    """Incoming edges of node j as (src, value) pairs in ascending src order."""
    return list(graph.in_neighbors(j))


def validate(graph: Graph) -> ValidationReport:
    """Check structural and model invariants; violations are data, not errors.

    Rules checked: no self-loops, no duplicate (src, dst) pairs, edge values
    in [0, 1] for either model, and for LT graphs each node's incoming weight
    sum strictly below 1 (with tolerance, see LT_INCOMING_CAP).  Edge
    violations come in edge order, then LT nodes in ascending order.
    """
    src, dst, value = graph.src, graph.dst, graph.value
    loop = src == dst
    repeat = repeats(src * graph.n + dst)
    off_range = ~((value >= 0.0) & (value <= 1.0))  # nan is off range too
    kind = "probability" if graph.model == IC else "weight"
    violations: list[Violation] = []
    flagged = np.flatnonzero(loop | repeat | off_range)
    for s, d, v, is_loop, is_repeat, is_off_range in zip(
        *(a[flagged].tolist() for a in (src, dst, value, loop, repeat, off_range))
    ):
        subject = f"edge ({s},{d})"
        if is_loop:
            violations.append(Violation(subject, "self-loop", "self-loops are not allowed"))
        if is_repeat:
            violations.append(Violation(subject, "duplicate-edge", "duplicate (src,dst) pair"))
        if is_off_range:
            violations.append(Violation(subject, "value-range", f"{kind} {v!r} out of [0,1]"))
    if graph.model == LT:
        # bincount adds in input order: per node, ascending (src, value) as in in_neighbors
        order = np.lexsort((value, src))
        totals = np.bincount(dst[order], weights=value[order], minlength=graph.n)
        over = np.flatnonzero(totals > LT_INCOMING_CAP)
        for j, total in zip(over.tolist(), totals[over].tolist()):
            violations.append(
                Violation(f"node {j}", "lt-incoming-sum", f"incoming sum {total:.12g} >= 1")
            )
    return ValidationReport(ok=not violations, violations=tuple(violations))


def write_graph(graph: Graph, path) -> None:
    with open(path, "w") as fh:
        fh.write(graph.serialize())


def read_graph(path) -> Graph:
    """Parse the line-oriented graph format written by write_graph."""
    n = None
    model = None
    coords: dict[int, tuple[float, float]] = {}
    edges: list[tuple[int, int, float]] = []
    for lineno, raw in enumerate(text_lines(path), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            reject_extra_fields(parts, _RECORD_FIELDS, lineno)
            if parts[0] == "graph":
                if n is not None:
                    raise FormatError(f"line {lineno}: a second 'graph' header")
                n = int(parts[1])
                model = parts[2]
            elif parts[0] == "coord":
                node = int(parts[1])
                if node in coords:
                    raise FormatError(f"line {lineno}: coord for node {node} given twice")
                coords[node] = (float(parts[2]), float(parts[3]))
            elif parts[0] == "edge":
                edges.append((int(parts[1]), int(parts[2]), float(parts[3])))
            else:
                raise FormatError(f"line {lineno}: unknown record {parts[0]!r}")
        except (IndexError, ValueError) as exc:
            if isinstance(exc, FormatError):
                raise
            raise FormatError(f"line {lineno}: cannot parse {line!r}") from exc
    if n is None or model is None:
        raise FormatError("missing 'graph <n> <model>' header line")
    coord_list = None
    if coords:
        if set(coords) != set(range(n)):
            raise FormatError("coord lines must cover every node exactly once")
        coord_list = [coords[i] for i in range(n)]
    try:
        return Graph(n, edges, model, coord_list)
    except (IndexError, ParameterError) as exc:
        raise FormatError(str(exc)) from exc
