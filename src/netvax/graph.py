"""Directed weighted contact network with model-specific validation.

Edge values are interpreted per the graph's model tag: influence weights for
the linear threshold (LT) model, transmission probabilities for the
independent cascade (IC) model.  A ``Graph`` is immutable after construction
and indexes its edges both by source and by destination, so forward
traversal and incoming-edge queries are both O(degree).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import FormatError, ParameterError
from .util import fmt_float, text_lines

LT = "LT"
IC = "IC"
MODELS = (LT, IC)

# Incoming LT weight sums at or above this cap fail validation; rescaling can
# land arbitrarily close to 1, so "strictly less than 1" carries a tolerance.
LT_INCOMING_CAP = 1.0 - 1e-9


@dataclass(frozen=True)
class Violation:
    subject: str
    rule: str
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...]


class Graph:
    """Immutable directed graph with per-edge values and optional coordinates."""

    __slots__ = ("n", "model", "edges", "coords", "_out", "_in")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int, float]],
        model: str,
        coords: Sequence[tuple[float, float]] | None = None,
    ):
        if model not in MODELS:
            raise ParameterError(f"unknown model tag {model!r}; expected one of {MODELS}")
        if n < 0:
            raise ParameterError("node count must be non-negative")
        edge_list = []
        for src, dst, value in edges:
            src = int(src)
            dst = int(dst)
            if not (0 <= src < n and 0 <= dst < n):
                raise IndexError(f"edge ({src},{dst}) references a node outside 0..{n - 1}")
            edge_list.append((src, dst, float(value)))
        if coords is not None:
            coords = tuple((float(x), float(y)) for x, y in coords)
            if len(coords) != n:
                raise ParameterError("coords must list one (x, y) pair per node")
        self.n = int(n)
        self.model = model
        self.edges = tuple(edge_list)
        # None, not (), for a 0-node graph: its file has no coord line to read back
        self.coords = coords or None

        out: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        incoming: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        for src, dst, value in self.edges:
            out[src].append((dst, value))
            incoming[dst].append((src, value))
        self._out = tuple(tuple(sorted(a)) for a in out)
        self._in = tuple(tuple(sorted(a)) for a in incoming)

    @property
    def m(self) -> int:
        return len(self.edges)

    def out_neighbors(self, i: int) -> tuple[tuple[int, float], ...]:
        """Edges leaving node i as (dst, value), ascending by dst."""
        if not 0 <= i < self.n:
            raise IndexError(f"node {i} outside 0..{self.n - 1}")
        return self._out[i]

    def in_neighbors(self, j: int) -> tuple[tuple[int, float], ...]:
        """Edges entering node j as (src, value), ascending by src."""
        if not 0 <= j < self.n:
            raise IndexError(f"node {j} outside 0..{self.n - 1}")
        return self._in[j]

    def out_degree(self, i: int) -> int:
        return len(self.out_neighbors(i))

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Union of in- and out-neighbors, ascending, direction-agnostic."""
        return tuple(sorted({d for d, _ in self.out_neighbors(v)} | {s for s, _ in self.in_neighbors(v)}))

    def with_values(self, values: Sequence[float]) -> "Graph":
        """Copy of this graph with edge values replaced positionally."""
        if len(values) != len(self.edges):
            raise ParameterError("one value per edge required")
        new_edges = [(s, d, float(v)) for (s, d, _), v in zip(self.edges, values)]
        return Graph(self.n, new_edges, self.model, self.coords)

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
        return (
            self.n == other.n
            and self.model == other.model
            and self.edges == other.edges
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.n, self.model, self.edges, self.coords))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m}, model={self.model})"


def in_neighbors(graph: Graph, j: int) -> list[tuple[int, float]]:
    """Incoming edges of node j as (src, value) pairs in ascending src order."""
    return list(graph.in_neighbors(j))


def validate(graph: Graph) -> ValidationReport:
    """Check structural and model invariants; violations are data, not errors.

    Rules checked: no self-loops, no duplicate (src, dst) pairs, edge values
    in [0, 1] for either model, and for LT graphs each node's incoming weight
    sum strictly below 1 (with tolerance, see LT_INCOMING_CAP).
    """
    violations: list[Violation] = []
    seen: set[tuple[int, int]] = set()
    for src, dst, value in graph.edges:
        subject = f"edge ({src},{dst})"
        if src == dst:
            violations.append(Violation(subject, "self-loop", "self-loops are not allowed"))
        if (src, dst) in seen:
            violations.append(Violation(subject, "duplicate-edge", "duplicate (src,dst) pair"))
        seen.add((src, dst))
        if not (0.0 <= value <= 1.0):
            kind = "probability" if graph.model == IC else "weight"
            violations.append(Violation(subject, "value-range", f"{kind} {value!r} out of [0,1]"))
    if graph.model == LT:
        for j in range(graph.n):
            total = sum(v for _, v in graph.in_neighbors(j))
            if total > LT_INCOMING_CAP:
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
