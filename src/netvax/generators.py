"""Random contact-network builders: Erdős–Rényi, Gaussian Waxman, city data.

All generators are pure functions of their parameters and RNG seed, and every
graph they return passes ``validate`` for its model.  LT weights are drawn
uniform and rescaled per node so incoming sums stay below 1; IC probabilities
are independent uniform(0,1) draws.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ModelMismatchError, ParameterError
from .graph import IC, LT, LT_INCOMING_CAP, MODELS, Graph
from .util import as_rng, round_half_up, text_lines

# Synthetic per-center variance range in box-units^2 (the data gives only
# proportionality, so the range is a documented knob).
DEFAULT_VARIANCE_RANGE = (0.5, 2.0)

# Largest city sigma as a fraction of the box side when no explicit constant
# is supplied; keeps clusters inside the box.
SIGMA_BOX_FRACTION = 1.0 / 8.0

# Incoming LT sums at or above 1 are rescaled down to this target.
LT_RESCALE_TARGET = 0.99


@dataclass(frozen=True)
class WaxmanParams:
    """Link-probability parameters: alpha * exp(-d / (beta * L)) in a square box."""

    alpha: float
    beta: float
    box_side: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise ParameterError("alpha must be in (0, 1]")
        if not self.beta > 0.0:  # also rejects nan, which would link no pair
            raise ParameterError("beta must be positive")
        if not 0.0 < self.box_side < math.inf:
            raise ParameterError("box_side must be finite and positive")


@dataclass(frozen=True)
class CityRecord:
    name: str
    lat: float
    lng: float
    population: int
    density: float


@dataclass(frozen=True)
class CityModel:
    """Gaussian centers derived from city data: (x, y, node_count, sigma)."""

    centers: tuple[tuple[float, float, int, float], ...]
    total_nodes: int
    scale_factor: int


def _require_model(graph: Graph, model: str) -> None:
    if graph.model != model:
        raise ModelMismatchError(f"expected a {model} graph, got {graph.model}")


def _lt_weights(n: int, dst: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One uniform weight per edge, each node's incoming sum >= 1 rescaled to 0.99."""
    weights = rng.random(len(dst))
    # bincount adds in edge order, one edge after another
    incoming_sum = np.bincount(dst, weights=weights, minlength=n)
    # Rescale whenever the sum would fail the strict-(<1) validation check.
    over = incoming_sum > LT_INCOMING_CAP
    scale = np.ones(n)
    scale[over] = LT_RESCALE_TARGET / incoming_sum[over]
    return weights * scale[dst]


def _edge_values(n: int, dst: np.ndarray, model: str, rng: np.random.Generator) -> np.ndarray:
    return _lt_weights(n, dst, rng) if model == LT else rng.random(len(dst))


def assign_lt_weights(graph: Graph, rng: np.random.Generator | int) -> Graph:
    """Draw uniform LT weights, rescaling any node's incoming sum >= 1 to 0.99.

    Weights are drawn in edge-list order, one per edge.  Rescaling multiplies
    every incoming weight of an offending node by 0.99 / sum, so the result
    always validates.
    """
    _require_model(graph, LT)
    return graph.with_values(_lt_weights(graph.n, graph.dst, as_rng(rng)))


def assign_ic_probs(graph: Graph, rng: np.random.Generator | int) -> Graph:
    """Independent uniform(0,1) transmission probability per edge."""
    _require_model(graph, IC)
    return graph.with_values(as_rng(rng).random(graph.m))


def generate_er(n: int, p: float, model: str, rng: np.random.Generator | int) -> Graph:
    """Directed G(n, p): each ordered pair (i, j), i != j, independently linked.

    Pair decisions consume one uniform draw each, in ascending (i, j) order,
    so a fixed seed reproduces the same graph.  The edge values are drawn
    after every pair decision.
    """
    if n < 0:
        raise ParameterError("n must be non-negative")
    if not (0.0 <= p <= 1.0):
        raise ParameterError("p must be in [0, 1]")
    if model not in MODELS:
        raise ParameterError(f"unknown model tag {model!r}")
    rng = as_rng(rng)
    # the pairs i != j in row-major order, one draw each
    src, dst = np.nonzero(~np.eye(n, dtype=bool))
    linked = rng.random(n * (n - 1)) < p
    pairs = np.column_stack((src[linked], dst[linked]))
    return Graph(n, pairs, model, values=_edge_values(n, pairs[:, 1], model, rng))


def waxman_edge_prob(d: float, params: WaxmanParams, L: float) -> float:
    """Link probability alpha * exp(-d / (beta * L)) at distance d."""
    if d < 0.0:
        raise ParameterError("distance must be non-negative")
    if L <= 0.0:
        raise ParameterError("max pairwise distance L must be positive")
    return params.alpha * math.exp(-d / (params.beta * L))


def _waxman_graph(
    points: np.ndarray, params: WaxmanParams, model: str, rng: np.random.Generator
) -> Graph:
    """Link each unordered pair by Waxman probability; realize both directions.

    Consumes exactly one uniform draw per unordered pair, ascending (i, j), so
    generation is reproducible independent of which links materialize.
    """
    n = len(points)
    src = dst = np.zeros(0, dtype=np.int64)
    if n > 1:
        iu, ju = np.triu_indices(n, k=1)
        d = np.hypot(points[iu, 0] - points[ju, 0], points[iu, 1] - points[ju, 1])
        L = float(d.max())
        if L > 0.0:
            probs = params.alpha * np.exp(-d / (params.beta * L))
        else:
            # All nodes coincide: d = 0 everywhere, so the link probability is alpha.
            probs = np.full(len(d), params.alpha)
        linked = rng.random(len(d)) < probs
        src = np.concatenate((iu[linked], ju[linked]))
        dst = np.concatenate((ju[linked], iu[linked]))
    # both directions of every linked pair, ascending (src, dst)
    order = np.lexsort((dst, src))
    pairs = np.column_stack((src[order], dst[order]))
    return Graph(n, pairs, model, points, values=_edge_values(n, pairs[:, 1], model, rng))


def _sample_center_points(
    centers: list[tuple[float, float, int, float]],
    box_side: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Isotropic Gaussian draws around each center, clamped to the box."""
    chunks = []
    for cx, cy, count, sigma in centers:
        if count == 0:
            continue
        pts = rng.normal(loc=(cx, cy), scale=sigma, size=(count, 2))
        chunks.append(np.clip(pts, 0.0, box_side))
    if not chunks:
        return np.zeros((0, 2))
    return np.vstack(chunks)


def generate_gaussian_waxman(
    n: int,
    n_centers: int,
    params: WaxmanParams,
    model: str,
    rng: np.random.Generator | int,
    variance_range: tuple[float, float] = DEFAULT_VARIANCE_RANGE,
) -> Graph:
    """Cluster nodes around random Gaussian centers, then Waxman-link them.

    Centers are uniform in the box; per-center variances are uniform over
    ``variance_range`` and node counts are allocated proportionally to
    variance (larger spread, more nodes), with the rounding remainder going
    to the largest-variance center.
    """
    if model not in MODELS:
        raise ParameterError(f"unknown model tag {model!r}")
    if n_centers < 1 or n < n_centers:
        raise ParameterError("need n >= n_centers >= 1")
    lo, hi = variance_range
    if not (0.0 < lo <= hi < math.inf):
        raise ParameterError("variance_range must be finite, positive and ordered")
    rng = as_rng(rng)
    box = params.box_side
    centers_xy = rng.uniform(0.0, box, size=(n_centers, 2))
    variances = rng.uniform(lo, hi, size=n_centers)
    shares = variances / variances.sum()
    counts = [int(math.floor(n * s)) for s in shares]
    counts[int(np.argmax(variances))] += n - sum(counts)
    centers = [
        (float(x), float(y), c, float(math.sqrt(v)))
        for (x, y), c, v in zip(centers_xy, counts, variances)
    ]
    points = _sample_center_points(centers, box, rng)
    return _waxman_graph(points, params, model, rng)


def generate_city(
    city: CityModel, params: WaxmanParams, model: str, rng: np.random.Generator | int
) -> Graph:
    """Gaussian Waxman graph seeded with city centers from load_city_dataset."""
    if model not in MODELS:
        raise ParameterError(f"unknown model tag {model!r}")
    rng = as_rng(rng)
    points = _sample_center_points(list(city.centers), params.box_side, rng)
    if len(points) != city.total_nodes:
        raise ParameterError("city model center counts do not sum to total_nodes")
    return _waxman_graph(points, params, model, rng)


def load_city_dataset(
    csv_path,
    f: int,
    box_side: float,
    min_nodes: int = 1,
    sigma_constant: float | None = None,
) -> CityModel:
    """Build Gaussian centers from a city CSV (city,lat,lng,population,density).

    One node represents ``f`` people: node_count = round(population / f),
    rounding half up; centers falling below ``min_nodes`` are dropped.
    Coordinates are mapped linearly onto the box preserving aspect ratio.
    Sigma is proportional to sqrt(population / density); without an explicit
    ``sigma_constant`` the largest sigma is normalized to box_side / 8.
    """
    if isinstance(f, bool) or not isinstance(f, numbers.Integral) or f <= 0:
        raise ParameterError("scale factor f must be a positive integer")
    if not 0.0 < box_side < math.inf:
        raise ParameterError("box_side must be finite and positive")
    if sigma_constant is not None and not 0.0 < sigma_constant < math.inf:
        raise ParameterError("sigma_constant must be finite and positive")
    if min_nodes < 0:
        raise ParameterError("min_nodes must be non-negative")

    records: list[CityRecord] = []
    reader = csv.DictReader(text_lines(csv_path))
    required = {"city", "lat", "lng", "population", "density"}
    header = set(reader.fieldnames or ())
    missing = required - header
    if missing:
        raise FormatError(f"missing column(s): {', '.join(sorted(missing))}")
    numeric = ("lat", "lng", "population", "density")
    for row in reader:
        lineno = reader.line_num
        try:
            lat, lng, population, density = (float(row[key]) for key in numeric)
        except (TypeError, ValueError) as exc:
            raise FormatError(f"line {lineno}: non-numeric field in {row!r}") from exc
        for key, value in zip(numeric, (lat, lng, population, density)):
            if not math.isfinite(value):
                raise FormatError(f"line {lineno}: {key} {value!r} is not finite")
        rec = CityRecord(
            name=row["city"], lat=lat, lng=lng, population=int(population), density=density
        )
        if rec.population < 0:
            raise FormatError(f"line {lineno}: negative population")
        if rec.population > 0 and rec.density <= 0.0:
            raise FormatError(f"line {lineno}: density must be positive when population > 0")
        records.append(rec)

    kept: list[tuple[CityRecord, int]] = []
    for rec in records:
        count = round_half_up(rec.population / f)
        if count >= max(min_nodes, 1):
            kept.append((rec, count))
    if not kept:
        return CityModel(centers=(), total_nodes=0, scale_factor=f)

    lats = [r.lat for r, _ in kept]
    lngs = [r.lng for r, _ in kept]
    span = max(max(lats) - min(lats), max(lngs) - min(lngs))
    if span > 0.0:
        scale = box_side / span
        positions = [((r.lng - min(lngs)) * scale, (r.lat - min(lats)) * scale) for r, _ in kept]
    else:
        positions = [(box_side / 2.0, box_side / 2.0) for _ in kept]

    raw_sigma = [math.sqrt(r.population / r.density) for r, _ in kept]
    if sigma_constant is None:
        c = (box_side * SIGMA_BOX_FRACTION) / max(raw_sigma)
    else:
        c = sigma_constant
    centers = tuple(
        (x, y, count, c * s)
        for (x, y), (_, count), s in zip(positions, kept, raw_sigma)
    )
    return CityModel(centers=centers, total_nodes=sum(cnt for _, cnt in kept), scale_factor=f)
