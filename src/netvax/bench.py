"""Experiment harness: quality runs, budget sweeps, and sample-count sweeps.

One repetition generates a graph, draws the infected seeds, samples the
topologies once, and feeds the identical topology set to every requested
algorithm, so quality numbers are comparable across algorithms.  Local
search and hill climbing are seeded with the greedy output.  Wall time is
measured around the solver call only; on a greedy row it is the time the
repetition's one greedy pass took to reach that row's budget.
"""

from __future__ import annotations

import csv
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Iterable

import numpy as np

from .errors import CapacityError, ParameterError
from .generators import (
    WaxmanParams,
    generate_city,
    generate_er,
    generate_gaussian_waxman,
    load_city_dataset,
)
from .graph import IC, LT, MODELS, Graph
from .heuristics import greedy_trajectory, hill_climb, local_search
from .lp.model import build_model
from .lp.rounding import round_irp, round_tkr
from .lp.solve import ENGINES, solve, solve_blp
from .spread import ProblemInstance, VaccinationSet, avg_saved, exhaustive_optimal
from .topology import sample_ic, sample_lt
from .util import round_half_up, substream, substream_seed

ALGORITHMS = ("greedy", "ls", "hc", "blp", "lp_tkr", "lp_irp", "oracle")
GENERATORS = ("er", "waxman", "city")
EVALUATIONS = ("bfs", "structural")

# Substream labels under (seed, rep): graph draw, seed-node draw, topology sampling.
_GRAPH, _INFECTED, _TOPO = 0, 1, 2

CSV_FIELDS = (
    "algorithm",
    "n",
    "k",
    "s",
    "seed",
    "rep",
    "budget",
    "saved_avg",
    "saved_pct",
    "wall_time_s",
    "status",
)


@dataclass(frozen=True)
class ExperimentConfig:
    model: str = LT
    generator: str = "waxman"
    n: int = 64
    er_p: float = 0.1
    centers: int = 5
    alpha: float = 0.4
    beta: float = 0.2
    box_side: float = 1.0
    variance_lo: float = 0.5
    variance_hi: float = 2.0
    csv_path: str = ""
    scale_factor: int = 100_000
    min_nodes: int = 1
    infected_fraction: float = 0.1
    budget_fraction: float = 0.1
    samples: int = 50
    algorithms: tuple[str, ...] = ("greedy",)
    seed: int = 0
    repetitions: int = 1
    evaluation: str = "bfs"
    lp_engine: str = "highs"


@dataclass(frozen=True)
class ResultRow:
    algorithm: str
    n: int
    k: int
    s: int
    seed: int
    rep: int
    budget: float
    saved_avg: float | None
    saved_pct: float | None
    wall_time_s: float
    status: str
    toposet_digest: str = field(default="", compare=False)


@dataclass(frozen=True)
class SampleDispersion:
    algorithm: str
    s: int
    mean: float
    iqr: float


def validate_config(config: ExperimentConfig) -> None:
    if config.model not in MODELS:
        raise ParameterError(f"model must be one of {MODELS}")
    if config.generator not in GENERATORS:
        raise ParameterError(f"generator must be one of {GENERATORS}")
    if not (0.0 < config.infected_fraction <= 1.0):
        raise ParameterError("infected_fraction must lie in (0, 1]")
    if not (0.0 < config.budget_fraction <= 1.0):
        raise ParameterError("budget_fraction must lie in (0, 1]")
    if config.samples < 1:
        raise ParameterError("samples must be at least 1")
    if config.seed < 0:
        raise ParameterError("seed must be non-negative")
    if config.repetitions < 1:
        raise ParameterError("repetitions must be at least 1")
    if not config.algorithms:
        raise ParameterError("at least one algorithm is required")
    unknown = [a for a in config.algorithms if a not in ALGORITHMS]
    if unknown:
        raise ParameterError(f"unknown algorithm(s) {unknown}; expected subset of {ALGORITHMS}")
    if config.evaluation not in EVALUATIONS:
        raise ParameterError(f"evaluation must be one of {EVALUATIONS}")
    if config.lp_engine not in ENGINES:
        raise ParameterError(f"lp_engine must be one of {ENGINES}")
    if config.generator in ("er", "waxman") and config.n < 1:
        raise ParameterError("n must be positive")
    if config.generator == "er" and not (0.0 <= config.er_p <= 1.0):
        raise ParameterError("er_p must lie in [0, 1]")
    if config.generator == "waxman" and not (1 <= config.centers <= config.n):
        raise ParameterError("need n >= centers >= 1")
    if not (0.0 < config.variance_lo <= config.variance_hi < math.inf):
        raise ParameterError("variance range must be finite, positive and ordered")
    if config.generator == "city" and not config.csv_path:
        raise ParameterError("city generator requires csv_path")
    WaxmanParams(config.alpha, config.beta, config.box_side)  # raises on bad values


def build_graph(config: ExperimentConfig, rng) -> Graph:
    if config.generator == "er":
        return generate_er(config.n, config.er_p, config.model, rng)
    params = WaxmanParams(config.alpha, config.beta, config.box_side)
    if config.generator == "waxman":
        return generate_gaussian_waxman(
            config.n,
            config.centers,
            params,
            config.model,
            rng,
            variance_range=(config.variance_lo, config.variance_hi),
        )
    city = load_city_dataset(
        config.csv_path, config.scale_factor, config.box_side, config.min_nodes
    )
    return generate_city(city, params, config.model, rng)


def _budget(fraction: float, n: int, infected_count: int) -> int:
    """The vaccine budget k of a budget fraction, at most n - |infected|."""
    return min(round_half_up(fraction * n), n - infected_count)


def build_instance(config: ExperimentConfig, rep: int) -> ProblemInstance:
    """Graph, infected seeds, budget, and topology samples for one repetition."""
    graph = build_graph(config, substream(config.seed, rep, _GRAPH))
    n = graph.n
    if n == 0:
        raise ParameterError("generated graph has no nodes")
    i_count = min(round_half_up(config.infected_fraction * n), n)
    infected_rng = substream(config.seed, rep, _INFECTED)
    infected = frozenset(
        int(v) for v in infected_rng.choice(n, size=i_count, replace=False)
    )
    k = _budget(config.budget_fraction, n, i_count)
    topo_seed = substream_seed(config.seed, rep, _TOPO)
    sampler = sample_lt if config.model == LT else sample_ic
    topologies = sampler(graph, config.samples, topo_seed)
    return ProblemInstance(graph, infected, k, topologies)


def _row(config, instance, rep, algorithm, saved, wall, status, digest):
    n = instance.n
    pct = None if saved is None else 100.0 * saved / n
    return ResultRow(
        algorithm=algorithm,
        n=n,
        k=instance.k,
        s=len(instance.topologies),
        seed=config.seed,
        rep=rep,
        budget=config.budget_fraction,
        saved_avg=saved,
        saved_pct=pct,
        wall_time_s=wall,
        status=status,
        toposet_digest=digest,
    )


def _solve(algorithm, config, instance, greedy_result) -> tuple[VaccinationSet | None, str]:
    """One algorithm's vaccination set (None when it has none) and its status."""
    if algorithm == "greedy":
        return greedy_result.vaccination, "ok"
    if algorithm in ("ls", "hc"):
        search = local_search if algorithm == "ls" else hill_climb
        return search(instance, greedy_result.vaccination, evaluation=config.evaluation).vaccination, "ok"
    if algorithm == "lp_irp":
        return round_irp(instance, engine=config.lp_engine), "ok"
    if algorithm == "oracle":
        try:
            return exhaustive_optimal(instance)[0], "ok"
        except CapacityError:
            return None, "capacity"
    if algorithm == "blp":
        S, solution = solve_blp(instance, engine=config.lp_engine)
    else:
        solution = solve(build_model(instance, relaxed=True), engine=config.lp_engine)
        S = round_tkr(solution, instance) if solution.status == "optimal" else None
    return (S, "ok") if solution.status == "optimal" else (None, solution.status)


def run_algorithms(
    config: ExperimentConfig, instance: ProblemInstance, rep: int, greedy_result
) -> list[ResultRow]:
    """Run every configured algorithm on one shared instance.

    ``greedy_result`` is greedy's result on this instance, or None when no
    configured algorithm needs it.
    """
    digest = instance.topologies.digest()
    rows = []
    for algorithm in config.algorithms:
        t0 = time.perf_counter()
        S, status = _solve(algorithm, config, instance, greedy_result)
        wall = greedy_result.wall_time if algorithm == "greedy" else time.perf_counter() - t0
        saved = None if S is None else avg_saved(instance, S).avg_saved
        rows.append(_row(config, instance, rep, algorithm, saved, wall, status, digest))
    return rows


def _rows(
    configs: list[ExperimentConfig], instance: ProblemInstance, rep: int
) -> list[list[ResultRow]]:
    """Rows per config on one instance, each list sorted by algorithm.

    The configs differ only in their budget; one greedy pass to the largest
    budget serves them all.
    """
    ks = [_budget(c.budget_fraction, instance.n, len(instance.infected)) for c in configs]
    trajectory = {}
    if {"greedy", "ls", "hc"} & set(configs[0].algorithms):
        trajectory = greedy_trajectory(replace(instance, k=max(ks)), ks, configs[0].evaluation)
    return [
        sorted(run_algorithms(c, replace(instance, k=k), rep, trajectory.get(k)), key=lambda r: r.algorithm)
        for c, k in zip(configs, ks)
    ]


def run_experiment(config: ExperimentConfig, threads: int = 1) -> list[ResultRow]:
    """One graph + seed draw + topology sample per repetition, all algorithms."""
    return sweep_budget(config, [config.budget_fraction], threads)


def sweep_budget(
    config: ExperimentConfig, budgets: Iterable[float], threads: int = 1
) -> list[ResultRow]:
    """Every algorithm at every budget fraction, on one instance per repetition.

    A repetition runs one greedy pass to its largest budget: greedy's choice
    order does not depend on k, so each budget reads its set off that pass.
    Rows are budget-major, then ordered by (rep, algorithm).
    """
    configs = [replace(config, budget_fraction=b) for b in budgets]
    for c in configs:
        validate_config(c)
    if threads < 1:
        raise ParameterError("threads must be at least 1")
    if not configs:
        return []

    def rep_rows(rep):
        return _rows(configs, build_instance(configs[0], rep), rep)

    reps = range(config.repetitions)
    if threads > 1 and config.repetitions > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            per_rep = list(pool.map(rep_rows, reps))
    else:
        per_rep = [rep_rows(rep) for rep in reps]
    return [row for by_rep in zip(*per_rep) for rows in by_rep for row in rows]


def sweep_samples(
    config: ExperimentConfig, sample_counts: Iterable[int]
) -> tuple[list[ResultRow], list[SampleDispersion]]:
    """Re-run on one fixed graph with fresh topology draws per execution.

    For each sample count s, ``config.repetitions`` executions each sample s
    topologies with an execution-specific seed and run every algorithm;
    dispersion of the saved count across executions is summarized per
    (algorithm, s).
    """
    validate_config(config)
    counts = [int(s) for s in sample_counts]
    if any(s < 1 for s in counts):
        raise ParameterError("sample counts must be positive")
    base = build_instance(config, 0)
    graph, infected, k = base.graph, base.infected, base.k
    sampler = sample_lt if config.model == LT else sample_ic
    rows: list[ResultRow] = []
    for execution in range(config.repetitions):
        topo_seed = substream_seed(config.seed, execution, _TOPO)
        for s in counts:
            topologies = sampler(graph, s, topo_seed)
            instance = ProblemInstance(graph, infected, k, topologies)
            rows.extend(_rows([replace(config, samples=s)], instance, execution)[0])
    rows.sort(key=lambda r: (r.s, r.rep, r.algorithm))
    stats = []
    for algorithm in sorted({r.algorithm for r in rows}):
        for s in counts:
            vals = [
                r.saved_avg
                for r in rows
                if r.algorithm == algorithm and r.s == s and r.saved_avg is not None
            ]
            if not vals:
                continue
            arr = np.asarray(vals)
            stats.append(
                SampleDispersion(
                    algorithm=algorithm,
                    s=s,
                    mean=float(arr.mean()),
                    iqr=float(np.percentile(arr, 75) - np.percentile(arr, 25)),
                )
            )
    return rows, stats


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_csv(rows: Iterable[ResultRow], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_FIELDS)
        for row in rows:
            writer.writerow([_format_cell(getattr(row, f)) for f in CSV_FIELDS])


def read_csv(path) -> list[ResultRow]:
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != CSV_FIELDS:
            raise ParameterError(f"unexpected CSV header {reader.fieldnames}")
        for rec in reader:
            rows.append(
                ResultRow(
                    algorithm=rec["algorithm"],
                    n=int(rec["n"]),
                    k=int(rec["k"]),
                    s=int(rec["s"]),
                    seed=int(rec["seed"]),
                    rep=int(rec["rep"]),
                    budget=float(rec["budget"]),
                    saved_avg=float(rec["saved_avg"]) if rec["saved_avg"] else None,
                    saved_pct=float(rec["saved_pct"]) if rec["saved_pct"] else None,
                    wall_time_s=float(rec["wall_time_s"]),
                    status=rec["status"],
                )
            )
    return rows


def emit_plot_data(rows: Iterable[ResultRow], path) -> None:
    """log10(n), log10(wall time) pairs per algorithm, for runtime scaling plots."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["algorithm", "log10_n", "log10_time"])
        for row in rows:
            if row.status != "ok" or row.wall_time_s <= 0.0:
                continue
            writer.writerow(
                [row.algorithm, repr(math.log10(row.n)), repr(math.log10(row.wall_time_s))]
            )
