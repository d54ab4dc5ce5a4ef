"""The benchmark's workloads: their instances, the timed solver pass, and the checks.

A pass builds every instance of a workload the way ``netvax run`` does
(``ExperimentConfig`` + ``build_instance``), runs greedy first, seeds local
search and hill climbing from greedy's set, then runs the LP solvers.  Every
call goes through the module attribute that ``tracing`` wraps, so the same
code serves the untraced and the traced pass.  Checks run after the timed
pass and compare each output with ``checker``, which does not use netvax.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from checker import TOL, Instance

bench = importlib.import_module("netvax.bench")
heuristics = importlib.import_module("netvax.heuristics")
spread = importlib.import_module("netvax.spread")
lp_model = importlib.import_module("netvax.lp.model")
lp_solve = importlib.import_module("netvax.lp.solve")
lp_rounding = importlib.import_module("netvax.lp.rounding")
ExperimentConfig = bench.ExperimentConfig

# Budget fractions of the IC sweep (criterion 8 of the acceptance suite).
SWEEP_BUDGETS = (0.05, 0.10, 0.20, 0.30, 0.40, 0.50)


@dataclass(frozen=True)
class Part:
    """Instances of a workload that share one list of solver calls."""

    configs: Callable[[int], list]  # workload seed -> ExperimentConfig per instance
    solvers: tuple[str, ...]
    engine: str = "highs"
    bfs_check: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    parts: tuple[Part, ...]
    kernel: str  # solver whose call on the first instance kernel_ms times; see README


def _lt(n, centers, samples, seed):
    return ExperimentConfig(model="LT", generator="waxman", n=n, centers=centers, samples=samples, seed=seed)


def _ic(n, centers, samples, seed, **kw):
    return ExperimentConfig(
        model="IC", generator="waxman", n=n, centers=centers, samples=samples, seed=seed,
        alpha=0.05, beta=0.5, **kw,
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "lt-swap-exact",
            (
                Part(lambda seed: [_lt(256, 5, 50, seed)], ("greedy", "ls", "hc", "lp_tkr")),
                Part(
                    lambda seed: [_lt(128, 5, 50, seed)],
                    ("greedy", "ls", "hc", "blp", "lp_tkr", "lp_irp"),
                ),
                Part(
                    lambda seed: [_lt(40, 3, 30, seed), _ic(40, 3, 30, seed)],
                    ("greedy", "ls", "hc", "blp", "lp_tkr"),
                    engine="simplex",
                    bfs_check=True,
                ),
            ),
            kernel="hc",
        ),
        Workload(
            "ic512-sweep",
            (Part(lambda seed: [_ic(512, 5, 50, seed, budget_fraction=0.5)], ("sweep",)),),
            kernel="sweep",
        ),
    )
}


@dataclass
class Call:
    solver: str
    instance: int
    seconds: float
    sets: dict  # label -> frozenset of vaccinated nodes
    saved: dict  # label -> reported average saved count
    objective: float | None = None
    values: np.ndarray | None = None
    passes: int = 0
    error: str = ""


def build_instances(workload: Workload, seed: int):
    """Every instance of the workload, each with the part it belongs to."""
    return [(bench.build_instance(cfg, 0), part) for part in workload.parts for cfg in part.configs(seed)]


def sweep_budgets(inst) -> list[int]:
    limit = inst.n - len(inst.infected)
    return sorted({min(bench.round_half_up(b * inst.n), limit) for b in SWEEP_BUDGETS})


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def _saved(inst, S) -> float:
    return spread.avg_saved(inst, S).avg_saved


def _run_solver(solver, inst, engine, start):
    """One solver call; returns a Call with the seconds spent inside the call."""
    if solver in ("greedy", "ls", "hc"):
        fn = {
            "greedy": lambda: heuristics.greedy(inst, evaluation="structural"),
            "ls": lambda: heuristics.local_search(inst, start, evaluation="structural"),
            "hc": lambda: heuristics.hill_climb(inst, start, evaluation="structural"),
        }[solver]
        r, sec = _timed(fn)
        return Call(solver, -1, sec, {solver: r.vaccination.nodes}, {solver: r.avg_saved}, passes=r.iterations)
    if solver == "sweep":
        budgets = sweep_budgets(inst)
        traj, sec = _timed(lambda: heuristics.greedy_trajectory(inst, budgets, evaluation="structural"))
        return Call(
            solver, -1, sec,
            {k: r.vaccination.nodes for k, r in traj.items()},
            {k: r.avg_saved for k, r in traj.items()},
        )
    if solver == "lp_tkr":
        def tkr():
            model = lp_model.build_model(inst, relaxed=True)
            solution = lp_solve.solve(model, engine=engine)
            if solution.status != "optimal":
                return solution, None
            return solution, lp_rounding.round_tkr(solution, inst)

        (solution, S), sec = _timed(tkr)
    elif solver == "lp_irp":
        S, sec = _timed(lambda: lp_rounding.round_irp(inst, engine=engine))
        solution = None
    elif solver == "blp":
        (S, solution), sec = _timed(lambda: lp_solve.solve_blp(inst, engine=engine))
    else:
        raise ValueError(f"unknown solver {solver!r}")
    if solution is not None and solution.status != "optimal":
        return Call(solver, -1, sec, {}, {}, error=f"status {solution.status}")
    call = Call(solver, -1, sec, {solver: S.nodes}, {solver: _saved(inst, S)})
    if solution is not None:
        call.objective = solution.objective
        if solver == "lp_tkr":
            call.values = np.asarray(solution.values)
    return call


def run_pass(workload: Workload, seed: int):
    """Set-up plus every solver call, timed; returns (instances, calls, setup_s, wall_s)."""
    t0 = time.perf_counter()
    instances = build_instances(workload, seed)
    setup_s = time.perf_counter() - t0
    calls = []
    for idx, (inst, part) in enumerate(instances):
        start = None
        for solver in part.solvers:
            try:
                call = _run_solver(solver, inst, part.engine, start)
            except Exception as exc:  # an operation that fails is counted, not fatal
                call = Call(solver, idx, 0.0, {}, {}, error=f"{type(exc).__name__}: {exc}")
            call.instance = idx
            calls.append(call)
            if solver == "greedy" and not call.error:
                start = call.sets["greedy"]
    return instances, calls, setup_s, time.perf_counter() - t0


def fingerprint(calls) -> list:
    """Everything a pass returns except timings, for exact repeat comparisons."""
    return [
        (c.solver, c.instance, sorted((str(k), sorted(v)) for k, v in c.sets.items()),
         sorted((str(k), v) for k, v in c.saved.items()), c.objective, c.error)
        for c in calls
    ]


class Checks:
    """Counts every check as one operation and keeps the names of those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def __call__(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)


def check_pass(workload: Workload, instances, calls, check: Checks) -> None:
    """Compare every output of one pass with independent computations."""
    for idx, (inst, part) in enumerate(instances):
        here = [c for c in calls if c.instance == idx]
        if any(c.error for c in here):
            continue  # the failed call is already counted; its outputs do not exist
        ref = Instance(inst.n, inst.infected, inst.k, [t.live_edges for t in inst.topologies])
        tag = f"{workload.name}[{idx}]"
        saved = {}
        for c in here:
            for label, S in c.sets.items():
                size_ok = len(S) == label if c.solver == "sweep" else len(S) <= inst.k
                check(f"{tag} {label} set valid", size_ok and not (S & inst.infected) and all(0 <= v < inst.n for v in S))
                saved[label] = ref.avg_saved(S)
                check(f"{tag} {label} saved count", abs(c.saved[label] - saved[label]) <= 1e-9)
        for swap in ("ls", "hc"):
            if swap in saved:
                check(f"{tag} {swap} >= greedy", saved[swap] >= saved["greedy"])
        for c in here:
            if c.solver == "sweep":
                ks = sorted(c.saved)
                check(f"{tag} sweep monotone", all(c.saved[a] <= c.saved[b] for a, b in zip(ks, ks[1:])))
            elif c.solver == "lp_tkr":
                check(f"{tag} relaxation feasible", ref.lp_violation(c.values) <= TOL)
                check(f"{tag} relaxation objective", abs(ref.lp_objective(c.values) - c.objective) <= TOL)
                check(f"{tag} relaxation optimal", abs(ref.lp_optimum() - c.objective) <= TOL)
                check(f"{tag} relaxation bounds sets", all(v <= inst.n - c.objective + TOL for v in saved.values()))
            elif c.solver == "blp":
                check(f"{tag} blp optimal", abs(ref.blp_optimum() - c.objective) <= TOL)
                check(f"{tag} blp saved", abs(inst.n - c.objective - saved["blp"]) <= TOL)
        if part.bfs_check:
            sets = {c.solver: c.sets[c.solver] for c in here if c.solver in ("greedy", "ls", "hc")}
            g = heuristics.greedy(inst, evaluation="bfs")
            check(f"{tag} bfs greedy", g.vaccination.nodes == sets["greedy"])
            ls = heuristics.local_search(inst, g.vaccination, evaluation="bfs")
            check(f"{tag} bfs ls", ls.vaccination.nodes == sets["ls"])
            hc = heuristics.hill_climb(inst, g.vaccination, evaluation="bfs")
            check(f"{tag} bfs hc", hc.vaccination.nodes == sets["hc"])
