"""Layered benchmark for netvax.

    python3 benchmark/run.py --workload lt-swap-exact --seed 0 --seconds 30 --trace 0

Run from the repository root; netvax is imported from ``src/`` next to this
directory.  ``--trace 0`` repeats whole untraced passes (set-up plus every
solver call) until ``--seconds`` have passed, checks the outputs, and prints
the end-to-end metrics.  ``--trace 1`` runs one untraced and one traced pass
and prints the per-layer metrics, the traced solver times and the tracing
overhead.  The last line of standard output is one JSON object; the whole
record also goes to ``.bench_out/`` under the repository root, beside the
span file of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

# One thread per process: the timings should not depend on idle cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Set-ups timed per run; setup_s is their median.
SETUP_REPEATS = 5
SOLVERS = ("greedy", "ls", "hc", "lp_tkr", "lp_irp", "blp")


def import_netvax():
    if not (SRC / "netvax" / "__init__.py").is_file():
        sys.exit(f"netvax sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import netvax

    if Path(netvax.__file__).resolve().parent != (SRC / "netvax").resolve():
        sys.exit(f"imported netvax from {netvax.__file__}, not from {SRC}")


def solver_seconds(calls) -> dict:
    out = {name: 0.0 for name in SOLVERS}
    for c in calls:
        out["greedy" if c.solver == "sweep" else c.solver] += c.seconds
    return out


# Units of work in one kernel call: hill-climbing passes, or greedy steps
# (the largest budget of the trajectory).
KERNEL_UNITS = {"hc": lambda c: c.passes, "sweep": lambda c: max(c.sets)}


def pass_figures(workload, calls) -> dict:
    """End-to-end figures of one untraced pass, except set-up and memory."""
    ok = [c for c in calls if not c.error]
    first = [c for c in ok if c.instance == 0]
    kernel = next(c for c in first if c.solver == workload.kernel)
    greedy = next(c for c in first if c.solver in ("greedy", "sweep"))
    saved = [v for c in ok for v in c.saved.values()]
    return {
        "kernel_ms": 1e3 * kernel.seconds / KERNEL_UNITS[workload.kernel](kernel),
        "saved_greedy": greedy.saved["greedy"] if greedy.solver == "greedy" else greedy.saved[max(greedy.saved)],
        "saved_mean": statistics.fmean(saved),
    }


E2E_UNITS = {
    "setup_s": "s",
    "kernel_ms": "ms",
    "peak_rss_mb": "MB",
    "saved_greedy": "nodes",
    "saved_mean": "nodes",
}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def untraced(workload, seed, seconds, check):
    """Whole passes until ``seconds`` have passed; medians of their figures."""
    from workloads import build_instances, check_pass, fingerprint, run_pass

    setups = []
    digests = None
    for _ in range(SETUP_REPEATS - 1):
        t0 = time.perf_counter()
        instances = build_instances(workload, seed)
        setups.append(time.perf_counter() - t0)
        digest = [inst.topologies.digest() for inst, _ in instances]
        check("set-up repeats", digests is None or digest == digests)
        digests = digest
    del instances
    passes = []
    t_start = time.perf_counter()
    while not passes or time.perf_counter() - t_start < seconds:
        instances, calls, setup_s, wall_s = run_pass(workload, seed)
        setups.append(setup_s)
        passes.append((calls, wall_s, pass_figures(workload, calls)))
    rss = peak_rss_mb()
    first = passes[0][0]
    for calls, _, _ in passes[1:]:
        check("pass repeats", fingerprint(calls) == fingerprint(first))
    check_pass(workload, instances, first, check)
    metrics = {
        "setup_s": statistics.median(setups),
        **{k: statistics.median(p[2][k] for p in passes) for k in passes[0][2]},
        "peak_rss_mb": rss,
    }
    detail = {
        "passes": len(passes),
        "wall_s": [p[1] for p in passes],
        "solver_s": solver_seconds(first),
        "saved": {f"{c.solver}[{c.instance}]": c.saved for c in first},
    }
    return metrics, passes, detail


def traced(workload, seed, check):
    """One untraced and one traced pass; per-layer figures and tracing overhead."""
    from tracing import Tracer
    from workloads import check_pass, fingerprint, run_pass

    instances, calls, _, wall_plain = run_pass(workload, seed)
    tracer = Tracer()
    tracer.install()
    try:
        _, traced_calls, _, wall_traced = run_pass(workload, seed)
    finally:
        tracer.uninstall()
    check("traced pass returns the same outputs", fingerprint(traced_calls) == fingerprint(calls))
    check_pass(workload, instances, calls, check)
    detail = {"solver_s": solver_seconds(calls), "saved": {f"{c.solver}[{c.instance}]": c.saved for c in calls}}
    metrics = tracer.layer_metrics()
    metrics.update({f"solver.{k}_s": v for k, v in solver_seconds(traced_calls).items()})
    metrics.update(
        {"trace.wall_s": wall_traced, "trace.untraced_wall_s": wall_plain, "trace.overhead_s": wall_traced - wall_plain}
    )
    return metrics, [(calls, wall_plain, None), (traced_calls, wall_traced, None)], tracer, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    import_netvax()
    from workloads import WORKLOADS, Checks

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    check = Checks()
    if args.trace:
        metrics, passes, tracer, detail = traced(workload, args.seed, check)
        units = {k: ("s" if k.endswith("_s") else "ratio" if k.endswith("ratio") else "count") for k in metrics}
    else:
        metrics, passes, detail = untraced(workload, args.seed, args.seconds, check)
        units = E2E_UNITS
    solver_calls = sum(len(p[0]) for p in passes)
    solver_failures = [f"{c.solver}[{c.instance}]: {c.error}" for p in passes for c in p[0] if c.error]
    result = {
        "correct": not check.failures,
        "attempted": solver_calls + check.attempted,
        "failed": len(solver_failures) + len(check.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {**result, "workload": args.workload, "seed": args.seed, "detail": detail,
              "failures": solver_failures + check.failures}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    if args.trace:
        tracer.write_jsonl(OUT / f"{stem}.spans.jsonl")
    print(json.dumps({"detail": detail, "failures": record["failures"]}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
