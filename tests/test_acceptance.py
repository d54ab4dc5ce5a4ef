"""Acceptance criteria, one test per numbered criterion.

Each test prints `ACCEPTANCE <nn> PASS|FAIL <description> [detail]`; run with
`pytest tests/test_acceptance.py -v -s` to watch the lines live.  Criteria
with stated runtime budgets include the elapsed time in their pass condition.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats as scipy_stats

import netvax as nv
from netvax.bench import ExperimentConfig, build_instance, sweep_budget, sweep_samples
from netvax.cli import main as cli_main
from netvax.heuristics import greedy_trajectory
from netvax.lp.model import build_model
from netvax.lp.solve import solve, solve_blp
from netvax.util import round_half_up

pytestmark = pytest.mark.acceptance

_shared = {}


def report(num, desc, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {num:02d} {tag}  {desc}{suffix}")
    assert ok, f"criterion {num}: {desc}{suffix}"


def _build_tiny_instances():
    """50 random instances, alternating LT/IC, within the oracle guard."""
    rng = np.random.default_rng(20250810)
    out = []
    while len(out) < 50:
        model = nv.LT if len(out) % 2 else nv.IC
        n = int(rng.integers(4, 11))
        p = float(rng.uniform(0.2, 0.45))
        g = nv.generate_er(n, p, model, int(rng.integers(1 << 30)))
        n_inf = int(rng.integers(1, 3))
        infected = frozenset(int(v) for v in rng.choice(n, size=n_inf, replace=False))
        k = min(int(rng.integers(0, 3)), n - n_inf)
        s = int(rng.integers(1, 5))
        sampler = nv.sample_lt if model == nv.LT else nv.sample_ic
        ts = sampler(g, s, int(rng.integers(1 << 30)))
        out.append(nv.ProblemInstance(g, infected, k, ts))
    return out


def test_criterion_01_blp_equals_oracle():
    t0 = time.perf_counter()
    instances = _build_tiny_instances()
    solved = []
    worst = 0.0
    for inst in instances:
        _, sol = solve_blp(inst)
        assert sol.status == "optimal"
        implied_saved = inst.n - sol.objective
        _, best = nv.exhaustive_optimal(inst)
        worst = max(worst, abs(implied_saved - best))
        solved.append((inst, sol))
    elapsed = time.perf_counter() - t0
    _shared["tiny"] = solved
    report(
        1,
        "BLP implied saved equals exhaustive oracle on 50 tiny LT/IC instances",
        worst <= 1e-6 and elapsed < 60.0,
        f"max diff {worst:.2e}, {elapsed:.1f}s < 60s",
    )


def test_criterion_02_enumeration_consistency():
    t0 = time.perf_counter()
    cases = [
        (nv.Graph(3, [(0, 1, 0.3), (1, 2, 0.5), (0, 2, 0.2)], nv.LT), nv.sample_lt),
        (nv.Graph(3, [(0, 1, 0.5), (1, 2, 0.4), (0, 2, 0.3)], nv.IC), nv.sample_ic),
    ]
    worst_sigmas = 0.0
    worst_p = 1.0
    for graph, sampler in cases:
        enum = nv.enumerate_all(graph)
        ts = sampler(graph, 100_000, 99)
        for S in (frozenset(), frozenset({1})):
            exact = nv.avg_saved(
                nv.ProblemInstance(graph, frozenset({0}), 1, enum), S
            ).avg_saved
            mc = nv.avg_saved(nv.ProblemInstance(graph, frozenset({0}), 1, ts), S)
            per = np.asarray(mc.per_topology_saved, dtype=float)
            se = per.std(ddof=1) / math.sqrt(len(per))
            sigmas = abs(mc.avg_saved - exact) / max(se, 1e-12)
            worst_sigmas = max(worst_sigmas, sigmas)
        expected = {frozenset(t.live_edges): t.mu for t in enum}
        counts = {key: 0 for key in expected}
        for t in ts:
            counts[frozenset(t.live_edges)] += 1
        keys = sorted(expected, key=sorted)
        observed = [counts[key] for key in keys]
        exp = [expected[key] * len(ts) for key in keys]
        _, pvalue = scipy_stats.chisquare(observed, exp)
        worst_p = min(worst_p, pvalue)
    elapsed = time.perf_counter() - t0
    report(
        2,
        "Monte Carlo matches enumeration (3 SE) and topology frequencies pass chi-square",
        worst_sigmas <= 3.0 and worst_p > 0.001 and elapsed < 30.0,
        f"max {worst_sigmas:.2f} SE, min p {worst_p:.3g}, {elapsed:.1f}s < 30s",
    )


def test_criterion_03_monotonicity_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(33)
    violations = 0
    for _ in range(10_000):
        n = int(rng.integers(4, 11))
        mask = rng.random((n, n)) < 0.25
        np.fill_diagonal(mask, False)
        topo = nv.Topology(n, [(int(i), int(j)) for i, j in zip(*np.nonzero(mask))])
        nodes = list(rng.permutation(n))
        I = frozenset(int(x) for x in nodes[: int(rng.integers(1, 3))])
        rest = [v for v in range(n) if v not in I]
        s_size = int(rng.integers(0, min(3, len(rest) - 1) + 1)) if len(rest) > 1 else 0
        S = frozenset(rest[:s_size])
        free = [v for v in rest if v not in S]
        if not free:
            continue
        v = int(free[int(rng.integers(0, len(free)))])
        if nv.saved_on(topo, S | {v}, I) < nv.saved_on(topo, S, I):
            violations += 1
    elapsed = time.perf_counter() - t0
    report(
        3,
        "zero monotonicity violations over 10^4 randomized (topology, S, I, v) cases",
        violations == 0 and elapsed < 10.0,
        f"{violations} violations, {elapsed:.1f}s < 10s",
    )


def test_criterion_04_modularity_witnesses():
    t0 = time.perf_counter()
    result = nv.find_modularity_witness(8, 10_000, 4242)
    ok = result.found_both
    verified = 0
    if ok:
        for witness, expect_less in (
            (result.submodularity_violation, True),
            (result.supermodularity_violation, False),
        ):
            g_a = nv.marginal_gain(witness.topology, witness.A, witness.v, witness.infected)
            g_b = nv.marginal_gain(witness.topology, witness.B, witness.v, witness.infected)
            if (g_a < g_b) == expect_less and (g_a, g_b) == (
                witness.gain_subset,
                witness.gain_superset,
            ):
                verified += 1
    elapsed = time.perf_counter() - t0
    report(
        4,
        "witness search finds both inequality directions, verified by direct evaluation",
        ok and verified == 2 and elapsed < 30.0,
        f"trials used {result.trials_used}, {elapsed:.1f}s < 30s",
    )


def test_criterion_05_relaxation_bound():
    solved = _shared.get("tiny") or [(inst, solve_blp(inst)[1]) for inst in _build_tiny_instances()]
    worst = -math.inf
    for inst, blp_sol in solved:
        relaxed = solve(build_model(inst, relaxed=True))
        assert relaxed.status == "optimal"
        worst = max(worst, relaxed.objective - blp_sol.objective)
    report(
        5,
        "relaxed LP objective never exceeds the BLP objective on the criterion-1 instances",
        worst <= 1e-6,
        f"max(relaxed - binary) = {worst:.2e}",
    )


def test_criterion_06_improvement_chain_and_greedy_quality():
    t0 = time.perf_counter()
    chain_ok = True
    quality_hits = 0
    ratios = []
    for seed in range(20):
        cfg = ExperimentConfig(
            model=nv.LT, generator="waxman", n=128, centers=5, samples=50, seed=seed
        )
        inst = build_instance(cfg, 0)
        g = nv.greedy(inst, evaluation="structural")
        ls = nv.local_search(inst, g.vaccination, evaluation="structural")
        hc = nv.hill_climb(inst, g.vaccination, evaluation="structural")
        chain_ok = chain_ok and ls.avg_saved >= g.avg_saved and hc.avg_saved >= g.avg_saved
        _, sol = solve_blp(inst)
        assert sol.status == "optimal"
        blp_saved = inst.n - sol.objective
        ratios.append(g.avg_saved / blp_saved)
        if g.avg_saved >= 0.95 * blp_saved:
            quality_hits += 1
    elapsed = time.perf_counter() - t0
    report(
        6,
        "LS/HC never fall below greedy; greedy reaches 95% of BLP in >= 18/20 runs",
        chain_ok and quality_hits >= 18 and elapsed < 600.0,
        f"chain ok {chain_ok}, quality {quality_hits}/20, min ratio {min(ratios):.4f}, "
        f"{elapsed:.0f}s < 600s",
    )


def test_criterion_07_runtime_ordering():
    tkr_wins = 0
    hc_wins = 0
    times = []
    for seed in range(10):
        cfg = ExperimentConfig(
            model=nv.LT, generator="waxman", n=256, centers=5, samples=50, seed=seed
        )
        inst = build_instance(cfg, 0)
        t0 = time.perf_counter()
        g = nv.greedy(inst, evaluation="bfs")
        t_greedy = time.perf_counter() - t0
        t0 = time.perf_counter()
        model = build_model(inst, relaxed=True)
        sol = solve(model)
        nv.round_tkr(sol, inst)
        t_tkr = time.perf_counter() - t0
        t0 = time.perf_counter()
        nv.hill_climb(inst, g.vaccination, evaluation="bfs")
        t_hc = time.perf_counter() - t0
        tkr_wins += t_tkr < t_greedy
        hc_wins += t_hc > t_greedy
        times.append((t_tkr, t_greedy, t_hc))
    med = np.median(np.array(times), axis=0)
    report(
        7,
        "lp_tkr faster and hill climbing slower than greedy in >= 9/10 runs at n=256",
        tkr_wins >= 9 and hc_wins >= 9,
        f"tkr<greedy {tkr_wins}/10, hc>greedy {hc_wins}/10, "
        f"median s: tkr {med[0]:.2f} greedy {med[1]:.2f} hc {med[2]:.2f}",
    )


BUDGETS = (0.05, 0.10, 0.20, 0.30, 0.40, 0.50)


def _marginal_rates(saved_by_budget, k_by_budget):
    low = (saved_by_budget[0.10] - saved_by_budget[0.05]) / (k_by_budget[0.10] - k_by_budget[0.05])
    high = (saved_by_budget[0.50] - saved_by_budget[0.40]) / (k_by_budget[0.50] - k_by_budget[0.40])
    return low, high


def test_criterion_08_diminishing_returns_lt_not_ic():
    t0 = time.perf_counter()
    lt_hits = 0
    for seed in range(10):
        cfg = ExperimentConfig(
            model=nv.LT,
            generator="waxman",
            n=256,
            centers=5,
            samples=50,
            seed=seed,
            algorithms=("greedy",),
            evaluation="structural",
        )
        rows = sweep_budget(cfg, BUDGETS)
        saved = {r.budget: r.saved_avg for r in rows}
        ks = {r.budget: r.k for r in rows}
        low, high = _marginal_rates(saved, ks)
        lt_hits += high < low
    ic_hits = 0
    for seed in range(10):
        # IC at the density regime where low budgets cannot contain the
        # spread (the published sweep setting); the per-budget greedy values
        # come from one selection pass, which is equivalent because greedy's
        # choice order does not depend on the budget.
        cfg = ExperimentConfig(
            model=nv.IC,
            generator="waxman",
            n=512,
            centers=5,
            alpha=0.05,
            beta=0.5,
            samples=50,
            seed=seed,
            budget_fraction=0.5,
        )
        inst = build_instance(cfg, 0)
        ks = {b: min(round_half_up(b * 512), inst.n - len(inst.infected)) for b in BUDGETS}
        traj = greedy_trajectory(inst, ks.values(), evaluation="structural")
        saved = {b: traj[ks[b]].avg_saved for b in BUDGETS}
        low, high = _marginal_rates(saved, ks)
        ic_hits += high > low
    elapsed = time.perf_counter() - t0
    report(
        8,
        "greedy shows diminishing returns on LT (>= 8/10) and the reverse on IC (>= 7/10)",
        lt_hits >= 8 and ic_hits >= 7,
        f"LT {lt_hits}/10, IC {ic_hits}/10, {elapsed:.0f}s",
    )


def test_lt_diminishing_returns_at_published_size():
    # companion to criterion 8: the LT trend also holds at the published
    # 512-node sweep size
    hits = 0
    for seed in range(10):
        cfg = ExperimentConfig(
            model=nv.LT,
            generator="waxman",
            n=512,
            centers=5,
            samples=50,
            seed=seed,
            budget_fraction=0.5,
        )
        inst = build_instance(cfg, 0)
        ks = {b: min(round_half_up(b * 512), inst.n - len(inst.infected)) for b in BUDGETS}
        traj = greedy_trajectory(inst, ks.values(), evaluation="structural")
        saved = {b: traj[ks[b]].avg_saved for b in BUDGETS}
        low, high = _marginal_rates(saved, ks)
        hits += high < low
    assert hits >= 8


def test_criterion_09_sample_count_dispersion():
    cfg = ExperimentConfig(
        model=nv.LT,
        generator="waxman",
        n=256,
        centers=5,
        samples=50,
        seed=5,
        repetitions=10,
        algorithms=("greedy",),
        evaluation="structural",
    )
    rows, stats = sweep_samples(cfg, [25, 300])
    by_s = {d.s: d for d in stats if d.algorithm == "greedy"}
    report(
        9,
        "greedy saved-count IQR over 10 executions shrinks from s=25 to s=300",
        by_s[300].iqr <= by_s[25].iqr,
        f"IQR {by_s[25].iqr:.2f} -> {by_s[300].iqr:.2f}",
    )
    _shared["dispersion"] = by_s


def test_small_sample_counts_overestimate_effectiveness():
    # companion trend to criterion 9: optimizing over fewer samples inflates
    # the self-reported saved count (tolerance 5% of n)
    by_s = _shared["dispersion"]
    assert by_s[300].mean <= by_s[25].mean + 0.05 * 256


CONFIG_TEXT = """\
model = LT
generator = waxman
n = 64
centers = 5
infected_fraction = 0.1
budget_fraction = 0.1
samples = 50
algorithms = greedy,lp_tkr
seed = 13
repetitions = 2
evaluation = structural
"""


def test_criterion_10_reproducibility(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(CONFIG_TEXT)
    out1, out2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    assert cli_main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    assert cli_main(["run", "--config", str(cfg), "--out", str(out2)]) == 0

    def saved_columns(path):
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        ia, ip = header.index("saved_avg"), header.index("saved_pct")
        return [(ln.split(",")[ia], ln.split(",")[ip]) for ln in lines[1:]]

    identical = saved_columns(out1) == saved_columns(out2)

    gpath = tmp_path / "graph.txt"
    assert cli_main(["gen-graph", "--config", str(cfg), "--out", str(gpath)]) == 0
    tpath = tmp_path / "topos.txt"
    assert (
        cli_main(
            ["gen-topologies", "--graph", str(gpath), "--samples", "50", "--seed", "13", "--out", str(tpath)]
        )
        == 0
    )
    ts = nv.read_topology_set(tpath)
    round_trip = tmp_path / "again.txt"
    nv.write_topology_set(ts, round_trip)
    files_identical = round_trip.read_text() == tpath.read_text()
    report(
        10,
        "fixed-seed CLI runs emit byte-identical saved columns; topology files round-trip",
        identical and files_identical,
        f"saved columns identical: {identical}, file round-trip: {files_identical}",
    )
