import math
from dataclasses import replace

import pytest

from conftest import tiny_config

from netvax import IC, LT, TopologySet
from netvax.bench import (
    CSV_FIELDS,
    ResultRow,
    build_instance,
    emit_csv,
    emit_plot_data,
    read_csv,
    run_experiment,
    sweep_budget,
    sweep_samples,
    validate_config,
)
from netvax.errors import ParameterError


def test_single_algorithm_single_rep_one_row():
    rows = run_experiment(tiny_config())
    assert len(rows) == 1
    (row,) = rows
    assert row.algorithm == "greedy"
    assert row.status == "ok"
    assert row.saved_pct == pytest.approx(100.0 * row.saved_avg / row.n)


def test_round_half_up_counts():
    inst = build_instance(tiny_config(n=25, infected_fraction=0.1, budget_fraction=0.1), 0)
    assert len(inst.infected) == 3  # round_half_up(2.5)
    assert inst.k == 3


def test_improvement_chain_rows():
    rows = run_experiment(tiny_config(algorithms=("greedy", "ls", "hc", "blp"), repetitions=2))
    for rep in (0, 1):
        by_alg = {r.algorithm: r for r in rows if r.rep == rep}
        assert by_alg["ls"].saved_avg >= by_alg["greedy"].saved_avg
        assert by_alg["hc"].saved_avg >= by_alg["greedy"].saved_avg
        assert by_alg["blp"].saved_avg >= by_alg["greedy"].saved_avg - 1e-9


def test_same_topologies_across_algorithms(calls):
    rows = run_experiment(tiny_config(algorithms=("greedy", "lp_tkr", "oracle"), repetitions=2))
    assert len(rows) == 2 * 3
    by_rep = _topology_sets_by_rep(calls)
    assert sorted(by_rep) == [0, 1]
    assert by_rep[0] is not by_rep[1]
    # greedy's pass ran on the set that lp_tkr and oracle received
    passes = [args[0].topologies for args in calls["greedy_trajectory"]]
    assert len(passes) == 2
    assert passes[0] is by_rep[0] and passes[1] is by_rep[1]


def test_rows_sorted_by_rep_then_algorithm():
    rows = run_experiment(tiny_config(algorithms=("ls", "greedy"), repetitions=2))
    assert [(r.rep, r.algorithm) for r in rows] == [
        (0, "greedy"),
        (0, "ls"),
        (1, "greedy"),
        (1, "ls"),
    ]


def test_reproducible_saved_columns():
    cfg = tiny_config(algorithms=("greedy", "lp_tkr", "lp_irp"), repetitions=2)
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert [(r.algorithm, r.rep, r.saved_avg, r.saved_pct) for r in a] == [
        (r.algorithm, r.rep, r.saved_avg, r.saved_pct) for r in b
    ]


def test_oracle_capacity_recorded_as_row():
    rows = run_experiment(tiny_config(n=64, algorithms=("oracle",)))
    (row,) = rows
    assert row.status == "capacity"
    assert row.saved_avg is None
    assert row.saved_pct is None


def test_blp_uses_same_samples_and_dominates():
    cfg = tiny_config(n=20, samples=6, algorithms=("greedy", "blp", "oracle"), repetitions=2)
    rows = run_experiment(cfg)
    for rep in (0, 1):
        by_alg = {r.algorithm: r for r in rows if r.rep == rep}
        assert by_alg["blp"].saved_avg == pytest.approx(by_alg["oracle"].saved_avg, abs=1e-6)


def test_budget_sweep_monotone_for_construction_monotone_algorithms():
    cfg = tiny_config(n=20, samples=6, algorithms=("greedy", "blp"), repetitions=2)
    rows = sweep_budget(cfg, [0.1, 0.2, 0.4])
    for alg in ("greedy", "blp"):
        for rep in (0, 1):
            saved = [
                r.saved_avg
                for b in (0.1, 0.2, 0.4)
                for r in rows
                if r.algorithm == alg and r.rep == rep and r.budget == b
            ]
            assert saved == sorted(saved)


def test_budget_sweep_shares_graph_and_samples(calls):
    rows = sweep_budget(tiny_config(), [0.1, 0.3])
    assert len(calls["run_algorithms"]) == 2
    assert len(_topology_sets_by_rep(calls)) == 1
    (_, first, _, _), (_, second, _, _) = calls["run_algorithms"]
    assert first.graph is second.graph
    ks = {r.budget: r.k for r in rows}
    assert ks[0.3] > ks[0.1]


def _without_wall_time(rows):
    return [replace(r, wall_time_s=0.0) for r in rows]


def _topology_sets_by_rep(calls):
    """The topology set that every budget and algorithm of a repetition received, by rep."""
    by_rep = {}
    for _, instance, rep, _ in calls["run_algorithms"]:
        assert by_rep.setdefault(rep, instance.topologies) is instance.topologies
    return by_rep


@pytest.mark.parametrize(
    "overrides",
    [
        dict(n=14, algorithms=("greedy", "ls", "hc", "blp", "lp_tkr", "oracle")),
        dict(n=14, algorithms=("hc", "lp_irp", "greedy"), evaluation="bfs"),
        dict(n=14, model=IC, alpha=0.3, beta=0.5, algorithms=("greedy", "ls", "hc", "blp", "oracle")),
        dict(n=30, model=IC, alpha=0.3, beta=0.5, algorithms=("ls", "lp_tkr"), evaluation="bfs"),
    ],
)
def test_budget_sweep_rows_equal_separate_runs(calls, overrides):
    cfg = tiny_config(repetitions=2, **overrides)
    budgets = [0.1, 0.3, 0.1, 0.2]
    swept = sweep_budget(cfg, budgets)
    assert len(calls["run_algorithms"]) == len(budgets) * 2
    assert sorted(_topology_sets_by_rep(calls)) == [0, 1]
    separate = [row for b in budgets for row in run_experiment(replace(cfg, budget_fraction=b))]
    assert _without_wall_time(swept) == _without_wall_time(separate)


@pytest.fixture
def calls(monkeypatch):
    """Arguments of every call to the harness's instance and graph builders, samplers,
    greedy entry points and algorithm runner."""
    import netvax.bench as bench
    import netvax.heuristics as heuristics

    calls = {}

    def counting(module, name):
        original = getattr(module, name)
        calls[name] = []

        def wrapper(*args, **kwargs):
            calls[name].append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(bench, "build_instance")
    counting(bench, "build_graph")
    counting(bench, "sample_lt")
    counting(bench, "sample_ic")
    counting(bench, "greedy_trajectory")
    counting(bench, "run_algorithms")
    counting(heuristics, "greedy")  # the harness has no greedy of its own to patch
    return calls


@pytest.mark.parametrize(
    "algorithms, passes", [(("greedy", "ls"), 1), (("hc",), 1), (("blp", "lp_tkr"), 0)]
)
def test_budget_sweep_builds_one_instance_and_one_greedy_pass_per_rep(calls, algorithms, passes):
    cfg = tiny_config(n=20, samples=6, algorithms=algorithms, repetitions=3)
    rows = sweep_budget(cfg, [0.1, 0.2, 0.4, 0.2])
    assert len(rows) == 4 * 3 * len(algorithms)
    assert sorted(args[1] for args in calls["build_instance"]) == [0, 1, 2]
    assert len(calls["greedy_trajectory"]) == 3 * passes
    assert calls["greedy"] == []
    for instance, ks, _ in calls["greedy_trajectory"]:
        assert ks == [2, 4, 8, 4] and instance.k == 8


def test_sample_sweep_runs_one_greedy_pass_per_instance(calls):
    cfg = tiny_config(n=20, algorithms=("greedy", "ls", "hc"), repetitions=2)
    rows, _ = sweep_samples(cfg, [3, 5, 4])
    assert len(rows) == 2 * 3 * 3
    assert len(calls["build_graph"]) == 1
    assert calls["greedy"] == []
    passes = [(len(instance.topologies), ks) for instance, ks, _ in calls["greedy_trajectory"]]
    assert passes == [(s, [2]) for _ in range(2) for s in (3, 5, 4)]


@pytest.mark.parametrize("model", [LT, IC])
def test_sample_sweep_samples_only_the_sets_it_runs(calls, model):
    cfg = tiny_config(model=model, samples=40, repetitions=2)
    sweep_samples(cfg, [5, 10])
    drawn = calls["sample_lt" if model == LT else "sample_ic"]
    assert [s for _, s, _ in drawn] == [5, 10, 5, 10]
    first, second = {seed for _, _, seed in drawn[:2]}, {seed for _, _, seed in drawn[2:]}
    assert len(first) == len(second) == 1 and first != second
    assert len({id(graph) for graph, _, _ in drawn}) == 1


def test_harness_serializes_no_topology_set(monkeypatch):
    serialized = []
    serialize = TopologySet.serialize

    def counting(self):
        serialized.append(self)
        return serialize(self)

    monkeypatch.setattr(TopologySet, "serialize", counting)
    cfg = tiny_config(algorithms=("greedy", "ls", "hc", "lp_tkr"), repetitions=2)
    assert len(run_experiment(cfg)) == 2 * 4
    assert len(sweep_budget(cfg, [0.1, 0.2, 0.3])) == 3 * 2 * 4
    rows, _ = sweep_samples(cfg, [3, 5])
    assert len(rows) == 2 * 2 * 4
    assert serialized == []


def test_greedy_rows_report_the_shared_pass_time():
    rows = sweep_budget(tiny_config(repetitions=1), [0.1, 0.3, 0.2])
    walls = {r.k: r.wall_time_s for r in rows}
    assert walls[2] < walls[5] < walls[7]


def test_sample_sweep_single_count():
    rows, stats = sweep_samples(tiny_config(repetitions=3), [10])
    assert {r.s for r in rows} == {10}
    (d,) = stats
    assert d.s == 10
    assert d.iqr >= 0.0


def test_sample_sweep_same_graph_across_everything():
    rows, _ = sweep_samples(tiny_config(repetitions=2), [5, 9])
    assert {r.n for r in rows} == {24}
    assert {(r.rep, r.s) for r in rows} == {(0, 5), (0, 9), (1, 5), (1, 9)}


def test_validate_config_errors():
    with pytest.raises(ParameterError):
        validate_config(tiny_config(model="SIS"))
    with pytest.raises(ParameterError):
        validate_config(tiny_config(infected_fraction=0.0))
    with pytest.raises(ParameterError):
        validate_config(tiny_config(budget_fraction=1.5))
    with pytest.raises(ParameterError):
        validate_config(tiny_config(algorithms=("gradient",)))
    with pytest.raises(ParameterError):
        validate_config(tiny_config(samples=0))
    with pytest.raises(ParameterError):
        validate_config(tiny_config(generator="city"))  # no csv_path
    with pytest.raises(ParameterError):
        validate_config(tiny_config(variance_lo=0.0))


def test_csv_round_trip(tmp_path):
    rows = run_experiment(tiny_config(algorithms=("greedy", "oracle"), repetitions=2))
    path = tmp_path / "rows.csv"
    emit_csv(rows, path)
    back = read_csv(path)
    assert back == rows
    assert path.read_text().splitlines()[0] == ",".join(CSV_FIELDS)


def test_csv_round_trip_empty(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv([], path)
    assert read_csv(path) == []
    assert path.read_text().strip() == ",".join(CSV_FIELDS)


def test_plot_data(tmp_path):
    rows = run_experiment(tiny_config(algorithms=("greedy", "lp_tkr")))
    path = tmp_path / "plot.csv"
    emit_plot_data(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "algorithm,log10_n,log10_time"
    assert len(lines) == 3
    for line in lines[1:]:
        alg, log_n, log_t = line.split(",")
        assert float(log_n) == pytest.approx(math.log10(24))
        assert float(log_t) < 2  # sanity: under 100 seconds


def test_plot_data_skips_non_ok(tmp_path):
    rows = [
        ResultRow("oracle", 24, 2, 8, 7, 0, 0.1, None, None, 0.5, "capacity"),
    ]
    path = tmp_path / "plot.csv"
    emit_plot_data(rows, path)
    assert len(path.read_text().splitlines()) == 1


def test_ic_model_runs_end_to_end():
    rows = run_experiment(
        tiny_config(model=IC, alpha=0.2, beta=0.5, algorithms=("greedy", "ls", "lp_tkr"))
    )
    assert all(r.status == "ok" for r in rows)


def test_er_generator_runs():
    rows = run_experiment(tiny_config(generator="er", er_p=0.1, algorithms=("greedy",)))
    assert rows[0].status == "ok"


def test_waxman_64_greedy_tracks_blp():
    # published quality regime: at 64 nodes, 10% infected, 10% budget, 50
    # samples, greedy lands within ~2 nodes of the sampled optimum on average
    gaps = []
    for seed in range(10):
        cfg = tiny_config(
            n=64, centers=5, samples=50, seed=seed, algorithms=("greedy", "blp")
        )
        by_alg = {r.algorithm: r for r in run_experiment(cfg)}
        assert by_alg["blp"].status == "ok"
        gaps.append(by_alg["blp"].saved_avg - by_alg["greedy"].saved_avg)
    assert sum(gaps) / len(gaps) <= 2.0
    assert all(g >= -1e-9 for g in gaps)


def test_city_generator_runs(tmp_path):
    csv_path = tmp_path / "cities.csv"
    csv_path.write_text(
        "city,lat,lng,population,density\n"
        "A,40.0,-74.0,300000,5000\nB,41.5,-73.0,200000,2000\n"
    )
    cfg = tiny_config(generator="city", csv_path=str(csv_path), scale_factor=20_000)
    rows = run_experiment(cfg)
    assert rows[0].n == 25
    assert rows[0].status == "ok"
