from dataclasses import replace

import pytest

from netvax import read_graph, read_topology_set, sample_lt
from netvax.bench import build_instance, read_csv
from netvax.cli import main, parse_config
from netvax.errors import FormatError


CONFIG = """\
# small waxman experiment
model = LT
generator = waxman
n = 24
centers = 3
alpha = 0.4
beta = 0.2
infected_fraction = 0.1
budget_fraction = 0.1
samples = 8
algorithms = greedy,ls
seed = 7
repetitions = 2
evaluation = structural
"""


def write_config(tmp_path, text=CONFIG):
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    return path


def test_parse_config(tmp_path):
    cfg = parse_config(write_config(tmp_path))
    assert cfg.model == "LT"
    assert cfg.n == 24
    assert cfg.algorithms == ("greedy", "ls")
    assert cfg.evaluation == "structural"


def test_run_writes_csv(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "rows.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    rows = read_csv(out)
    assert len(rows) == 4  # 2 algorithms x 2 repetitions


def test_run_is_reproducible(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(out2)]) == 0
    saved = lambda p: [(r.algorithm, r.rep, r.saved_avg, r.saved_pct) for r in read_csv(p)]
    assert saved(out1) == saved(out2)


def test_seed_override_changes_results(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["run", "--config", str(cfg), "--out", str(out1)])
    main(["run", "--config", str(cfg), "--out", str(out2), "--seed", "99"])
    assert {r.seed for r in read_csv(out2)} == {99}


def test_unknown_config_key_exits_2(tmp_path):
    cfg = write_config(tmp_path, CONFIG + "warp_speed = 9\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2


def test_bad_config_value_exits_2(tmp_path):
    cfg = write_config(tmp_path, CONFIG.replace("samples = 8", "samples = none"))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2


def test_invalid_algorithm_exits_2(tmp_path):
    cfg = write_config(tmp_path, CONFIG.replace("greedy,ls", "greedy,annealing"))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2


def test_unwritable_output_exits_3(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["run", "--config", str(cfg), "--out", "/nonexistent-dir/x.csv"]) == 3


def test_missing_config_file_exits_3(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "x.csv")]) == 3


def test_sweep_budget_cli(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "budget.csv"
    code = main(["sweep-budget", "--config", str(cfg), "--out", str(out), "--budgets", "0.1,0.2"])
    assert code == 0
    rows = read_csv(out)
    assert {r.budget for r in rows} == {0.1, 0.2}


def test_sweep_budget_bad_fraction_exits_2(tmp_path):
    cfg = write_config(tmp_path)
    code = main(["sweep-budget", "--config", str(cfg), "--out", str(tmp_path / "x.csv"), "--budgets", "5,10"])
    assert code == 2


@pytest.mark.parametrize(
    "command, flag, text, kind",
    [("sweep-budget", "--budgets", "0.1,x", "float"), ("sweep-samples", "--samples", "4,8.5", "int")],
)
def test_sweep_list_that_does_not_parse_exits_2(tmp_path, capsys, command, flag, text, kind):
    cfg = write_config(tmp_path)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "x.csv"), flag, text]) == 2
    assert f"bad {kind} list {text!r}" in capsys.readouterr().err


def test_sweep_samples_cli(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "samples.csv"
    stats = tmp_path / "stats.csv"
    code = main(
        ["sweep-samples", "--config", str(cfg), "--out", str(out), "--samples", "4,8", "--stats-out", str(stats)]
    )
    assert code == 0
    assert {r.s for r in read_csv(out)} == {4, 8}
    lines = stats.read_text().splitlines()
    assert lines[0] == "algorithm,s,mean_saved,iqr_saved"
    assert len(lines) == 5  # 2 algorithms x 2 sample counts


def test_gen_graph_and_topologies_round_trip(tmp_path):
    cfg = write_config(tmp_path)
    gpath = tmp_path / "graph.txt"
    assert main(["gen-graph", "--config", str(cfg), "--out", str(gpath)]) == 0
    graph = read_graph(gpath)
    assert graph.n == 24

    tpath = tmp_path / "topos.txt"
    assert main(
        ["gen-topologies", "--graph", str(gpath), "--samples", "5", "--seed", "3", "--out", str(tpath)]
    ) == 0
    ts = read_topology_set(tpath, source_graph_hash=graph.digest())
    assert ts == sample_lt(graph, 5, 3)


@pytest.mark.parametrize("seed", [None, 11])
def test_gen_graph_writes_the_graph_of_runs_first_repetition(tmp_path, seed):
    cfg = write_config(tmp_path, CONFIG.replace("model = LT", "model = IC"))
    gpath = tmp_path / "graph.txt"
    override = [] if seed is None else ["--seed", str(seed)]
    assert main(["gen-graph", "--config", str(cfg), "--out", str(gpath), *override]) == 0
    config = parse_config(cfg)
    if seed is not None:
        config = replace(config, seed=seed)
    assert read_graph(gpath) == build_instance(config, 0).graph


def test_gen_topologies_bad_graph_file_exits_2(tmp_path):
    gpath = tmp_path / "bad.graph"
    gpath.write_text("graph 3 IC\nedge 0 5 0.5\n")
    code = main(
        ["gen-topologies", "--graph", str(gpath), "--samples", "2", "--seed", "1", "--out", str(tmp_path / "t.txt")]
    )
    assert code == 2


def test_negative_seed_exits_2(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x.csv"), "--seed", "-1"]) == 2
    bad = write_config(tmp_path, CONFIG.replace("seed = 7", "seed = -4"))
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "x.csv")]) == 2


def test_gen_topologies_negative_seed_exits_2(tmp_path):
    gpath = tmp_path / "graph.txt"
    assert main(["gen-graph", "--config", str(write_config(tmp_path)), "--out", str(gpath)]) == 0
    code = main(
        ["gen-topologies", "--graph", str(gpath), "--samples", "2", "--seed", "-1", "--out", str(tmp_path / "t.txt")]
    )
    assert code == 2


def test_gen_topologies_without_samples_exits_2(tmp_path, capsys):
    gpath = tmp_path / "graph.txt"
    assert main(["gen-graph", "--config", str(write_config(tmp_path)), "--out", str(gpath)]) == 0
    for samples in ("0", "-2"):
        out = tmp_path / f"t{samples}.txt"
        code = main(["gen-topologies", "--graph", str(gpath), "--samples", samples, "--seed", "1", "--out", str(out)])
        assert code == 2
        assert "samples must be at least 1" in capsys.readouterr().err
        assert not out.exists()


def test_non_finite_config_values_exit_2(tmp_path):
    for line in ("box_side = inf", "box_side = nan", "variance_hi = inf", "beta = nan"):
        # replace the key's line if CONFIG has one: a repeated key is an error of its own
        kept = [kept for kept in CONFIG.splitlines() if kept.split(" = ")[0] != line.split(" = ")[0]]
        cfg = write_config(tmp_path, "\n".join(kept + [line]) + "\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2, line


def test_non_utf8_input_files_exit_2(tmp_path):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(CONFIG.replace("# small", "# sm\xe4ll").encode("latin-1"))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
    gpath = tmp_path / "graph.txt"
    gpath.write_bytes(b"graph 2 IC\n# \xff\nedge 0 1 0.5\n")
    code = main(
        ["gen-topologies", "--graph", str(gpath), "--samples", "2", "--seed", "1", "--out", str(tmp_path / "t.txt")]
    )
    assert code == 2
    cities = tmp_path / "cities.csv"
    cities.write_bytes(b"city,lat,lng,population,density\nM\xfcnchen,48.1,11.6,300000,5000\n")
    city_cfg = write_config(tmp_path, f"generator = city\ncsv_path = {cities}\nscale_factor = 20000\n")
    assert main(["run", "--config", str(city_cfg), "--out", str(tmp_path / "x.csv")]) == 2
    tpath = tmp_path / "topos.txt"
    tpath.write_bytes(b"toposet 2 1 0\ntopo 0\n# \xff\n")
    with pytest.raises(FormatError, match="UTF-8"):
        read_topology_set(tpath)


@pytest.mark.parametrize("field", ["lat", "lng", "population", "density"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_city_field_exits_2(tmp_path, capsys, field, value):
    bad = {"city": "Bad", "lat": "48.1", "lng": "11.6", "population": "300000", "density": "5000"}
    bad[field] = value
    cities = tmp_path / "cities.csv"
    cities.write_text(
        "city,lat,lng,population,density\nGood,48.0,11.5,200000,4000\n" + ",".join(bad.values()) + "\n"
    )
    cfg = write_config(tmp_path, f"generator = city\ncsv_path = {cities}\nscale_factor = 20000\n")
    out = tmp_path / "graph.txt"
    assert main(["gen-graph", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"line 3: {field} {float(value)!r} is not finite" in capsys.readouterr().err
    assert not out.exists()


def test_repeated_config_key_exits_2(tmp_path):
    cfg = write_config(tmp_path, CONFIG.replace("n = 24\n", "n = 16\nn = 17\n"))
    with pytest.raises(FormatError, match="line 5: config key 'n' given twice"):
        parse_config(cfg)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2


@pytest.mark.parametrize("command", [["run"], ["sweep-budget", "--budgets", "0.1"]], ids=["run", "sweep-budget"])
def test_threads_option_is_a_usage_error(tmp_path, capsys, command):
    # repetitions run one after another; an old script that passes --threads
    # stops with argparse's usage error instead of running
    out = tmp_path / "rows.csv"
    argv = command + ["--config", str(write_config(tmp_path)), "--out", str(out), "--threads", "2"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: netvax")
    assert "netvax: error: unrecognized arguments: --threads 2" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("text", ["graph 3 IC extra\n", "graph 3 IC\nedge 0 1 0.5 9\n"])
def test_gen_topologies_graph_file_with_extra_field_exits_2(tmp_path, capsys, text):
    gpath = tmp_path / "extra.graph"
    gpath.write_text(text)
    code = main(
        ["gen-topologies", "--graph", str(gpath), "--samples", "2", "--seed", "1", "--out", str(tmp_path / "t.txt")]
    )
    assert code == 2
    assert "unexpected field" in capsys.readouterr().err
