import math

import numpy as np
import pytest
from scipy import stats

from netvax import (
    IC,
    LT,
    Graph,
    Topology,
    TopologySet,
    enumerate_all,
    generate_er,
    read_topology_set,
    sample_ic,
    sample_lt,
    write_topology_set,
)
from netvax.errors import CapacityError, FormatError, ModelMismatchError, ParameterError


def lt_pair_graph():
    # one contended node: in-weights 0.3 and 0.5, no-edge probability 0.2
    return Graph(3, [(0, 2, 0.3), (1, 2, 0.5)], LT)


# --- LT sampling ----------------------------------------------------------


def test_lt_near_certain_edge():
    g = Graph(2, [(0, 1, 0.999)], LT)
    ts = sample_lt(g, 1000, 3)
    present = sum(1 for t in ts if t.live_edges)
    assert present >= 980


def test_lt_no_edge_frequency():
    ts = sample_lt(lt_pair_graph(), 100_000, 17)
    none = sum(1 for t in ts if not t.live_edges)
    p = 0.2
    sigma = math.sqrt(p * (1 - p) / len(ts))
    assert abs(none / len(ts) - p) < 4 * sigma


def test_lt_empty_graph():
    ts = sample_lt(Graph(4, [], LT), 5, 1)
    assert all(t.live_edges == () for t in ts)


def test_lt_at_most_one_incoming_everywhere():
    for seed in range(20):
        g = generate_er(15, 0.3, LT, seed)
        for topo in sample_lt(g, 10, seed):
            indeg = [0] * g.n
            for _, d in topo.live_edges:
                indeg[d] += 1
            assert max(indeg, default=0) <= 1


def test_lt_model_mismatch():
    with pytest.raises(ModelMismatchError):
        sample_lt(Graph(2, [(0, 1, 0.5)], IC), 1, 0)


def test_sampling_rejects_invalid_graph():
    bad = Graph(3, [(0, 2, 0.6), (1, 2, 0.5)], LT)
    with pytest.raises(ParameterError):
        sample_lt(bad, 1, 0)


def test_sampling_needs_one_topology():
    # an empty set has n = 0, so its file would lose the graph's node count
    for sampler, model in ((sample_lt, LT), (sample_ic, IC)):
        g = generate_er(15, 0.2, model, 3)
        for s in (0, -1):
            with pytest.raises(ParameterError, match="at least 1"):
                sampler(g, s, 1)


# --- IC sampling ----------------------------------------------------------


def test_ic_all_probability_one():
    g = Graph(3, [(0, 1, 1.0), (1, 2, 1.0)], IC)
    for topo in sample_ic(g, 5, 2):
        assert set(topo.live_edges) == {(0, 1), (1, 2)}


def test_ic_all_probability_zero():
    g = Graph(3, [(0, 1, 0.0), (1, 2, 0.0)], IC)
    assert all(t.live_edges == () for t in sample_ic(g, 5, 2))


def test_ic_single_edge_frequency():
    g = Graph(2, [(0, 1, 0.25)], IC)
    ts = sample_ic(g, 100_000, 23)
    live = sum(1 for t in ts if t.live_edges)
    sigma = math.sqrt(0.25 * 0.75 / len(ts))
    assert abs(live / len(ts) - 0.25) < 4 * sigma


def test_ic_model_mismatch():
    with pytest.raises(ModelMismatchError):
        sample_ic(Graph(2, [(0, 1, 0.5)], LT), 1, 0)


# --- determinism and substreams --------------------------------------------


def test_sampling_deterministic():
    g = generate_er(12, 0.3, IC, 5)
    assert sample_ic(g, 6, 9) == sample_ic(g, 6, 9)


def test_topology_substreams_stable_across_s():
    g = generate_er(12, 0.3, LT, 5)
    small = sample_lt(g, 3, 9)
    big = sample_lt(g, 7, 9)
    for i in range(3):
        assert small[i] == big[i]


# --- enumeration ----------------------------------------------------------


def test_enumerate_ic_two_half_edges():
    g = Graph(3, [(0, 1, 0.5), (1, 2, 0.5)], IC)
    ts = enumerate_all(g)
    assert len(ts) == 4
    assert all(t.mu == pytest.approx(0.25) for t in ts)
    assert {frozenset(t.live_edges) for t in ts} == {
        frozenset(),
        frozenset({(0, 1)}),
        frozenset({(1, 2)}),
        frozenset({(0, 1), (1, 2)}),
    }


def test_enumerate_lt_choice_weights():
    ts = enumerate_all(lt_pair_graph())
    by_edges = {frozenset(t.live_edges): t.mu for t in ts}
    assert by_edges == {
        frozenset({(0, 2)}): pytest.approx(0.3),
        frozenset({(1, 2)}): pytest.approx(0.5),
        frozenset(): pytest.approx(0.2),
    }


def test_enumerate_mu_sums_to_one():
    for seed in range(10):
        model = LT if seed % 2 else IC
        g = generate_er(5, 0.25, model, seed)
        if model == IC and g.m > 12:
            continue
        ts = enumerate_all(g)
        assert sum(t.mu for t in ts) == pytest.approx(1.0, abs=1e-9)


def test_enumerate_skips_impossible_branches():
    g = Graph(3, [(0, 1, 1.0), (1, 2, 0.0)], IC)
    ts = enumerate_all(g)
    (only,) = ts.topologies
    assert set(only.live_edges) == {(0, 1)}
    assert only.mu == pytest.approx(1.0)


def test_enumerate_ic_capacity_guard():
    g = Graph(22, [(i, i + 1, 0.5) for i in range(21)], IC)
    with pytest.raises(CapacityError):
        enumerate_all(g)


def test_enumerate_lt_capacity_guard():
    # 21 nodes with two incoming edges each: 3^21 > 2^20 choice combinations
    n = 43
    edges = []
    for idx, target in enumerate(range(22, 43)):
        a, b = (2 * idx) % 22, (2 * idx + 1) % 22
        edges.append((a, target, 0.3))
        edges.append((b, target, 0.3))
    g = Graph(n, edges, LT)
    with pytest.raises(CapacityError):
        enumerate_all(g)


def test_sampled_frequencies_match_enumeration():
    g = Graph(3, [(0, 1, 0.5), (1, 2, 0.4), (0, 2, 0.3)], IC)
    enum = enumerate_all(g)
    expected = {frozenset(t.live_edges): t.mu for t in enum}
    ts = sample_ic(g, 20_000, 31)
    counts = {key: 0 for key in expected}
    for t in ts:
        counts[frozenset(t.live_edges)] += 1
    keys = sorted(expected, key=sorted)
    observed = [counts[k] for k in keys]
    exp = [expected[k] * len(ts) for k in keys]
    _, pvalue = stats.chisquare(observed, exp)
    assert pvalue > 0.001


# --- file format ----------------------------------------------------------


def test_topology_set_round_trip(tmp_path):
    g = generate_er(10, 0.3, IC, 4)
    ts = sample_ic(g, 5, 11)
    path = tmp_path / "topos.txt"
    write_topology_set(ts, path)
    back = read_topology_set(path, source_graph_hash=ts.source_graph_hash)
    assert back == ts
    write_topology_set(back, tmp_path / "again.txt")
    assert (tmp_path / "again.txt").read_text() == path.read_text()


def test_topology_set_round_trip_with_mu(tmp_path):
    ts = enumerate_all(lt_pair_graph())
    path = tmp_path / "enum.txt"
    write_topology_set(ts, path)
    back = read_topology_set(path, source_graph_hash=ts.source_graph_hash)
    assert back == ts


def test_read_topology_set_out_of_range_edge_in_last_topology(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("toposet 3 2 0\ntopo 0\ne 0 1\ntopo 1\ne 0 7\n")
    with pytest.raises(FormatError, match="line 4"):
        read_topology_set(path)


def test_read_topology_set_rejects_a_second_header(tmp_path):
    # without the check, topology 0 would be read against the second header's n
    path = tmp_path / "twice.txt"
    path.write_text("toposet 3 2 0\ntopo 0\ne 0 1\ntoposet 5 2 9\ntopo 1\ne 3 4\n")
    with pytest.raises(FormatError, match="line 4: a second 'toposet' header"):
        read_topology_set(path)


def test_read_topology_set_edge_before_first_topo(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("toposet 3 1 0\ne 0 1\ntopo 0\n")
    with pytest.raises(FormatError, match="line 2"):
        read_topology_set(path)


def test_read_topology_set_checks_topo_index(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("toposet 3 2 0\ntopo 0\ne 0 1\ntopo 5\ne 1 2\n")
    with pytest.raises(FormatError, match="line 4"):
        read_topology_set(path)


def test_topology_set_rejects_mu_on_only_some_topologies(tmp_path):
    with pytest.raises(ParameterError, match="1 of 2"):
        TopologySet([Topology(2, [], mu=0.9), Topology(2, [(0, 1)])], "", 0)
    path = tmp_path / "mixed.txt"
    path.write_text("toposet 2 2 0\ntopo 0 0.9\ntopo 1\ne 0 1\n")
    with pytest.raises(FormatError, match="mu"):
        read_topology_set(path)


def test_weights_uniform_when_sampled():
    g = generate_er(6, 0.3, IC, 4)
    ts = sample_ic(g, 4, 11)
    assert np.allclose(ts.weights(), 0.25)
    enum = enumerate_all(Graph(2, [(0, 1, 0.3)], IC))
    assert np.allclose(sorted(enum.weights()), [0.3, 0.7])


def test_topology_rejects_negative_n_and_repeated_live_edge():
    with pytest.raises(ParameterError, match="node count"):
        Topology(-3, [])
    with pytest.raises(ParameterError, match=r"live edge \(0,1\) given twice"):
        Topology(3, [(0, 1), (1, 2), (0, 1)])


@pytest.mark.parametrize(
    "text, match",
    [
        ("toposet -3 1 0\ntopo 0\n", "line 1: negative node count"),
        ("toposet -3 0 0\n", "line 1: negative node count"),
        ("toposet 3 1 0\ntopo 0\ne 0 1\ne 0 1\n", r"line 2: topology 0: live edge \(0,1\) given twice"),
    ],
)
def test_read_topology_set_rejects_negative_n_and_repeated_live_edge(tmp_path, text, match):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(FormatError, match=match):
        read_topology_set(path)


@pytest.mark.parametrize(
    "text, lineno",
    [
        ("toposet 3 1 0 extra\ntopo 0\ne 0 1\n", 1),
        ("toposet 3 1 0\ntopo 0 0.5 7\ne 0 1\n", 2),
        ("toposet 3 1 0\ntopo 0\ne 0 1 7\n", 3),
    ],
)
def test_read_topology_set_rejects_extra_fields(tmp_path, text, lineno):
    path = tmp_path / "extra.txt"
    path.write_text(text)
    with pytest.raises(FormatError, match=f"line {lineno}: unexpected field"):
        read_topology_set(path)


@pytest.mark.parametrize("n", [0, 1])
def test_lt_sampling_of_tiny_graphs(n):
    assert all(t.live_edges == () for t in sample_lt(Graph(n, [], LT), 3, 0))
    assert all(t.live_edges == () for t in sample_ic(Graph(n, [], IC), 3, 0))


def test_lt_sampling_never_picks_a_zero_weight_edge():
    g = Graph(3, [(0, 2, 0.0), (1, 2, 0.99)], LT)
    assert {t.live_edges for t in sample_lt(g, 200, 4)} == {(), ((1, 2),)}
