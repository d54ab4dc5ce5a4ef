import math

import numpy as np
import pytest

from netvax import IC, LT, Graph, in_neighbors, read_graph, validate, write_graph
from netvax.errors import FormatError, ParameterError


def test_empty_graph_validates():
    report = validate(Graph(0, [], LT))
    assert report.ok
    assert report.violations == ()


def test_lt_incoming_sum_violation():
    g = Graph(3, [(0, 2, 0.6), (1, 2, 0.5)], LT)
    report = validate(g)
    assert not report.ok
    (v,) = report.violations
    assert v.rule == "lt-incoming-sum"
    assert v.subject == "node 2"
    assert "1.1" in v.detail


def test_ic_probability_out_of_range():
    g = Graph(2, [(0, 1, 1.2)], IC)
    report = validate(g)
    assert not report.ok
    assert report.violations[0].rule == "value-range"


def test_lt_weight_below_zero_flagged():
    report = validate(Graph(2, [(0, 1, -0.1)], LT))
    assert any(v.rule == "value-range" for v in report.violations)


def test_self_loop_and_duplicate_flagged():
    g = Graph(3, [(1, 1, 0.2), (0, 2, 0.3), (0, 2, 0.1)], IC)
    rules = {v.rule for v in validate(g).violations}
    assert rules == {"self-loop", "duplicate-edge"}


def test_validate_is_pure():
    g = Graph(3, [(0, 2, 0.6), (1, 2, 0.5)], LT)
    assert validate(g) == validate(g)


def test_lt_sum_tolerance_boundary():
    # sums must stay strictly below 1, with a 1e-9 tolerance band
    ok = Graph(2, [(0, 1, 1.0 - 2e-9)], LT)
    assert validate(ok).ok
    bad = Graph(2, [(0, 1, 1.0 - 1e-10)], LT)
    assert not validate(bad).ok


def test_in_neighbors_empty():
    g = Graph(3, [(0, 1, 0.5)], IC)
    assert in_neighbors(g, 2) == []


def test_in_neighbors_sorted_by_source():
    g = Graph(3, [(1, 2, 0.5), (0, 2, 0.3)], IC)
    assert in_neighbors(g, 2) == [(0, 0.3), (1, 0.5)]


def test_in_neighbors_out_of_range():
    g = Graph(3, [(0, 1, 0.5)], IC)
    with pytest.raises(IndexError):
        in_neighbors(g, 3)
    with pytest.raises(IndexError):
        in_neighbors(g, -1)


def test_edge_indices_checked_at_construction():
    with pytest.raises(IndexError):
        Graph(2, [(0, 2, 0.5)], IC)


def test_unknown_model_rejected():
    with pytest.raises(ParameterError):
        Graph(1, [], "SIR")


def test_out_neighbors_and_degree():
    g = Graph(4, [(0, 3, 0.1), (0, 1, 0.2), (2, 0, 0.3)], IC)
    assert g.out_neighbors(0) == ((1, 0.2), (3, 0.1))
    assert g.out_degree(0) == 2
    assert g.neighbors(0) == (1, 2, 3)


def test_file_round_trip_bit_exact(tmp_path):
    # awkward floats: repeating binary fractions and tiny magnitudes
    values = [0.1 + 0.2, 1e-17, 0.9999999999999999, 1 / 3]
    edges = [(i, i + 1, v) for i, v in enumerate(values)]
    coords = [(math.pi / (i + 1), math.e * i) for i in range(5)]
    g = Graph(5, edges, IC, coords)
    path = tmp_path / "g.txt"
    write_graph(g, path)
    g2 = read_graph(path)
    assert g2 == g
    write_graph(g2, tmp_path / "g2.txt")
    assert (tmp_path / "g2.txt").read_text() == path.read_text()


def test_read_graph_errors(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("edge 0 1 0.5\n")
    with pytest.raises(FormatError):
        read_graph(p)
    p.write_text("graph 2 IC\nedge 0 x 0.5\n")
    with pytest.raises(FormatError, match="line 2"):
        read_graph(p)


def test_read_graph_out_of_range_edge(tmp_path):
    p = tmp_path / "bad.graph"
    p.write_text("graph 3 IC\nedge 0 5 0.5\n")
    with pytest.raises(FormatError, match=r"line 2: edge \(0,5\) references a node outside 0\.\.2"):
        read_graph(p)
    # an edge line before the header is checked once the header is read
    p.write_text("edge 0 1 0.5\nedge -1 1 0.5\ngraph 2 LT\n")
    with pytest.raises(FormatError, match=r"line 2: edge \(-1,1\) references a node outside 0\.\.1"):
        read_graph(p)


def test_read_graph_out_of_range_coord(tmp_path):
    p = tmp_path / "bad.graph"
    p.write_text("graph 2 IC\ncoord 0 0 0\ncoord 2 1 1\n")
    with pytest.raises(FormatError, match=r"line 3: coord for node 2 references a node outside 0\.\.1"):
        read_graph(p)


def test_read_graph_repeated_coord(tmp_path):
    p = tmp_path / "twice.graph"
    p.write_text("graph 2 IC\ncoord 0 0 0\ncoord 0 5 5\ncoord 1 1 1\nedge 0 1 0.5\n")
    with pytest.raises(FormatError, match="line 3: coord for node 0 given twice"):
        read_graph(p)


def test_read_graph_rejects_a_second_header(tmp_path):
    p = tmp_path / "twice.graph"
    p.write_text("graph 2 IC\nedge 0 1 0.5\ngraph 3 LT\n")
    with pytest.raises(FormatError, match="line 3: a second 'graph' header"):
        read_graph(p)


def test_read_graph_bad_header_values(tmp_path):
    # Graph(...) rejects these with ParameterError; the reader reports a FormatError
    p = tmp_path / "bad.graph"
    for header, message in (("graph 8 I", "unknown model tag 'I'"), ("graph -2 IC", "node count must be non-negative")):
        p.write_text("# a comment line\n" + header + "\n")
        with pytest.raises(FormatError, match=f"line 2: {message}"):
            read_graph(p)


def test_digest_changes_with_content():
    g1 = Graph(2, [(0, 1, 0.5)], IC)
    g2 = Graph(2, [(0, 1, 0.25)], IC)
    assert g1.digest() != g2.digest()
    assert g1.digest() == Graph(2, [(0, 1, 0.5)], IC).digest()


def test_graph_holds_its_edges_once_as_read_only_arrays():
    g = Graph(3, [(2, 0, 0.25), (0, 1, 0.5)], IC)
    assert g.src.tolist() == [2, 0] and g.dst.tolist() == [0, 1] and g.value.tolist() == [0.25, 0.5]
    assert (g.src.dtype, g.dst.dtype, g.value.dtype) == (np.int64, np.int64, np.float64)
    for array in (g.src, g.dst, g.value):
        with pytest.raises(ValueError):
            array[0] = 1
    assert g.edges == ((2, 0, 0.25), (0, 1, 0.5))
    assert g.m == 2


def test_graph_from_pairs_and_values_equals_graph_from_triples():
    pairs = np.array([[2, 0], [0, 1]])
    g = Graph(3, pairs, LT, values=[0.25, 0.5])
    pairs[0, 0] = 1  # the graph keeps its own copy
    assert g == Graph(3, [(2, 0, 0.25), (0, 1, 0.5)], LT)
    assert g.with_values([0.1, 0.2]).edges == ((2, 0, 0.1), (0, 1, 0.2))
    with pytest.raises(ParameterError, match="one value per edge"):
        Graph(3, pairs, LT, values=[0.5])
    with pytest.raises(ParameterError, match="one value per edge"):
        g.with_values([0.5])


def test_graph_rejects_malformed_edges():
    with pytest.raises(ParameterError, match=r"\(src, dst, value\)"):
        Graph(3, [(0, 1)], IC)
    with pytest.raises(ParameterError, match=r"\(src, dst\) tuple"):
        Graph(3, [(0, 1, 0.5)], IC, values=[0.5])
    with pytest.raises(IndexError, match="outside"):
        Graph(3, [(0, 2**70, 0.5)], IC)
    with pytest.raises(ParameterError, match="coords"):
        Graph(2, [], IC, coords=[(0.0, 0.0)])


def test_adjacency_is_built_on_first_use():
    g = Graph(3, [(1, 2, 0.5), (0, 2, 0.3), (2, 0, 0.1)], IC)
    assert g._in is None and g._out is None
    assert g.in_neighbors(2) == ((0, 0.3), (1, 0.5))
    assert g._out is None
    assert g.neighbors(2) == (0, 1)


@pytest.mark.parametrize(
    "line",
    ["graph 3 IC extra", "edge 0 1 0.5 9", "coord 0 0 0 7"],
)
def test_read_graph_rejects_extra_fields(tmp_path, line):
    records = ["graph 3 IC", "coord 0 0 0", "coord 1 1 1", "coord 2 2 2", "edge 0 1 0.5"]
    kind = line.split()[0]
    at = next(i for i, r in enumerate(records) if r.split()[0] == kind)
    records[at] = line
    p = tmp_path / "extra.graph"
    p.write_text("\n".join(records) + "\n")
    with pytest.raises(FormatError, match=f"line {at + 1}: unexpected field"):
        read_graph(p)


def test_equal_graphs_hash_equal():
    a = Graph(2, [(0, 1, -0.0)], IC)
    b = Graph(2, np.array([[0, 1]]), IC, values=[0.0])
    assert a == b and hash(a) == hash(b)
    assert a != Graph(2, [(0, 1, 0.0)], LT)
    nan = Graph(2, [(0, 1, math.nan)], IC)
    assert nan == nan and {nan: 1}[nan] == 1
