"""Property tests for the graph and topology files and the stacked live-edge layout."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from netvax import (
    IC,
    LT,
    Graph,
    Topology,
    TopologySet,
    enumerate_all,
    generate_er,
    read_graph,
    read_topology_set,
    write_graph,
    write_topology_set,
)

unit = st.floats(0.0, 1.0)


@st.composite
def graphs(draw):
    n = draw(st.integers(0, 8))
    nodes = st.integers(0, n - 1) if n else st.nothing()
    edges = [(src, dst, draw(unit)) for src, dst in draw(st.lists(st.tuples(nodes, nodes), unique=True))]
    coords = draw(st.none() | st.lists(st.tuples(unit, unit), min_size=n, max_size=n))
    return Graph(n, edges, draw(st.sampled_from([LT, IC])), coords)


@st.composite
def topology_sets(draw):
    n = draw(st.integers(1, 8))
    s = draw(st.integers(0, 4))
    weighted = draw(st.booleans())
    tops = []
    for _ in range(s):
        live = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), unique=True))
        mu = draw(st.floats(1e-9, 1.0)) if weighted else None
        tops.append(Topology(n, live, mu=mu))
    return TopologySet(tops, "", draw(st.integers(0, 2**40)))


@st.composite
def enumerated_sets(draw):
    model = draw(st.sampled_from([LT, IC]))
    graph = generate_er(draw(st.integers(2, 5)), draw(st.floats(0.1, 0.5)), model, draw(st.integers(0, 2**20)))
    assume(graph.m <= 8)  # at most 2^8 enumerated topologies keeps an example fast
    return enumerate_all(graph)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("files")


@settings(max_examples=60)
@given(graph=graphs())
def test_graph_file_round_trip(scratch, graph):
    path = scratch / "graph.txt"
    write_graph(graph, path)
    back = read_graph(path)
    assert back == graph
    assert back.digest() == graph.digest()


@settings(max_examples=60)
@given(ts=topology_sets() | enumerated_sets())
def test_topology_file_round_trip(scratch, ts):
    path = scratch / "topos.txt"
    write_topology_set(ts, path)
    back = read_topology_set(path, source_graph_hash=ts.source_graph_hash)
    assert back == ts
    assert back.digest() == ts.digest()
    if ts.mu is not None:
        assert np.array_equal(back.mu, ts.mu)


@settings(max_examples=60)
@given(ts=topology_sets() | enumerated_sets())
def test_stacked_edges_offset_each_topology(ts):
    stacked = ts.stacked_edges()
    expected = [t.edges + i * ts.n for i, t in enumerate(ts)]
    assert stacked.dtype == np.int32
    assert np.array_equal(stacked, np.concatenate([np.empty((0, 2), dtype=np.int32), *expected]))
    assert ts.stacked_edges() is stacked
    for t in ts:
        assert t.live_edges == tuple(map(tuple, t.edges.tolist()))
    for arr in [stacked, *(t.edges for t in ts)]:
        with pytest.raises(ValueError, match="read-only"):
            arr += 1
