"""Property tests for the graph, topology and config files and the stacked live-edge layout.

The corruption tests flip, insert or delete bytes of valid files: a reader
either reads the result or raises its documented error, and the CLI exits 0
or 2, never with a traceback.  The record-fault test breaks one line of a
valid file in one of the ways the shared record grammar rejects, and the
reader must name that line.
"""

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
from netvax.cli import main, parse_config
from netvax.errors import FormatError, ParameterError

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


@st.composite
def corruptions(draw, data: bytes, max_ops: int = 4):
    """``data`` with 1 to ``max_ops`` bytes flipped by one bit, inserted or deleted."""
    data = bytearray(data)
    for _ in range(draw(st.integers(1, max_ops))):
        op = draw(st.sampled_from(["flip", "insert", "delete"]))
        if op == "insert":
            at = draw(st.integers(0, len(data)))
            data[at:at] = bytes([draw(st.integers(0, 255))])
        elif data:
            at = draw(st.integers(0, len(data) - 1))
            if op == "flip":
                data[at] ^= 1 << draw(st.integers(0, 7))
            else:
                del data[at]
    return bytes(data)


def corrupted_file(draw, path, text: str, max_ops: int = 4):
    path.write_bytes(draw(corruptions(text.encode(), max_ops)))
    return path


@settings(max_examples=200)
@given(graph=graphs(), data=st.data())
def test_corrupted_graph_file_raises_only_format_error(scratch, graph, data):
    path = corrupted_file(data.draw, scratch / "graph.txt", graph.serialize())
    try:
        read_graph(path)
    except FormatError:
        pass


@settings(max_examples=200)
@given(ts=topology_sets() | enumerated_sets(), data=st.data())
def test_corrupted_topology_file_raises_only_format_error(scratch, ts, data):
    path = corrupted_file(data.draw, scratch / "topos.txt", ts.serialize())
    try:
        read_topology_set(path)
    except FormatError:
        pass


# Record kinds whose fields are all required, and the numeric fields of each kind.
REQUIRED_ONLY = {"edge", "coord", "e"}
NUMERIC_FIELDS = {
    "graph": [1], "coord": [1, 2, 3], "edge": [1, 2, 3], "toposet": [1, 2, 3], "topo": [1, 2], "e": [1, 2]
}


@st.composite
def record_faults(draw, text: str):
    """``text`` with one record line broken, and that line's number."""
    lines = text.splitlines()
    fault = draw(st.sampled_from(["append", "not a number", "unknown kind", "drop"]))
    fields = [line.split() for line in lines]
    if fault == "append":  # a 'topo' line without its optional mu would read the field as mu
        eligible = [i for i, f in enumerate(fields) if f[0] != "topo" or len(f) == 3]
    elif fault == "drop":
        eligible = [i for i, f in enumerate(fields) if f[0] in REQUIRED_ONLY]
    else:
        eligible = list(range(len(lines)))
    assume(eligible)
    at = draw(st.sampled_from(eligible))
    line = fields[at]
    if fault == "append":
        line = line + [draw(st.sampled_from(["7", "x", "0.5"]))]
    elif fault == "not a number":
        line[draw(st.sampled_from([i for i in NUMERIC_FIELDS[line[0]] if i < len(line)]))] = "x"
    elif fault == "unknown kind":
        line = [draw(st.sampled_from(["zz", "edges", "Topo", "graph:"]))] + line[1:]
    else:
        del line[draw(st.integers(1, len(line) - 1))]
    lines[at] = " ".join(line)
    return "\n".join(lines) + "\n", at + 1


@settings(max_examples=150)
@given(graph=graphs(), ts=topology_sets() | enumerated_sets(), data=st.data())
def test_one_broken_record_names_its_line(scratch, graph, ts, data):
    for text, read in ((graph.serialize(), read_graph), (ts.serialize(), read_topology_set)):
        broken, lineno = data.draw(record_faults(text))
        path = scratch / "broken.txt"
        path.write_text(broken)
        with pytest.raises(FormatError, match=f"^line {lineno}: "):
            read(path)


# one-digit values: a single inserted byte keeps every size below 100
SMALL_CONFIG = """\
# small ER experiment
model = IC
generator = er
n = 9
er_p = 0.3
infected_fraction = 0.2
budget_fraction = 0.2
samples = 3
algorithms = greedy
seed = 5
repetitions = 1
evaluation = structural
"""


@settings(max_examples=200)
@given(data=st.data())
def test_corrupted_config_raises_only_format_or_parameter_error(scratch, data):
    path = corrupted_file(data.draw, scratch / "exp.cfg", SMALL_CONFIG)
    try:
        parse_config(path)
    except (FormatError, ParameterError):
        pass


@settings(max_examples=40)
@given(data=st.data())
def test_run_on_corrupted_config_exits_0_or_2(scratch, data):
    # one corruption per example: the experiment runs when the config stays valid
    path = corrupted_file(data.draw, scratch / "exp.cfg", SMALL_CONFIG, max_ops=1)
    assert main(["run", "--config", str(path), "--out", str(scratch / "rows.csv")]) in (0, 2)


@settings(max_examples=60)
@given(model=st.sampled_from([LT, IC]), seed=st.integers(0, 2**20), data=st.data())
def test_gen_topologies_on_corrupted_graph_exits_0_or_2(scratch, model, seed, data):
    graph = generate_er(8, 0.3, model, seed)
    path = corrupted_file(data.draw, scratch / "graph.txt", graph.serialize())
    args = ["gen-topologies", "--graph", str(path), "--samples", "2", "--seed", "1"]
    assert main(args + ["--out", str(scratch / "topos.txt")]) in (0, 2)
