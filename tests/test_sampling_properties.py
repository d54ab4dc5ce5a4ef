"""Property tests: LT sampling and validation against literal per-edge loops.

``sample_lt`` and ``validate`` work on whole edge arrays; the references
below are the plain loops they replace, kept here so the two can be compared
on random small graphs: the same live edges draw for draw, and the same
violations in the same order.
"""

import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from netvax import IC, LT, Graph, Violation, sample_lt, validate
from netvax.graph import LT_INCOMING_CAP
from netvax.topology import _lt_choices


def reference_sample_lt(graph, s, seed):
    """Per topology and node, one scalar draw walked over the incoming edges."""
    topologies = []
    for t in range(s):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(t,))
        rng = np.random.Generator(np.random.PCG64(ss))
        live = []
        for j in range(graph.n):
            incoming = sorted((src, w) for src, dst, w in graph.edges if dst == j)
            if not incoming:
                continue
            u = rng.random()
            acc = 0.0
            for src, w in incoming:
                acc += w
                if u < acc:
                    live.append((src, j))
                    break
        topologies.append(tuple(live))
    return topologies


def reference_validate(graph):
    """Edge rules in edge order, then LT incoming sums node by node."""
    violations = []
    seen = set()
    for src, dst, value in graph.edges:
        subject = f"edge ({src},{dst})"
        if src == dst:
            violations.append(Violation(subject, "self-loop", "self-loops are not allowed"))
        if (src, dst) in seen:
            violations.append(Violation(subject, "duplicate-edge", "duplicate (src,dst) pair"))
        seen.add((src, dst))
        if not (0.0 <= value <= 1.0):
            kind = "probability" if graph.model == IC else "weight"
            violations.append(Violation(subject, "value-range", f"{kind} {value!r} out of [0,1]"))
    if graph.model == LT:
        for j in range(graph.n):
            total = sum(v for _, v in sorted((src, v) for src, dst, v in graph.edges if dst == j))
            if total > LT_INCOMING_CAP:
                violations.append(Violation(f"node {j}", "lt-incoming-sum", f"incoming sum {total:.12g} >= 1"))
    return tuple(violations)


@st.composite
def lt_graphs(draw):
    """Valid LT graphs: no self-loops or repeats, zero weights, sums rescaled to 0.99."""
    n = draw(st.integers(0, 7))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    weight = st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.sampled_from([0.1, 0.3, 0.5, 0.7]))
    weights = [draw(weight) for _ in chosen]
    total = [0.0] * n
    for (_, j), w in zip(chosen, weights):
        total[j] += w
    scale = [0.99 / t if t > LT_INCOMING_CAP else 1.0 for t in total]
    return Graph(n, [(i, j, w * scale[j]) for (i, j), w in zip(chosen, weights)], LT)


@given(lt_graphs(), st.integers(1, 6), st.integers(0, 2**32))
def test_sample_lt_equals_the_scalar_walk(graph, s, seed):
    assert validate(graph).ok
    topologies = sample_lt(graph, s, seed)
    assert [t.live_edges for t in topologies] == reference_sample_lt(graph, s, seed)


@given(lt_graphs())
def test_lt_running_sums_equal_the_scalar_accumulation(graph):
    pairs, head, n_heads, before, after = _lt_choices(graph)
    expected = []
    for j in range(graph.n):
        acc = 0.0
        for src, w in sorted((src, w) for src, dst, w in graph.edges if dst == j):
            expected.append((src, j, acc, acc + w))
            acc += w
    assert list(zip(*pairs.T.tolist(), before.tolist(), after.tolist())) == expected
    assert n_heads == len({j for _, j in pairs.tolist()}) and head.tolist() == sorted(head.tolist())


values = st.one_of(
    st.floats(-0.5, 1.5),
    st.sampled_from([0.0, -0.0, 0.1, 0.3, 0.6, 1.0, math.nan, math.inf, -math.inf]),
)


@st.composite
def any_graphs(draw):
    """Arbitrary graphs: self-loops, repeated pairs and values outside [0, 1]."""
    n = draw(st.integers(0, 5))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node, values), max_size=12)) if n else []
    return Graph(n, edges, draw(st.sampled_from([LT, IC])))


@given(any_graphs())
def test_validate_equals_the_edge_loop(graph):
    report = validate(graph)
    assert report.violations == reference_validate(graph)
    assert report.ok == (report.violations == ())
