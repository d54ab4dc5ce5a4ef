"""Differential property test: the HiGHS and simplex engines on one model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_instance

from netvax import IC, LT, build_model, solve, verify_solution


@settings(max_examples=100)
@given(
    seed=st.integers(0, 2**20),
    model=st.sampled_from([LT, IC]),
    n=st.integers(4, 7),
    s=st.integers(1, 3),
    k=st.integers(0, 3),
    kind=st.sampled_from(["relaxed", "binary", "pinned"]),
    data=st.data(),
)
def test_highs_and_simplex_agree(seed, model, n, s, k, kind, data):
    inst = random_instance(seed, model=model, n=n, p=0.35, s=s, k=k)
    pins = ()
    if kind == "pinned":
        pins = data.draw(st.lists(st.sampled_from(inst.candidates()), max_size=inst.k, unique=True))
    lp = build_model(inst, relaxed=kind != "binary", pinned_ones=pins)
    a = solve(lp, engine="highs")
    b = solve(lp, engine="simplex")
    assert a.status == b.status == "optimal"
    assert a.objective == pytest.approx(b.objective, abs=1e-7)
    assert verify_solution(lp, a.values) == []
    assert verify_solution(lp, b.values) == []
