"""The benchmark's tracer wraps netvax names that must keep existing.

``benchmark/tracing.py`` patches module attributes and evaluator methods by
name (a method must be defined on the class itself, not inherited), so a
rename or a move in the package breaks ``--trace 1`` with a ``KeyError``.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("netvax_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist(tracing):
    for module_name, attr, _, _ in tracing._FUNCTIONS:
        module = importlib.import_module(module_name)
        assert callable(module.__dict__.get(attr)), f"{module_name}.{attr}"


def test_traced_methods_are_defined_on_their_class(tracing):
    fastpath = importlib.import_module("netvax.fastpath")
    for cls_name, attr, _, _ in tracing._METHODS:
        cls = getattr(fastpath, cls_name)
        assert callable(cls.__dict__.get(attr)), f"{cls_name}.{attr}"


def test_tracer_installs_and_restores(tracing):
    fastpath = importlib.import_module("netvax.fastpath")
    before = {
        (cls_name, attr): getattr(fastpath, cls_name).__dict__[attr]
        for cls_name, attr, _, _ in tracing._METHODS
    }
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    after = {key: getattr(fastpath, key[0]).__dict__[key[1]] for key in before}
    assert after == before
