"""Spans around netvax's layers, recorded from outside the package.

``Tracer.install()`` replaces functions and evaluator methods at the module
attributes through which they are called (for example ``build_model`` inside
``netvax.lp.rounding`` as well as in ``netvax.lp.model``) with wrappers that
record a span per call, then ``uninstall()`` puts the originals back.  No
file of the package is edited.  Spans are kept in memory; ``layer_metrics``
folds them into the per-layer figures and ``write_jsonl`` dumps them.

A span's self time is its duration minus the durations of its direct child
spans.  ``IcDominatorEvaluator._dominator_pass`` is the one private name
wrapped: it is the only way to count dominator passes from outside.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "attrs", "child_s")

    def __init__(self, span_id, parent, name, start):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = start
        self.attrs: dict = {}
        self.child_s = 0.0

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.dur - self.child_s


def _live_edges(args, toposet) -> dict:
    return {"live_edges": sum(len(t.live_edges) for t in toposet)}


def _model_size(args, model) -> dict:
    return {"vars": model.num_vars, "rows": len(model.constraints)}


def _passes(args, result) -> dict:
    return {"passes": result.iterations}


def _sets(args, result) -> dict:
    return {"sets": len(result)}


# (module, attribute, span name, attrs from (args, result)) for every point
# of use; a name called from several modules is wrapped in each of them.
_FUNCTIONS = [
    ("netvax.bench", "generate_gaussian_waxman", "generators.graph", lambda a, r: {"edges": r.m}),
    ("netvax.bench", "sample_lt", "topology.sample", _live_edges),
    ("netvax.bench", "sample_ic", "topology.sample", _live_edges),
    ("netvax.heuristics", "make_evaluator", "fastpath.init", None),
    ("netvax.heuristics", "avg_saved", "spread.avg_saved", None),
    ("netvax.spread", "avg_saved", "spread.avg_saved", None),
    ("netvax.heuristics", "greedy", "heuristics.greedy", None),
    ("netvax.heuristics", "greedy_trajectory", "heuristics.greedy", None),
    ("netvax.heuristics", "local_search", "heuristics.ls", _passes),
    ("netvax.heuristics", "hill_climb", "heuristics.hc", _passes),
    ("netvax.lp.model", "build_model", "lp.model.build", _model_size),
    ("netvax.lp.solve", "build_model", "lp.model.build", _model_size),
    ("netvax.lp.rounding", "build_model", "lp.model.build", _model_size),
    ("netvax.lp.solve", "solve", "lp.solve", None),
    ("netvax.lp.rounding", "solve", "lp.solve", None),
    ("netvax.lp.solve", "linprog", "lp.solve.highs", lambda a, r: {"nit": int(getattr(r, "nit", 0))}),
    ("netvax.lp.solve", "solve_simplex", "lp.simplex", lambda a, r: {"iterations": r.iterations}),
    ("netvax.lp.solve", "solve_blp", "lp.blp", None),
    ("netvax.lp.rounding", "round_tkr", "lp.rounding.tkr", None),
    ("netvax.lp.rounding", "round_irp", "lp.rounding.irp", None),
]

_METHODS = [
    ("LtChainEvaluator", "gains", "fastpath.gains", None),
    ("LtChainEvaluator", "batch_total", "fastpath.batch_total", _sets),
    ("BfsEvaluator", "batch_total", "fastpath.batch_total", _sets),
    ("BfsEvaluator", "total_saved", "fastpath.total_saved", None),
    ("IcDominatorEvaluator", "gains", "fastpath.gains", lambda a, r: {"lookups": len(a[0].outs)}),
    ("IcDominatorEvaluator", "_dominator_pass", "fastpath.dominator", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name, fn, attrs_of=None):
        """Wrap fn so each call records a span nested under the open one."""
        tracer = self

        def wrapped(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            sp = Span(len(tracer.spans), parent.id if parent else None, name, time.perf_counter())
            tracer.spans.append(sp)
            tracer._stack.append(sp)
            try:
                result = fn(*args, **kwargs)
            finally:
                sp.end = time.perf_counter()
                tracer._stack.pop()
                if parent is not None:
                    parent.child_s += sp.dur
            if attrs_of is not None:
                sp.attrs = attrs_of(args, result)
            return result

        return wrapped

    def install(self) -> None:
        fastpath = importlib.import_module("netvax.fastpath")
        for module_name, attr, name, attrs_of in _FUNCTIONS:
            # importlib, not attribute access: ``netvax.lp.solve`` as an
            # attribute is the re-exported function, not the module.
            module = importlib.import_module(module_name)
            self._patch(module, attr, self.span(name, getattr(module, attr), attrs_of))
        for cls_name, attr, name, attrs_of in _METHODS:
            cls = getattr(fastpath, cls_name)
            self._patch(cls, attr, self.span(name, cls.__dict__[attr], attrs_of))

    def _patch(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for sp in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": sp.id,
                            "parent": sp.parent,
                            "name": sp.name,
                            "start": sp.start,
                            "end": sp.end,
                            "self_s": sp.self_s,
                            **sp.attrs,
                        }
                    )
                    + "\n"
                )

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals, self times and counts; 0 where a layer did not run."""
        total = defaultdict(float)
        self_s = defaultdict(float)
        calls = defaultdict(int)
        attr = defaultdict(float)
        for sp in self.spans:
            total[sp.name] += sp.dur
            self_s[sp.name] += sp.self_s
            calls[sp.name] += 1
            for key, value in sp.attrs.items():
                attr[f"{sp.name}:{key}"] += value
        lookups = attr["fastpath.gains:lookups"]
        passes = calls["fastpath.dominator"]
        heuristic_spans = ("heuristics.greedy", "heuristics.ls", "heuristics.hc")
        return {
            "generators.graph_s": total["generators.graph"],
            "generators.edges": attr["generators.graph:edges"],
            "topology.sample_s": total["topology.sample"],
            "topology.live_edges": attr["topology.sample:live_edges"],
            "spread.avg_saved_s": total["spread.avg_saved"],
            "spread.avg_saved_calls": calls["spread.avg_saved"],
            "fastpath.init_s": total["fastpath.init"],
            "fastpath.gains_s": total["fastpath.gains"],
            "fastpath.gains_calls": calls["fastpath.gains"],
            "fastpath.batch_total_s": total["fastpath.batch_total"],
            "fastpath.batch_sets": attr["fastpath.batch_total:sets"],
            "fastpath.total_saved_s": total["fastpath.total_saved"],
            "fastpath.dominator_s": total["fastpath.dominator"],
            "fastpath.dominator_passes": passes,
            "fastpath.dominator_hit_ratio": (lookups - passes) / lookups if lookups else 0.0,
            "heuristics.self_s": sum(self_s[name] for name in heuristic_spans),
            "heuristics.ls_passes": attr["heuristics.ls:passes"],
            "heuristics.hc_passes": attr["heuristics.hc:passes"],
            "lp.model.build_s": total["lp.model.build"],
            "lp.model.builds": calls["lp.model.build"],
            "lp.model.vars": attr["lp.model.build:vars"],
            "lp.model.rows": attr["lp.model.build:rows"],
            "lp.solve.solve_s": total["lp.solve"],
            "lp.solve.self_s": self_s["lp.solve"],
            "lp.solve.relaxations": calls["lp.solve.highs"] + calls["lp.simplex"],
            "lp.solve.highs_s": total["lp.solve.highs"],
            "lp.solve.highs_nit": attr["lp.solve.highs:nit"],
            "lp.simplex.solve_s": total["lp.simplex"],
            "lp.simplex.iterations": attr["lp.simplex:iterations"],
            "lp.rounding.tkr_s": total["lp.rounding.tkr"],
            "lp.rounding.irp_self_s": self_s["lp.rounding.irp"],
        }
