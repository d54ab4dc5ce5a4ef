"""Command-line interface for experiments, graph and topology generation.

Exit codes: 0 success, 2 configuration error, 3 I/O error.

Config files are UTF-8, flat ``key = value`` lines ('#' starts a comment);
keys mirror ExperimentConfig fields, each given at most once, with
``algorithms`` a comma-separated list.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace

from .bench import (
    ExperimentConfig,
    SampleDispersion,
    emit_csv,
    run_experiment,
    sweep_budget,
    sweep_samples,
    build_graph,
    validate_config,
)
from .errors import FormatError, ParameterError
from .graph import LT, read_graph, write_graph
from .topology import sample_ic, sample_lt, write_topology_set
from .util import text_lines

_CONFIG_EXIT = 2
_IO_EXIT = 3


def parse_config(path) -> ExperimentConfig:
    """Parse a key = value config file into an ExperimentConfig."""
    kinds = {f.name: f.type for f in fields(ExperimentConfig)}
    values = {}
    for lineno, raw in enumerate(text_lines(path), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, text = line.partition("=")
        key = key.strip()
        text = text.strip()
        if key not in kinds:
            raise FormatError(f"line {lineno}: unknown config key {key!r}")
        if key in values:
            raise FormatError(f"line {lineno}: config key {key!r} given twice")
        try:
            if key == "algorithms":
                values[key] = tuple(a.strip() for a in text.split(",") if a.strip())
            elif kinds[key] == "int":
                values[key] = int(text)
            elif kinds[key] == "float":
                values[key] = float(text)
            else:
                values[key] = text
        except ValueError as exc:
            raise FormatError(f"line {lineno}: bad value for {key}: {text!r}") from exc
    config = ExperimentConfig(**values)
    validate_config(config)
    return config


def _load_config(args) -> ExperimentConfig:
    config = parse_config(args.config)
    if getattr(args, "seed", None) is not None:
        config = replace(config, seed=args.seed)
        validate_config(config)
    return config


def _parse_float_list(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise ParameterError(f"bad numeric list {text!r}") from exc


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise ParameterError(f"bad integer list {text!r}") from exc


def _cmd_run(args) -> int:
    config = _load_config(args)
    rows = run_experiment(config)
    emit_csv(rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_sweep_budget(args) -> int:
    config = _load_config(args)
    budgets = _parse_float_list(args.budgets)
    if not budgets or any(not (0.0 < b <= 1.0) for b in budgets):
        raise ParameterError("budgets must be fractions in (0, 1]")
    rows = sweep_budget(config, budgets)
    emit_csv(rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _print_stats(stats: list[SampleDispersion], out_path) -> None:
    lines = ["algorithm,s,mean_saved,iqr_saved"]
    lines += [f"{d.algorithm},{d.s},{d.mean!r},{d.iqr!r}" for d in stats]
    if out_path:
        with open(out_path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    else:
        print("\n".join(lines))


def _cmd_sweep_samples(args) -> int:
    config = _load_config(args)
    counts = _parse_int_list(args.samples)
    if not counts:
        raise ParameterError("at least one sample count is required")
    rows, stats = sweep_samples(config, counts)
    emit_csv(rows, args.out)
    _print_stats(stats, args.stats_out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_gen_graph(args) -> int:
    config = _load_config(args)
    graph = build_graph(config, 0)  # the graph of repetition 0 of `netvax run`
    write_graph(graph, args.out)
    print(f"wrote graph n={graph.n} m={graph.m} model={graph.model} to {args.out}")
    return 0


def _cmd_gen_topologies(args) -> int:
    if args.samples < 1:
        raise ParameterError("samples must be at least 1")
    graph = read_graph(args.graph)
    sampler = sample_lt if graph.model == LT else sample_ic
    ts = sampler(graph, args.samples, args.seed)
    write_topology_set(ts, args.out)
    print(f"wrote {len(ts)} topologies to {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="netvax", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--out", required=True, help="output CSV path")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")

    p = sub.add_parser("run", help="run the configured experiment")
    common(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep-budget", help="run at several budget fractions, one instance per repetition")
    common(p)
    p.add_argument("--budgets", required=True, help="comma-separated fractions, e.g. 0.05,0.1")
    p.set_defaults(func=_cmd_sweep_budget)

    p = sub.add_parser("sweep-samples", help="re-run at several topology sample counts")
    common(p)
    p.add_argument("--samples", required=True, help="comma-separated counts, e.g. 25,50,100")
    p.add_argument("--stats-out", default=None, help="write dispersion stats CSV here")
    p.set_defaults(func=_cmd_sweep_samples)

    p = sub.add_parser("gen-graph", help="generate a graph file from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_gen_graph)

    p = sub.add_parser("gen-topologies", help="sample a topology-set file from a graph file")
    p.add_argument("--graph", required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_topologies)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, FormatError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return _CONFIG_EXIT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return _IO_EXIT


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
