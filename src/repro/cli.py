"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``color``        color a generated or loaded graph with a chosen pipeline
``partition``    compute a β-partition and report AMPC resource usage
``experiments``  run experiment tables by prefix (E1..E12, E3b, F1, F2, A1..A3)
``info``         analyze a graph: n, m, Δ, degeneracy, exact arboricity
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from typing import Iterator, Sequence

from repro.coloring.pipeline import color_graph
from repro.core.beta_partition_ampc import beta_partition_ampc
from repro.experiments import ALL_EXPERIMENTS, format_table
from repro.graphs.arboricity import degeneracy, density_lower_bound, exact_arboricity
from repro.graphs.generators import (
    grid_2d,
    preferential_attachment,
    random_gnm,
    random_tree,
    union_of_random_forests,
)
from repro.graphs.graph import Graph
from repro.graphs.io import read_edge_list

__all__ = ["main"]


@contextmanager
def _one_line_errors() -> Iterator[None]:
    """Exit with status 2 and a one-line ``repro: error: ...``, no
    traceback, on the ValueError a bad argument raises."""
    try:
        yield
    except ValueError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _build_graph(args: argparse.Namespace) -> Graph:
    """The graph a command runs on; a bad file or generator argument
    is a one-line error (:func:`_one_line_errors`)."""
    generators = {
        "forests": lambda: union_of_random_forests(args.n, args.k, seed=args.seed),
        "tree": lambda: random_tree(args.n, seed=args.seed),
        "grid": lambda: grid_2d(int(args.n**0.5) or 1, int(args.n**0.5) or 1),
        "pref-attach": lambda: preferential_attachment(args.n, args.k, seed=args.seed),
        "gnm": lambda: random_gnm(args.n, args.k * args.n, seed=args.seed),
    }
    with _one_line_errors():
        if args.input:
            return read_edge_list(args.input, strict=not args.lenient)
        return generators[args.generator]()


def _add_graph_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", help="edge-list file (overrides generator)")
    parser.add_argument(
        "--lenient",
        action="store_true",
        help="skip self-loops/duplicate edges in --input instead of failing",
    )
    parser.add_argument(
        "--generator",
        default="forests",
        choices=["forests", "tree", "grid", "pref-attach", "gnm"],
        help="workload family (default: union of k random forests)",
    )
    parser.add_argument("--n", type=int, default=1000, help="vertex count")
    parser.add_argument(
        "--k", type=int, default=3, help="forests/links/density parameter"
    )
    parser.add_argument("--seed", type=int, default=0, help="generator seed")


def _cmd_color(args: argparse.Namespace) -> int:
    graph = _build_graph(args)
    with _one_line_errors():  # a bad --alpha or --eps
        result = color_graph(
            graph, variant=args.variant, alpha=args.alpha, eps=args.eps
        )
    print(f"graph: n={graph.num_vertices} m={graph.num_edges} "
          f"Delta={graph.max_degree()}")
    print(f"variant={result.variant} alpha={result.alpha} beta={result.beta}")
    print(f"colors used: {result.num_colors} (palette bound {result.palette_bound})")
    print(f"AMPC rounds: {result.total_rounds} "
          f"(partition {result.partition_rounds} + coloring {result.coloring_rounds})")
    return 0


def _cmd_partition(args: argparse.Namespace) -> int:
    graph = _build_graph(args)
    with _one_line_errors():  # a bad --alpha or --beta
        if args.alpha is not None and args.alpha < 1:
            raise ValueError(f"--alpha must be >= 1, got {args.alpha}")
        alpha = args.alpha if args.alpha is not None else max(1, degeneracy(graph))
        beta = args.beta if args.beta is not None else 3 * alpha
        outcome = beta_partition_ampc(graph, beta)
    print(f"graph: n={graph.num_vertices} m={graph.num_edges}")
    print(f"beta={beta} mode={outcome.mode} x={outcome.x}")
    print(f"layers: {outcome.num_layers}  rounds: {outcome.rounds}")
    print(f"valid: {outcome.partition.is_valid(graph, beta)}")
    if outcome.simulator is None:  # empty graph: no round ran
        return 0
    stats = outcome.simulator.stats
    print(f"per-machine communication: max={stats.max_machine_communication} "
          f"(budget S={stats.space_per_machine}, effective delta'="
          f"{stats.effective_delta():.3f})")
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    prefixes = [p.upper() for p in args.names] or None
    matched = False
    for name, run in ALL_EXPERIMENTS.items():
        if prefixes and not any(name.upper().startswith(p) for p in prefixes):
            continue
        matched = True
        print(format_table(run(), title=name))
        print()
    if not matched:
        print(f"no experiment matches {args.names}; known: "
              f"{', '.join(ALL_EXPERIMENTS)}", file=sys.stderr)
        return 1
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    graph = _build_graph(args)
    print(f"n: {graph.num_vertices}")
    print(f"m: {graph.num_edges}")
    print(f"max degree: {graph.max_degree()}")
    print(f"degeneracy: {degeneracy(graph)}")
    print(f"density lower bound: {density_lower_bound(graph)}")
    if args.exact:
        print(f"exact arboricity: {exact_arboricity(graph)}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Adaptive massively parallel coloring in sparse graphs "
        "(PODC 2024 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    color = commands.add_parser("color", help="color a graph with a pipeline")
    _add_graph_arguments(color)
    color.add_argument(
        "--variant",
        default="two_plus_eps",
        choices=["auto", "two_plus_eps", "alpha_squared", "alpha_squared_eps", "large_alpha"],
    )
    color.add_argument("--alpha", type=int, default=None, help="arboricity bound")
    color.add_argument("--eps", type=float, default=1.0)
    color.set_defaults(func=_cmd_color)

    partition = commands.add_parser("partition", help="compute a beta-partition")
    _add_graph_arguments(partition)
    partition.add_argument("--alpha", type=int, default=None)
    partition.add_argument("--beta", type=int, default=None)
    partition.set_defaults(func=_cmd_partition)

    experiments = commands.add_parser("experiments", help="run experiment tables")
    experiments.add_argument("names", nargs="*", help="prefixes, e.g. E7 F2")
    experiments.set_defaults(func=_cmd_experiments)

    info = commands.add_parser("info", help="analyze a graph")
    _add_graph_arguments(info)
    info.add_argument("--exact", action="store_true", help="compute exact arboricity")
    info.set_defaults(func=_cmd_info)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
