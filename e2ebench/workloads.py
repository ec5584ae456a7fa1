"""The benchmark's seeded workloads: inputs, the call, and its checks.

Every workload is closed loop — one call at a time from one process —
through a public entry point at library defaults (``workers="auto"``
starts at most one pool process per core; the benchmark starts no
other).  A run draws ``inputs`` graphs from the benchmark seed and
cycles over them at least ``repeats`` times, so one run averages over
several graphs of the same shape instead of timing a single draw.
Shapes whose call time varies more from graph to graph than from call
to call (the preferential-attachment ones) use many graphs and one
call each; the others use fewer graphs and repeat them.

``moves`` and ``still`` record, per workload, which per-layer metrics a
change should move ``wall_s`` through here and which should leave it
unchanged.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass

import numpy as np

from e2ebench import checks
from e2ebench.metrics import PER_LAYER

__all__ = ["WORKLOADS", "CallOutput", "Capture", "Input", "Workload", "get"]


def _group(prefix: str) -> tuple[str, ...]:
    return tuple(name for name, *_ in PER_LAYER if name.startswith(prefix))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generator: str  # "gnm", "pa" or "forests"
    n: int
    toy_n: int  # size the benchmark's own tests run
    inputs: int  # graphs drawn per run
    repeats: int  # calls per graph at least (whole cycles over the graphs)
    variant: str | None  # color_graph variant; None: the fabric partition
    moves: tuple[str, ...]
    still: tuple[str, ...]


_COLORING_STAGE = (
    "linial.s", "linial.calls", "linial.local_rounds", "kw.s",
    "kw.local_rounds", "recolor.s",
)

WORKLOADS = (
    Workload(
        name="gnm-8k",
        why="uniform G(n,2n): one lca round, two layers; the per-layer "
        "Linial/KW/recolor stage is a large share of the call",
        generator="gnm", n=8_000, toy_n=300, inputs=4, repeats=4,
        variant="auto",
        moves=(
            "graphs.degeneracy_s", "graphs.induced_subgraph_s",
            "partition.s", "simulator.round_self_s", "rounds.residual_csr_s",
            "rounds.lca_round_s", "rounds.escape_s", "pool.run_games_s",
            *_COLORING_STAGE, "pipeline.self_s", "validate.s",
        ),
        still=(
            *_group("fabric."), "orientation.s", "arb_linial.s",
            "arb_linial.local_rounds", "rounds.game_cache_hits",
        ),
    ),
    Workload(
        name="pa-2k",
        why="hub-heavy preferential attachment: one or two lca rounds, about "
        "four layers, games played in-process (below the pool cutoff); the "
        "partition dominates the call",
        generator="pa", n=2_000, toy_n=200, inputs=12, repeats=1,
        variant="auto",
        moves=(
            "partition.s", "partition.self_s", "partition.lca_rounds",
            "partition.unlayered_after_r1", "rounds.residual_csr_s",
            "rounds.lca_round_s", "rounds.escape_games", "rounds.escape_s",
            *_group("engine."), "pipeline.self_s", "validate.s",
        ),
        still=(
            *_COLORING_STAGE, *_group("fabric."), "orientation.s",
            "arb_linial.s", "rounds.game_cache_hits", "pool.run_games_s",
        ),
    ),
    Workload(
        name="forests-6k-sq",
        why="alpha_squared variant on a union of 3 forests: whole-graph "
        "orientation plus directed Linial; no induced subgraphs, KW or "
        "recolor",
        generator="forests", n=6_000, toy_n=300, inputs=4, repeats=4,
        variant="alpha_squared",
        moves=(
            "partition.s", "orientation.s", "arb_linial.s",
            "arb_linial.local_rounds", "pipeline.self_s", "validate.s",
        ),
        still=(
            "graphs.induced_subgraph_calls", "graphs.induced_subgraph_s",
            *_COLORING_STAGE, *_group("fabric."), "rounds.game_cache_hits",
        ),
    ),
    Workload(
        name="pa-2k-fabric",
        why="pa-2k's partition through the message-passing shard fabric "
        "(4 shards), the only path into repro.ampc.messaging",
        generator="pa", n=2_000, toy_n=200, inputs=8, repeats=1,
        variant=None,
        moves=("partition.s", "partition.self_s", *_group("fabric.")),
        still=(
            *_group("graphs."), "pool.run_games_s", "pool.run_games_calls",
            "orientation.s", *_COLORING_STAGE, "arb_linial.s",
            "pipeline.self_s", "validate.s", "rounds.game_cache_hits",
        ),
    ),
)

# Message-fabric shard count of the fabric workload.
FABRIC_SHARDS = 4


def get(name: str) -> Workload:
    for workload in WORKLOADS:
        if workload.name == name:
            return workload
    raise KeyError(
        f"unknown workload {name!r}; choose from "
        f"{[w.name for w in WORKLOADS]}"
    )


def input_seeds(seed: int, count: int) -> list[int]:
    """The graph seeds of one run, derived from the benchmark seed."""
    return np.random.SeedSequence(seed).generate_state(count).tolist()


def pipeline_beta(graph) -> int:
    """The β ``color_graph``'s default variant picks (α = degeneracy, ε = 1)."""
    from repro.graphs.arboricity import degeneracy

    return max(math.ceil(3 * max(1, degeneracy(graph))), 2)


@dataclass
class Input:
    """One generated graph, plus the fabric workload's partition inputs."""

    seed: int
    graph: object
    beta: int = 0
    reference: np.ndarray | None = None  # the shm partition's layers

    def reference_layers(self) -> np.ndarray:
        """Layers of the default (shared-memory) partition of this graph —
        the partition the ``pa`` coloring workload computes for the same
        seed.  Computed once, outside the timed region."""
        if self.reference is None:
            from repro.core.beta_partition_ampc import beta_partition_ampc

            outcome = beta_partition_ampc(self.graph, self.beta)
            self.reference = outcome.partition.layer_array(
                self.graph.num_vertices
            )
        return self.reference


def make_inputs(workload: Workload, seed: int, toy: bool = False) -> list[Input]:
    from repro.graphs.generators import (
        preferential_attachment,
        random_gnm,
        union_of_random_forests,
    )

    n = workload.toy_n if toy else workload.n
    count = 2 if toy else workload.inputs
    generate = {
        "gnm": lambda s: random_gnm(n, 2 * n, s),
        "pa": lambda s: preferential_attachment(n, 3, s),
        "forests": lambda s: union_of_random_forests(n, 3, s),
    }[workload.generator]
    inputs = [Input(s, generate(s)) for s in input_seeds(seed, count)]
    if workload.variant is None:
        for inp in inputs:
            inp.beta = pipeline_beta(inp.graph)
    return inputs


@dataclass
class CallOutput:
    result: object  # PipelineResult; None for the fabric workload
    outcome: object  # BetaPartitionOutcome
    orientation: object = None  # Orientation, when the pipeline made one


class Capture:
    """Keeps the partition and orientation a pipeline call computes.

    Installed (with :func:`e2ebench.tracing.patched`) around every call
    of the coloring workloads, so the checks can see the intermediate
    outputs :class:`~repro.coloring.pipeline.PipelineResult` does not
    carry.  Each hook is one extra Python frame per call.
    """

    def __init__(self) -> None:
        self.outcome = None
        self.orientation = None

    def patches(self) -> list[tuple]:
        pipeline = importlib.import_module("repro.coloring.pipeline")

        def keep(attr: str, fn):
            def hook(*args, **kwargs):
                value = fn(*args, **kwargs)
                setattr(self, attr, value)
                return value

            return hook

        return [
            (pipeline, "beta_partition_ampc",
             keep("outcome", pipeline.beta_partition_ampc)),
            (pipeline, "orient_by_partition",
             keep("orientation", pipeline.orient_by_partition)),
        ]


def call(workload: Workload, inp: Input, capture: Capture, phases=None) -> CallOutput:
    """Run the workload's public call on one input.

    Coloring workloads need ``capture``'s hooks installed; ``phases`` is
    passed to the fabric workload's partition call (the traced pass).
    """
    if workload.variant is None:
        from repro.core.beta_partition_ampc import beta_partition_ampc

        outcome = beta_partition_ampc(
            inp.graph, inp.beta, transport="message", shards=FABRIC_SHARDS,
            phases=phases,
        )
        return CallOutput(None, outcome)
    from repro.coloring.pipeline import color_graph

    capture.outcome = capture.orientation = None
    result = color_graph(inp.graph, variant=workload.variant)
    return CallOutput(result, capture.outcome, capture.orientation)


def check(workload: Workload, inp: Input, out: CallOutput) -> tuple[list[str], dict]:
    """Check one call's outputs; returns ``(errors, summary)``.

    ``summary`` holds the call's counts (``colors_used``,
    ``ampc_rounds``, ``partition_layers``), what actually ran (engine,
    workers, shards, transport, whether a worker pool was attached) and,
    for the fabric workload, the partition's ``layers``: comparing them
    with the shared-memory partition is left to the caller.
    """
    graph = inp.graph
    outcome = out.outcome
    if outcome is None:
        return ["the partition was not captured"], {}
    layers = outcome.partition.layer_array(graph.num_vertices)
    errors = checks.partition_errors(graph, layers, outcome.beta)
    if workload.variant is None:
        from repro.coloring.greedy import orientation_greedy_coloring
        from repro.core.orientation import orient_by_partition

        # The (β+1)-coloring the partition certifies: first-fit along its
        # orientation.  Its palette is the fabric workload's colors_used.
        colors = orientation_greedy_coloring(
            orient_by_partition(graph, outcome.partition)
        )
        errors += checks.coloring_errors(graph, colors, outcome.beta + 1)
        rounds = outcome.rounds
        num_layers = outcome.num_layers
    else:
        result = out.result
        colors = result.colors
        errors += checks.coloring_errors(graph, colors, result.palette_bound)
        if checks.colors_used(colors) != result.num_colors:
            errors.append(
                f"num_colors {result.num_colors} disagrees with the coloring"
            )
        if result.num_layers != outcome.num_layers:
            errors.append("num_layers disagrees with the partition")
        if out.orientation is not None:
            errors += checks.orientation_errors(
                graph, layers, out.orientation.out_neighbors, outcome.beta
            )
        elif workload.variant == "alpha_squared":
            errors.append("the orientation was not captured")
        rounds = result.total_rounds
        num_layers = result.num_layers
    summary = {
        # The fabric's layers, for the caller to compare with
        # inp.reference_layers() once the timed calls are over.
        "layers": layers if workload.variant is None else None,
        "colors_used": checks.colors_used(colors),
        "ampc_rounds": rounds,
        "partition_layers": num_layers,
        "engine": outcome.engine,
        "workers": outcome.workers,
        "shards": outcome.shards,
        "transport": outcome.transport,
        "pool_attached": bool(outcome.round_recovery),
    }
    return errors, summary
