"""End-to-end AMPC coloring pipelines — Theorem 1.3 and Section 6.4.

Every pipeline follows the paper's recipe: compute a β-partition with
Theorem 1.2 (measured AMPC rounds), derive the acyclic low-out-degree
orientation, then run the variant-specific coloring stage whose AMPC cost
is the simulated-LOCAL conversion of Sections 6.1-6.3.  All results carry
the measured round breakdown and are *validated* (proper coloring) before
being returned.

Variants:

- :func:`coloring_alpha_squared_eps` — Theorem 1.3(1): O(α^{2+ε}) colors,
  O(1/ε) rounds (β = α^{1+ε}).
- :func:`coloring_alpha_squared` — Theorem 1.3(2): O(α²) colors,
  O(log α) rounds (β = (2+ε)α).
- :func:`coloring_two_plus_eps` — Theorem 1.3(3): ((2+ε)α+1) colors,
  Õ(α/ε) rounds; per-layer initial coloring via Linial + Kuhn-Wattenhofer
  (§6.3) or via Theorem 1.5 with x = 2 (§6.4), then greedy cross-layer
  recoloring.
- :func:`coloring_large_alpha` — §6.4: O(α^{1+ε}) colors in O(1/ε) rounds
  by coloring each layer with Theorem 1.5 under a fresh palette.
- :func:`color_graph` — convenience dispatcher with arboricity estimation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.coloring.arb_linial import (
    ampc_rounds_for_simulation,
    arb_linial_coloring,
    linial_undirected_coloring,
)
from repro.coloring.derandomized_mpc import deterministic_mpc_coloring
from repro.coloring.kuhn_wattenhofer import kw_color_reduction
from repro.coloring.layers import Layer, split_layers
from repro.coloring.recolor import greedy_recolor_by_layers, recoloring_ampc_rounds
from repro.core.beta_partition_ampc import beta_partition_ampc
from repro.core.orientation import orient_by_partition
from repro.graphs.arboricity import degeneracy
from repro.graphs.graph import Graph
from repro.graphs.validation import count_colors, is_proper_coloring
from repro.partition.beta_partition import PartialBetaPartition

__all__ = [
    "PipelineResult",
    "coloring_alpha_squared",
    "coloring_alpha_squared_eps",
    "coloring_large_alpha",
    "coloring_two_plus_eps",
    "color_graph",
]


@dataclass
class PipelineResult:
    """A validated coloring with its full AMPC cost breakdown."""

    variant: str
    colors: np.ndarray  # int64, one color per vertex
    num_colors: int  # distinct colors actually used
    palette_bound: int  # the variant's guaranteed palette size
    beta: int
    alpha: int
    eps: float
    partition_rounds: int
    coloring_rounds: int
    num_layers: int
    details: dict = field(default_factory=dict)

    @property
    def total_rounds(self) -> int:
        """Partition rounds plus coloring-stage rounds."""
        return self.partition_rounds + self.coloring_rounds


def _space_budget(graph: Graph, delta: float) -> int:
    return max(2, math.ceil((graph.num_vertices + graph.num_edges) ** delta))


def _partition_layers(graph: Graph, partition: PartialBetaPartition) -> list[Layer]:
    """The complete partition's layers, in ascending layer order."""
    labels = partition.layer_array(graph.num_vertices).astype(np.int64)
    return split_layers(graph, labels)


def _finish(graph: Graph, result: PipelineResult) -> PipelineResult:
    """Check the coloring is proper and within the variant's palette
    bound; fill in ``num_colors``."""
    if not is_proper_coloring(graph, result.colors):
        raise AssertionError(f"pipeline {result.variant} produced an improper coloring")
    result.num_colors = count_colors(graph, result.colors)
    if result.num_colors > result.palette_bound:
        raise AssertionError(
            f"pipeline {result.variant} used {result.num_colors} colors, "
            f"over its palette bound {result.palette_bound}"
        )
    return result


def _check_params(graph: Graph, alpha: int, eps: float) -> None:
    """Theorem 1.3 needs ε > 0, and α >= 1 unless the graph is edgeless."""
    if not eps > 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    if alpha < 1 and graph.num_edges:
        raise ValueError(f"alpha must be >= 1 on a graph with edges, got {alpha}")


def _trivial_result(graph: Graph, variant: str, alpha: int, eps: float) -> PipelineResult:
    return PipelineResult(
        variant=variant,
        colors=np.zeros(graph.num_vertices, dtype=np.int64),
        num_colors=1 if graph.num_vertices else 0,
        palette_bound=1,
        beta=0,
        alpha=alpha,
        eps=eps,
        partition_rounds=0,
        coloring_rounds=0,
        num_layers=1 if graph.num_vertices else 0,
    )


def _arb_linial_pipeline(
    graph: Graph,
    variant: str,
    beta: int,
    alpha: int,
    eps: float,
    delta: float,
    x: int | None,
    store: str,
    workers: int | str | None,
    engine: str | None,
) -> PipelineResult:
    """Theorem 1.3(1) and (2): Arb-Linial along the β-partition's
    orientation.  The two parts differ only in β."""
    outcome = beta_partition_ampc(
        graph, beta, delta=delta, x=x, store=store, workers=workers,
        engine=engine,
    )
    orientation = orient_by_partition(graph, outcome.partition)
    linial = arb_linial_coloring(orientation, beta, engine=engine)
    space = _space_budget(graph, delta)
    coloring_rounds = ampc_rounds_for_simulation(
        max(linial.local_rounds, 1), max(beta, 2), space
    )
    return _finish(
        graph,
        PipelineResult(
            variant=variant,
            colors=linial.colors,
            num_colors=0,
            palette_bound=linial.num_colors,
            beta=beta,
            alpha=alpha,
            eps=eps,
            partition_rounds=outcome.rounds,
            coloring_rounds=coloring_rounds,
            num_layers=outcome.num_layers,
            details={
                "linial_local_rounds": linial.local_rounds,
                "partition_mode": outcome.mode,
            },
        ),
    )


def coloring_alpha_squared_eps(
    graph: Graph,
    alpha: int,
    eps: float = 1.0,
    delta: float = 0.5,
    x: int | None = None,
    store: str = "columnar",
    workers: int | str | None = None,
    engine: str | None = None,
) -> PipelineResult:
    """Theorem 1.3(1): O(α^{2+ε})-coloring in O(1/ε) AMPC rounds."""
    _check_params(graph, alpha, eps)
    if graph.num_edges == 0:
        return _trivial_result(graph, "alpha_squared_eps", alpha, eps)
    beta = max(math.ceil(alpha ** (1 + eps)), 2 * alpha + 1, 2)
    return _arb_linial_pipeline(
        graph, "alpha_squared_eps", beta, alpha, eps, delta, x, store,
        workers, engine,
    )


def coloring_alpha_squared(
    graph: Graph,
    alpha: int,
    eps: float = 1.0,
    delta: float = 0.5,
    x: int | None = None,
    store: str = "columnar",
    workers: int | str | None = None,
    engine: str | None = None,
) -> PipelineResult:
    """Theorem 1.3(2): O(α²)-coloring in O(log α) AMPC rounds."""
    _check_params(graph, alpha, eps)
    if graph.num_edges == 0:
        return _trivial_result(graph, "alpha_squared", alpha, eps)
    beta = max(math.ceil((2 + eps) * alpha), 2)
    return _arb_linial_pipeline(
        graph, "alpha_squared", beta, alpha, eps, delta, x, store, workers,
        engine,
    )


def coloring_two_plus_eps(
    graph: Graph,
    alpha: int,
    eps: float = 1.0,
    delta: float = 0.5,
    x: int | None = None,
    initial_method: str = "kw",
    store: str = "columnar",
    workers: int | str | None = None,
    engine: str | None = None,
) -> PipelineResult:
    """Theorem 1.3(3): ((2+ε)α+1)-coloring in Õ(α/ε) AMPC rounds.

    ``initial_method`` selects the per-layer initial coloring: "kw" = Linial
    then Kuhn-Wattenhofer down to β+1 colors (§6.3); "mpc" = Theorem 1.5
    with x = 2 (§6.4, initial 4β-palette).  Both end with the greedy
    top-down cross-layer recoloring into palette {0..β}.  ``engine``
    selects the partition's coin-game engine and the tail's loops, as
    in :func:`color_graph`: None or "compiled" runs Linial, KW and the
    recolor as the kernel's C loops, "batched" or "scalar" as numpy.
    Each layer is a :class:`~repro.coloring.layers.Layer` of one split
    of the partition: the C loops color it in place on the graph's CSR,
    the numpy passes and Theorem 1.5 on its induced subgraph.
    """
    _check_params(graph, alpha, eps)
    if graph.num_edges == 0:
        return _trivial_result(graph, "two_plus_eps", alpha, eps)
    if initial_method not in ("kw", "mpc"):
        raise ValueError("initial_method must be 'kw' or 'mpc'")
    beta = max(math.ceil((2 + eps) * alpha), 2)
    outcome = beta_partition_ampc(
        graph, beta, delta=delta, x=x, store=store, workers=workers,
        engine=engine,
    )
    partition = outcome.partition
    layers = _partition_layers(graph, partition)
    labels = layers[0].labels
    space = _space_budget(graph, delta)
    n = graph.num_vertices
    # One pass over the edges: which join two vertices of one layer.  It
    # gives every layer's within-layer degree and the recolor's
    # within-layer conflict check.
    edges = graph.edge_array()
    same_layer = labels[edges[:, 0]] == labels[edges[:, 1]]

    # The per-layer loops scatter each layer coloring back through the
    # layer's vertex array (new->old inverse map) in one fancy-indexed write.
    initial = np.zeros(n, dtype=np.int64)
    init_local_rounds = 0
    init_ampc_rounds = 0
    if initial_method == "kw":
        kw_rounds_max = 0
        linial_rounds_max = 0
        layer_degree = np.bincount(
            edges[:, 0][same_layer], minlength=n
        ) + np.bincount(edges[:, 1][same_layer], minlength=n)
        for layer in layers:
            sub_degree = min(int(layer_degree[layer.vertices].max()), beta)
            if sub_degree == 0:
                continue  # an edgeless layer keeps color 0
            lin = linial_undirected_coloring(layer, sub_degree, engine=engine)
            kw = kw_color_reduction(
                layer, lin.colors, sub_degree, palette=lin.num_colors,
                engine=engine,
            )
            initial[layer.vertices] = kw.colors
            linial_rounds_max = max(linial_rounds_max, lin.local_rounds)
            kw_rounds_max = max(kw_rounds_max, kw.local_rounds)
        init_local_rounds = linial_rounds_max + kw_rounds_max
        init_ampc_rounds = ampc_rounds_for_simulation(
            max(linial_rounds_max, 1), max(beta, 2), space
        ) + ampc_rounds_for_simulation(kw_rounds_max, max(beta, 2), space)
    else:
        mpc_rounds_max = 0
        for layer in layers:
            sub = layer.induced()
            if sub.num_edges == 0:
                continue
            res = deterministic_mpc_coloring(sub, x=2, delta=delta)
            initial[layer.vertices] = res.colors
            mpc_rounds_max = max(mpc_rounds_max, res.mpc_rounds)
        init_ampc_rounds = mpc_rounds_max

    pick = "highest" if initial_method == "kw" else "lowest"
    recolored = greedy_recolor_by_layers(
        graph, partition, initial, beta, pick=pick, engine=engine,
        same_layer=same_layer,
    )
    recolor_rounds = recoloring_ampc_rounds(len(layers), beta, delta, n)
    return _finish(
        graph,
        PipelineResult(
            variant="two_plus_eps",
            colors=recolored.colors,
            num_colors=0,
            palette_bound=beta + 1,
            beta=beta,
            alpha=alpha,
            eps=eps,
            partition_rounds=outcome.rounds,
            coloring_rounds=init_ampc_rounds + recolor_rounds,
            num_layers=outcome.num_layers,
            details={
                "initial_method": initial_method,
                "init_local_rounds": init_local_rounds,
                "init_ampc_rounds": init_ampc_rounds,
                "recolor_ampc_rounds": recolor_rounds,
                "partition_mode": outcome.mode,
                # What actually ran (the compiled kernel silently-but-
                # warned downgrades to batched), so a recorded benchmark
                # names the engine behind its numbers.
                "partition_engine": outcome.engine,
            },
        ),
    )


def coloring_large_alpha(
    graph: Graph,
    alpha: int,
    eps: float = 1.0,
    delta: float = 0.5,
    x: int | None = None,
    store: str = "columnar",
    workers: int | str | None = None,
    engine: str | None = None,
) -> PipelineResult:
    """Section 6.4: O(α^{1+ε})-coloring in O(1/ε) rounds via per-layer
    Theorem 1.5 with fresh palettes (works for α up to n^δ and beyond)."""
    _check_params(graph, alpha, eps)
    if graph.num_edges == 0:
        return _trivial_result(graph, "large_alpha", alpha, eps)
    beta = max(math.ceil(alpha ** (1 + eps)), 2 * alpha + 1, 2)
    outcome = beta_partition_ampc(
        graph, beta, delta=delta, x=x, store=store, workers=workers,
        engine=engine,
    )
    trial_x = max(2, round(alpha**eps))
    colors = np.zeros(graph.num_vertices, dtype=np.int64)
    offset = 0
    mpc_rounds_max = 0
    for layer in _partition_layers(graph, outcome.partition):
        sub = layer.induced()
        if sub.num_edges == 0:
            colors[layer.vertices] = offset
            offset += 1
            continue
        res = deterministic_mpc_coloring(sub, x=trial_x, delta=delta)
        colors[layer.vertices] = np.asarray(res.colors) + offset
        offset += res.num_colors
        mpc_rounds_max = max(mpc_rounds_max, res.mpc_rounds)
    return _finish(
        graph,
        PipelineResult(
            variant="large_alpha",
            colors=colors,
            num_colors=0,
            palette_bound=offset,
            beta=beta,
            alpha=alpha,
            eps=eps,
            partition_rounds=outcome.rounds,
            coloring_rounds=mpc_rounds_max,
            num_layers=outcome.num_layers,
            details={"per_layer_x": trial_x, "partition_mode": outcome.mode},
        ),
    )


def color_graph(
    graph: Graph,
    variant: str = "auto",
    alpha: int | None = None,
    eps: float = 1.0,
    delta: float = 0.5,
    store: str = "columnar",
    workers: int | str | None = None,
    engine: str | None = None,
) -> PipelineResult:
    """Color ``graph`` with an arboricity-dependent AMPC pipeline.

    ``alpha`` defaults to the degeneracy (a cheap upper bound on α; use
    :func:`repro.graphs.exact_arboricity` for the exact value on small
    graphs).  ``variant="auto"`` picks the fewest-colors pipeline
    (two_plus_eps); other values name the specific theorem part.
    ``store`` selects the Theorem 1.2 execution fabric ("columnar" array
    kernels by default; "dict" is the per-machine oracle path),
    ``workers`` how many threads its lca rounds fan out over (None
    reads ``$REPRO_WORKERS`` and defaults to ``"auto"`` — the usable
    CPU count, with small rounds staying serial), and ``engine`` how the
    coin games and the coloring tail execute: "compiled" (the default)
    plays the games on the fused C kernel and runs the Linial rounds,
    Kuhn-Wattenhofer and the cross-layer recolor as the kernel's C
    loops, with a warned fallback to "batched" when it cannot load;
    "batched" plays the numpy lockstep kernels and runs the numpy tail;
    "scalar" plays the per-game oracle interpreter, which always plays
    in-process, and runs the numpy tail.  All three are pure throughput
    knobs: results are identical for every combination.
    """
    if alpha is None:
        alpha = max(1, degeneracy(graph))
    dispatch = {
        "auto": coloring_two_plus_eps,
        "two_plus_eps": coloring_two_plus_eps,
        "alpha_squared": coloring_alpha_squared,
        "alpha_squared_eps": coloring_alpha_squared_eps,
        "large_alpha": coloring_large_alpha,
    }
    if variant not in dispatch:
        raise ValueError(f"unknown variant {variant!r}; options: {sorted(dispatch)}")
    return dispatch[variant](
        graph, alpha, eps=eps, delta=delta, store=store, workers=workers,
        engine=engine,
    )
