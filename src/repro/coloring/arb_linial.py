"""Arb-Linial: O(β²)-coloring from a β-out-degree orientation (§6.1-6.2).

Iterates the cover-free reduction: ids (an n-coloring) → O(β² log n) →
O(β² log β) → ... → O(β²), converging in O(log* n) one-sided LOCAL rounds.
The observation of [BE10b] that Linial's algorithm only needs *out*-degree
bounds (not maximum degree) is what makes it work on arboricity-sparse
graphs with huge Δ.

The AMPC cost of simulating r one-sided rounds is governed by the out-ball
size β^r (Section 6.1's case analysis); :func:`ampc_rounds_for_simulation`
encodes that conversion and is reused by all pipelines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.coloring.cover_free import CoverFreeFamily, choose_family
from repro.coloring.layers import Layer, layer_of, whole_layer
from repro.core.orientation import Orientation
from repro.graphs.graph import Graph

__all__ = [
    "ArbLinialResult",
    "arb_linial_coloring",
    "linial_undirected_coloring",
    "ampc_rounds_for_simulation",
]


@dataclass
class ArbLinialResult:
    """Coloring plus the reduction schedule that produced it."""

    colors: np.ndarray  # int64, one color per vertex (per layer position)
    num_colors: int  # final palette size q²
    local_rounds: int
    schedule: list[CoverFreeFamily] = field(default_factory=list)


def arb_linial_coloring(
    orientation: Orientation,
    beta: int,
    initial_colors: list[int] | None = None,
    initial_palette: int | None = None,
    max_rounds: int = 64,
    engine: str | None = None,
) -> ArbLinialResult:
    """Run Arb-Linial to its fixed point.

    ``beta`` must upper-bound the orientation's out-degree.  The default
    initial coloring is vertex ids (palette n).  Stops when another round
    would not shrink the palette.  ``engine`` picks the rounds' loop, as
    in :meth:`CoverFreeFamily.reduce_colors`.  The rounds run on the
    whole layer of the orientation's CSR, which raises ValueError here,
    before any round, unless every target is a vertex.
    """
    if orientation.max_out_degree() > beta:
        raise ValueError(
            f"orientation out-degree {orientation.max_out_degree()} exceeds β={beta}"
        )
    layer = whole_layer(
        orientation.graph, csr=(orientation.offsets, orientation.targets)
    )
    colors, palette = _initial(layer.size, initial_colors, initial_palette)
    return _reduce_rounds(colors, palette, layer, beta, max_rounds, engine)


def linial_undirected_coloring(
    graph: Graph | Layer,
    max_degree: int,
    initial_colors: list[int] | None = None,
    initial_palette: int | None = None,
    max_rounds: int = 64,
    engine: str | None = None,
) -> ArbLinialResult:
    """Classic (undirected) Linial reduction to O(Δ²) colors.

    Used for the per-layer initial colorings of Section 6.3, where the
    within-layer degree is at most β.  Identical machinery to
    :func:`arb_linial_coloring` but each vertex avoids *all* neighbors.
    It colors a :class:`~repro.coloring.layers.Layer`'s induced
    subgraph, by layer position, and ``max_degree`` bounds the
    within-layer degree; a graph is colored as its whole layer.  The
    compiled rounds read the layer in place on its CSR, the numpy
    rounds its arcs by position.
    """
    layer = layer_of(graph)
    colors, palette = _initial(layer.size, initial_colors, initial_palette)
    if max_degree < 1:
        return ArbLinialResult(
            colors=np.zeros(layer.size, dtype=np.int64),
            num_colors=min(layer.size, 1), local_rounds=0,
        )
    return _reduce_rounds(
        colors, palette, layer, max_degree, max_rounds, engine
    )


def _initial(n: int, initial_colors, initial_palette) -> tuple[np.ndarray, int]:
    """The starting coloring of ``n`` vertices and its palette (vertex
    ids by default); raises ValueError on colors outside the palette."""
    if initial_colors is None:
        return np.arange(n, dtype=np.int64), max(n, 2)
    colors = np.array(initial_colors, dtype=np.int64)  # the result's own
    if colors.shape != (n,):
        raise ValueError(f"need one initial color per vertex ({n})")
    palette = (
        initial_palette if initial_palette is not None
        else int(colors.max(initial=0)) + 1
    )
    if ((colors < 0) | (colors >= palette)).any():
        raise ValueError("initial colors outside declared palette")
    return colors, palette


def _reduce_rounds(
    colors: np.ndarray,
    palette: int,
    layer: Layer,
    bound: int,
    max_rounds: int,
    engine: str | None,
) -> ArbLinialResult:
    """Cover-free reduction rounds until the palette stops shrinking.

    Vertex v avoids its out-neighbors in ``layer``; ``bound`` caps every
    vertex's number of them (out-degree, or degree when undirected).
    """
    schedule: list[CoverFreeFamily] = []
    while len(schedule) < max_rounds and palette > 2:
        family = choose_family(palette, bound)
        if family.target_colors >= palette:
            break  # fixed point: O(bound²) reached
        colors = family.reduce_colors(colors, layer, bound, engine=engine)
        palette = family.target_colors
        schedule.append(family)
    return ArbLinialResult(
        colors=colors, num_colors=palette, local_rounds=len(schedule),
        schedule=schedule,
    )


def ampc_rounds_for_simulation(local_rounds: int, fanout: int, space: int) -> int:
    """AMPC rounds to simulate ``local_rounds`` one-sided LOCAL rounds.

    One AMPC round gathers an out-ball of radius t, size ~ fanout^t, into a
    machine with ``space`` words, so t = floor(log_fanout(space)) LOCAL
    rounds per AMPC round (at least 1: gathering direct out-neighbors needs
    fanout <= space, which the paper guarantees via α <= n^{δ/(1+ε)}).
    """
    if local_rounds <= 0:
        return 0
    if fanout <= 1:
        return 1
    per_round = max(1, int(math.floor(math.log(max(space, 2)) / math.log(fanout))))
    return max(1, math.ceil(local_rounds / per_round))
