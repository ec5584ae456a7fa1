"""Kuhn-Wattenhofer iterative color reduction (used in Section 6.3).

Reduces an m-coloring to a (Δ+1)-coloring in O(Δ · log(m / Δ)) LOCAL
rounds: partition the palette into blocks of 2(Δ+1) colors; inside each
block, spend Δ+1 rounds moving the upper-half color classes down into the
lower half (a vertex has <= Δ neighbors, the lower half has Δ+1 colors, so
a free one always exists); then renumber the surviving lower halves
consecutively, halving the palette.  Blocks act in parallel because their
color ranges are disjoint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.coloring.layers import Layer, layer_of
from repro.core import native
from repro.graphs.graph import Graph

__all__ = ["KWResult", "kw_color_reduction"]


@dataclass
class KWResult:
    """Coloring plus round accounting."""

    colors: np.ndarray  # int64, one color per vertex (per layer position)
    num_colors: int
    local_rounds: int


def kw_color_reduction(
    graph: Graph | Layer,
    colors: list[int],
    max_degree: int,
    palette: int | None = None,
    engine: str | None = None,
) -> KWResult:
    """Reduce ``colors`` (proper on ``graph``) to max_degree + 1 colors.

    ``graph`` is a :class:`~repro.coloring.layers.Layer` of its graph's
    CSR (ValueError for another one), colored by layer position, or a
    graph, reduced as its whole layer; ``max_degree`` must upper-bound every
    degree within it.  ``engine`` None or "compiled" runs the whole
    reduction as one C loop (:func:`repro.core.native.kw_reduce`), in
    place on the layer's CSR; "batched" or "scalar" runs the numpy
    oracle on the layer's induced subgraph, where each sub-round is one
    array step: the vertices at the sub-round's upper offset (the
    movers) mark their neighbors' lower-half colors in a
    ``movers × (Δ+1)`` bitmap and take its first free column.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    layer = layer_of(graph)
    if not layer.on_graph:
        # An orientation's CSR: the C loop would avoid out-neighbors only.
        raise ValueError("Kuhn-Wattenhofer needs a layer of its graph's CSR")
    delta_plus_1 = max_degree + 1
    colors = np.array(colors, dtype=np.int64)
    if colors.shape != (layer.size,):
        raise ValueError("need one color per vertex")
    m = palette if palette is not None else (int(colors.max(initial=0)) + 1)
    if ((colors < 0) | (colors >= m)).any():
        raise ValueError("colors outside declared palette")
    compiled = native.tail_compiled(engine, "kw_color_reduction")
    if m <= delta_plus_1:
        return KWResult(colors=colors, num_colors=m, local_rounds=0)
    if compiled:
        got = native.kw_reduce(layer, colors, m, delta_plus_1)
        if got is not None:
            out, m, rounds = got
            return KWResult(colors=out, num_colors=m, local_rounds=rounds)
    graph = layer.induced()
    rounds = 0
    while m > delta_plus_1:
        block = 2 * delta_plus_1
        # Phase: for upper-half offset j, all vertices whose color sits at
        # upper position j of its block recolor into the block's lower
        # half.  Movers only move down, so the phase-start offsets fix
        # every sub-round's movers.  Movers never read each other: two
        # adjacent movers would share an offset and a block, hence a color.
        position = colors % block
        upper = np.flatnonzero(position >= delta_plus_1)
        upper = upper[np.argsort(position[upper], kind="stable")]
        bounds = np.searchsorted(
            position[upper], delta_plus_1 + np.arange(delta_plus_1 + 1)
        )
        for j in range(delta_plus_1):
            rounds += 1
            movers = upper[bounds[j]:bounds[j + 1]]
            if not movers.size:
                continue
            base = colors[movers] - (delta_plus_1 + j)
            neighbors, starts = graph.neighbors_of(movers)
            row = np.repeat(np.arange(movers.size), np.diff(starts))
            column = colors[neighbors] - base[row]
            lower = (column >= 0) & (column < delta_plus_1)
            taken = np.zeros((movers.size, delta_plus_1), dtype=bool)
            taken[row[lower], column[lower]] = True
            free = np.argmin(taken, axis=1)
            if taken[np.arange(movers.size), free].any():
                raise AssertionError("no free color in lower half")
            colors[movers] = base + free
        # Renumber: block b's lower half [b*block, b*block + Δ+1) maps to
        # [b*(Δ+1), (b+1)*(Δ+1)).  Free (local arithmetic, no round).
        colors = (colors // block) * delta_plus_1 + colors % block
        num_blocks = -(-m // block)
        m = num_blocks * delta_plus_1
        if num_blocks == 1:
            m = min(m, delta_plus_1)
    return KWResult(colors=colors, num_colors=m, local_rounds=rounds)
