"""Cross-layer recoloring — the greedy conflict-fixing of Section 6.3.

Input: a β-partition and an *initial* coloring with palette {0..β} that is
proper within every layer but may conflict across layers.  The centralized
process: topmost layer keeps its colors; then layers are processed top to
bottom, and inside a layer vertices are processed in decreasing initial
color; each vertex picks an available color among {0..β} avoiding all
neighbors that already finalized (its same-or-higher-layer neighbors, of
which there are <= β — so a color always exists).

With the compiled kernel (``engine`` None or "compiled") the walk runs
vertex by vertex as one C loop, :func:`repro.core.native.recolor_walk`,
which marks the finalized neighbors' colors in a stamp array.  The array
covers the min(β, max degree) + 1 colors at the picking end of {0..β},
which hold every pick, so one loop serves every β.  The numpy tail
("batched" or "scalar", and the warned fallback) is its oracle.  It runs
one (layer, initial color) class at a time.  Each class is an
independent set, because the initial coloring is proper within a layer,
so no vertex of a class constrains another: every member sees exactly
the blocked set it would see in the vertex-by-vertex walk, and the whole
class picks its colors in one array pass over int64 blocked-color masks,
then ORs each chosen bit into its neighbors' masks.  With β+1 > 62
colors the masks no longer fit an int64, and the numpy tail walks over
Python-int masks instead (:func:`_recolor_walk`).  Colors,
``num_colors`` and ``processed_order`` are the same on every path; the
colors and the order come back as int64 arrays, as the walk and the
order's ``np.lexsort`` produce them, and ``num_colors`` is counted off
the color array in O(n) memory whatever β (:func:`count_colors`).  The
within-layer conflict check takes the caller's same-layer edge mask
when it has one: the pipeline builds it once, in the pass that finds
its layers' within-layer degrees.

The AMPC simulation batches layers so each vertex's recursive dependency
ball fits in machine memory; :func:`recoloring_ampc_rounds` reproduces the
paper's O((β/(εδ)) log β) round count for the parameters at hand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from repro.core import native
from repro.graphs.graph import Graph
from repro.graphs.validation import count_colors
from repro.partition.beta_partition import PartialBetaPartition

__all__ = ["RecolorResult", "greedy_recolor_by_layers", "recoloring_ampc_rounds"]


@dataclass
class RecolorResult:
    """Final proper coloring in palette {0..β}."""

    colors: np.ndarray  # int64, one color of {0..β} per vertex
    num_colors: int
    processed_order: np.ndarray  # int64: the centralized order, for inspection


def greedy_recolor_by_layers(
    graph: Graph,
    partition: PartialBetaPartition,
    initial_colors: list[int],
    beta: int,
    pick: Literal["highest", "lowest"] = "highest",
    engine: str | None = None,
    same_layer: np.ndarray | None = None,
) -> RecolorResult:
    """Fix cross-layer conflicts into a proper (β+1)-coloring.

    ``initial_colors`` must be proper inside each layer (values may come
    from any palette — they only define the processing order, Section 6.4
    uses a 4β-palette initial coloring); the partition must be complete.
    ``pick`` selects the highest (Section 6.3) or lowest (Section 6.4)
    available color from {0..β} — both are valid.  ``engine`` picks the
    compiled walk or the numpy tail (module docstring).  ``same_layer``
    is the caller's bool mask over ``graph.edge_array()``, True where
    both endpoints share a layer; without it the mask is computed here.
    """
    if pick not in ("highest", "lowest"):
        raise ValueError('pick must be "highest" or "lowest"')
    n = graph.num_vertices
    if len(initial_colors) != n:
        raise ValueError("need one initial color per vertex")
    # Validation runs as two array passes over the layer vector and the
    # edge array instead of a per-neighbor Python walk.
    layer_vec = partition.layer_array(n)
    unlayered = np.isinf(layer_vec)
    if unlayered.any():
        raise ValueError(f"vertex {int(np.argmax(unlayered))} unlayered")
    init_vec = np.asarray(initial_colors, dtype=np.int64)
    edges = graph.edge_array()
    if same_layer is None:
        same_layer = layer_vec[edges[:, 0]] == layer_vec[edges[:, 1]]
    elif same_layer.shape != (len(edges),):
        raise ValueError("need one same_layer flag per edge")
    conflict = same_layer & (init_vec[edges[:, 0]] == init_vec[edges[:, 1]])
    if conflict.any():
        u, w = edges[np.argmax(conflict)]
        raise ValueError(
            f"initial coloring not proper within layer: {int(u)} ~ {int(w)}"
        )
    # Process by (layer desc, initial color desc); ties broken by id for
    # determinism — tied vertices are never adjacent (initial coloring is
    # proper within a layer), so any tie-break yields the same constraints.
    order = np.lexsort((np.arange(n), -init_vec, -layer_vec))
    final = None
    if native.tail_compiled(engine, "greedy_recolor_by_layers"):
        offsets, targets = graph.csr()
        final = native.recolor_walk(
            offsets, targets, order, beta, lowest=pick == "lowest"
        )
    if final is None and beta + 1 > 62:
        final = np.array(
            _recolor_walk(graph, order.tolist(), beta, pick), dtype=np.int64
        )
    elif final is None:
        final = _recolor_by_class(
            graph, order, layer_vec[order], init_vec[order], beta, pick
        )
    return RecolorResult(
        colors=final,
        num_colors=count_colors(graph, final),
        processed_order=order,
    )


def _recolor_by_class(
    graph: Graph,
    order: np.ndarray,
    layer_sorted: np.ndarray,
    init_sorted: np.ndarray,
    beta: int,
    pick: str,
) -> np.ndarray:
    """The walk one (layer, initial color) class at a time (β+1 <= 62).

    Blocked palettes are int64 bitmaps over {0..β}.  A class picks its
    colors in one pass (complement, then an integer bit scan) and ORs
    each member's bit into its neighbors' masks with ``np.bitwise_or.at``.
    """
    n = graph.num_vertices
    blocked = np.zeros(n, dtype=np.int64)
    final = np.empty(n, dtype=np.int64)
    full = (1 << (beta + 1)) - 1
    nbrs, boundaries = graph.neighbors_of(order)
    cuts = np.flatnonzero(
        (layer_sorted[1:] != layer_sorted[:-1])
        | (init_sorted[1:] != init_sorted[:-1])
    ) + 1
    starts = np.concatenate(([0], cuts)).tolist()
    ends = np.concatenate((cuts, [n])).tolist()
    for s, e in zip(starts, ends):
        cls = order[s:e]
        available = ~blocked[cls] & full
        if not available.all():
            raise AssertionError(
                "palette exhausted: partition was not a valid β-partition"
            )
        if pick == "lowest":
            available &= -available
        chosen = _top_bit(available)
        final[cls] = chosen
        bits = np.repeat(np.left_shift(1, chosen), np.diff(boundaries[s:e + 1]))
        np.bitwise_or.at(blocked, nbrs[boundaries[s]:boundaries[e]], bits)
    return final


def _top_bit(x: np.ndarray) -> np.ndarray:
    """Index of the highest set bit of each positive int64, by integer
    binary search (a float log2 is exact only up to 2**53)."""
    index = np.zeros(x.shape, dtype=np.int64)
    for shift in (32, 16, 8, 4, 2, 1):
        high = x >> shift
        moved = high != 0
        x = np.where(moved, high, x)
        index += moved * shift
    return index


def _recolor_walk(
    graph: Graph, order: list[int], beta: int, pick: str
) -> list[int]:
    """The vertex-by-vertex walk over Python-int blocked masks.

    Finalizing v sets bit c in every neighbor's mask, and picking a color
    is one complement + bit scan instead of materializing a neighbor-color
    set.  Masks are unbounded ints, so any β works.
    """
    offsets, targets = graph.csr()
    offs = offsets.tolist()
    tgts = targets.tolist()
    blocked = [0] * graph.num_vertices
    full = (1 << (beta + 1)) - 1
    final = [0] * graph.num_vertices
    for v in order:
        available = ~blocked[v] & full
        if not available:
            raise AssertionError(
                "palette exhausted: partition was not a valid β-partition"
            )
        if pick == "highest":
            chosen = available.bit_length() - 1
        else:
            chosen = (available & -available).bit_length() - 1
        final[v] = chosen
        bit = 1 << chosen
        for w in tgts[offs[v]:offs[v + 1]]:
            blocked[w] |= bit
    return final


def recoloring_ampc_rounds(
    num_layers: int, beta: int, delta: float, n: int, c: float = 1.0
) -> int:
    """AMPC rounds for the layer-batched recoloring simulation.

    Section 6.3: batches of (cδ/β)·log_β n layers keep the dependency ball
    under n^δ, giving O((β/(εδ))·log β) batches, one AMPC round each.
    The ε⁻¹ factor lives in num_layers = O(ε⁻¹ log n) already.
    """
    if num_layers <= 0:
        return 0
    log_beta_n = math.log(max(n, 2)) / math.log(max(beta, 2))
    batch = max(1.0, c * delta / max(beta, 1) * log_beta_n)
    return max(1, math.ceil(num_layers / batch))
