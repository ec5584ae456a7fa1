"""Validators for colorings and forests.

Every experiment ends by *checking* its output with these functions, so a
bug in an algorithm fails loudly rather than producing a pretty but wrong
table.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.graphs.graph import Graph
from repro.util.dsu import DisjointSetUnion

__all__ = [
    "is_proper_coloring",
    "count_colors",
    "is_forest",
]


def _as_color_array(graph: Graph, colors: Sequence[int] | Mapping[int, int]) -> np.ndarray | None:
    """Dense color vector for vertices ``0..n-1``, or None if not coercible.

    Lists/arrays of plain integers take the vectorized path; mappings and
    exotic sequences fall back to the element-wise checks.
    """
    if isinstance(colors, Mapping):
        return None
    try:
        arr = np.asarray(colors)
    except (TypeError, ValueError):
        return None
    if arr.ndim != 1 or len(arr) < graph.num_vertices or not np.issubdtype(
        arr.dtype, np.integer
    ):
        return None
    return arr


def is_proper_coloring(graph: Graph, colors: Sequence[int] | Mapping[int, int]) -> bool:
    """True if no edge has equal endpoint colors and every vertex is colored."""
    arr = _as_color_array(graph, colors)
    if arr is not None:
        edges = graph.edge_array()
        return bool((arr[edges[:, 0]] != arr[edges[:, 1]]).all())
    getter = colors.__getitem__
    try:
        for v in graph.vertices():
            getter(v)
    except (KeyError, IndexError):
        return False
    return all(getter(u) != getter(v) for u, v in graph.edges())


def count_colors(graph: Graph, colors: Sequence[int] | Mapping[int, int]) -> int:
    """Number of distinct colors used.

    An integer array is counted in O(n) memory whatever its values: a
    bincount over the colors' span when that span is at most n (a
    (β+1)-coloring, or any window of n colors such as a recoloring's
    picks just below a huge β), else a sort.
    """
    arr = _as_color_array(graph, colors)
    if arr is None:
        return len({colors[v] for v in graph.vertices()})
    n = graph.num_vertices
    if not n:
        return 0
    arr = arr[:n]
    low = int(arr.min())
    if int(arr.max()) - low < n:
        return int(np.count_nonzero(np.bincount(arr - low)))
    return int(np.unique(arr).size)


def is_forest(n: int, edges: Sequence[tuple[int, int]]) -> bool:
    """True if the edge set is acyclic over vertices 0..n-1."""
    dsu = DisjointSetUnion(n)
    return all(dsu.union(u, v) for u, v in edges)

