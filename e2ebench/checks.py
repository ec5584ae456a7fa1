"""Array checks of a workload's outputs against the paper's guarantees.

Every function returns a list of human-readable error strings; an empty
list means the output passed.  The checks are whole-array numpy
passes, so they stay cheap next to the call they check, and they run
outside the timed region.

- :func:`coloring_errors` — the coloring is proper and uses at most
  ``palette_bound`` colors;
- :func:`partition_errors` — the β-partition is complete and valid
  (every vertex has at most β neighbours in its own or a higher layer,
  Definition 3.5);
- :func:`orientation_errors` — the orientation orients every edge once,
  from the lower (layer, id) end to the higher one, with out-degree at
  most β;
- :func:`same_layers` — two partitions assign every vertex the same
  layer.
"""

from __future__ import annotations

import itertools

import numpy as np

__all__ = [
    "coloring_errors",
    "colors_used",
    "orientation_errors",
    "partition_errors",
    "same_layers",
]


def colors_used(colors) -> int:
    """Number of distinct colors in ``colors``."""
    return int(np.unique(np.asarray(colors)).size)


def coloring_errors(graph, colors, palette_bound: int) -> list[str]:
    """Errors of ``colors`` as a coloring of ``graph`` with a bounded palette."""
    n = graph.num_vertices
    arr = np.asarray(colors)
    if arr.shape != (n,):
        return [f"coloring has shape {arr.shape}, expected ({n},)"]
    if n and not np.issubdtype(arr.dtype, np.integer):
        return [f"coloring has dtype {arr.dtype}, expected integers"]
    errors = []
    if n and int(arr.min()) < 0:
        errors.append(f"{int(np.count_nonzero(arr < 0))} vertices uncolored")
    edges = graph.edge_array()
    clashes = int(np.count_nonzero(arr[edges[:, 0]] == arr[edges[:, 1]]))
    if clashes:
        errors.append(f"{clashes} monochromatic edges")
    used = colors_used(arr)
    if used > palette_bound:
        errors.append(f"{used} colors used, palette bound {palette_bound}")
    return errors


def partition_errors(graph, layers: np.ndarray, beta: int) -> list[str]:
    """Errors of the layer vector ``layers`` as a complete β-partition."""
    n = graph.num_vertices
    layers = np.asarray(layers, dtype=np.float64)
    if layers.shape != (n,):
        return [f"layer vector has shape {layers.shape}, expected ({n},)"]
    unlayered = int(np.count_nonzero(~np.isfinite(layers)))
    if unlayered:
        return [f"{unlayered} vertices unlayered"]
    offsets, targets = graph.csr()
    sources = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))
    high = layers[targets] >= layers[sources]
    high_degree = np.bincount(sources[high], minlength=n)
    bad = int(np.count_nonzero(high_degree > beta))
    if bad:
        return [
            f"{bad} vertices with more than beta={beta} neighbours in the "
            f"same or a higher layer (worst {int(high_degree.max())})"
        ]
    return []


def orientation_errors(
    graph, layers: np.ndarray, out_neighbors, beta: int
) -> list[str]:
    """Errors of ``out_neighbors`` as the partition's low-out-degree
    orientation of ``graph``."""
    n, m = graph.num_vertices, graph.num_edges
    if len(out_neighbors) != n:
        return [f"orientation has {len(out_neighbors)} rows, expected {n}"]
    out_degree = np.fromiter(map(len, out_neighbors), dtype=np.int64, count=n)
    errors = []
    if n and int(out_degree.max()) > beta:
        errors.append(
            f"{int(np.count_nonzero(out_degree > beta))} vertices with "
            f"out-degree above beta={beta} (max {int(out_degree.max())})"
        )
    total = int(out_degree.sum())
    if total != m:
        return errors + [f"{total} oriented edges, graph has {m}"]
    src = np.repeat(np.arange(n, dtype=np.int64), out_degree)
    dst = np.fromiter(
        itertools.chain.from_iterable(out_neighbors), dtype=np.int64, count=m
    )
    keys = np.minimum(src, dst) * n + np.maximum(src, dst)
    edges = graph.edge_array()
    edge_keys = edges[:, 0] * n + edges[:, 1]  # sorted: rows are lexicographic
    pos = np.minimum(np.searchsorted(edge_keys, keys), max(m - 1, 0))
    if m and not (edge_keys[pos] == keys).all():
        errors.append("orientation holds pairs that are not edges")
    elif np.unique(keys).size != m:
        errors.append("orientation orients some edge twice")
    layers = np.asarray(layers, dtype=np.float64)
    forward = (layers[dst] > layers[src]) | (
        (layers[dst] == layers[src]) & (dst > src)
    )
    backward = int(np.count_nonzero(~forward))
    if backward:
        errors.append(f"{backward} edges point from higher to lower (layer, id)")
    return errors


def same_layers(layers: np.ndarray, reference: np.ndarray) -> list[str]:
    """Errors when two layer vectors differ anywhere."""
    layers = np.asarray(layers)
    reference = np.asarray(reference)
    if layers.shape != reference.shape:
        return [f"partition shapes differ: {layers.shape} vs {reference.shape}"]
    differ = int(np.count_nonzero(layers != reference))
    if differ:
        return [f"{differ} vertices in a different layer than the reference"]
    return []
