"""The seed (pre-vectorization) CSR builder, kept as a correctness oracle.

`repro.graphs.graph._build_csr` replaced this per-edge insertion loop and
per-vertex sort loop with a single ``np.lexsort`` pass.  The equivalence
tests (``tests/test_graphs_graph.py``) check the vectorized builder
against this verbatim seed implementation: the two must produce
byte-identical ``offsets`` and ``targets`` on every input.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "reference_connected_components",
    "reference_csr_from_edge_set",
    "reference_csr_from_edges",
]


def reference_connected_components(graph) -> list[list[int]]:
    """The seed per-vertex BFS that ``Graph.connected_components`` replaced.

    Kept verbatim as the equivalence oracle for the vectorized
    hook-and-compress implementation: both must return components sorted
    internally and ordered by smallest member.
    """
    n = graph.num_vertices
    seen = np.zeros(n, dtype=bool)
    components: list[list[int]] = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        queue = [start]
        component = []
        while queue:
            v = queue.pop()
            component.append(v)
            for w in graph.neighbors(v):
                w = int(w)
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
        components.append(sorted(component))
    return components


def reference_csr_from_edge_set(
    n: int, edge_set: set[tuple[int, int]]
) -> tuple[np.ndarray, np.ndarray]:
    """The seed ``Graph._from_edge_set`` body, returning ``(offsets, targets)``.

    ``edge_set`` must contain canonical ``(u, v)`` pairs with ``u < v``.
    """
    m = len(edge_set)
    degrees = np.zeros(n, dtype=np.int64)
    if m:
        arr = np.fromiter(
            (x for uv in edge_set for x in uv), dtype=np.int64, count=2 * m
        ).reshape(m, 2)
        np.add.at(degrees, arr[:, 0], 1)
        np.add.at(degrees, arr[:, 1], 1)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=offsets[1:])
    targets = np.zeros(2 * m, dtype=np.int64)
    cursor = offsets[:-1].copy()
    if m:
        for u, v in edge_set:
            targets[cursor[u]] = v
            cursor[u] += 1
            targets[cursor[v]] = u
            cursor[v] += 1
    # Sort each adjacency list so neighbor(v, i) is deterministic.
    for v in range(n):
        lo, hi = offsets[v], offsets[v + 1]
        targets[lo:hi] = np.sort(targets[lo:hi])
    return offsets, targets


def reference_csr_from_edges(
    n: int, edges
) -> tuple[np.ndarray, np.ndarray]:
    """The seed ``Graph.from_edges`` validation + dedup, then the seed build."""
    if n < 0:
        raise ValueError("n must be non-negative")
    seen: set[tuple[int, int]] = set()
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        seen.add((u, v) if u < v else (v, u))
    return reference_csr_from_edge_set(n, seen)
