"""Acyclic low-out-degree orientations from β-partitions.

A complete β-partition yields the orientation every Section 6 coloring
algorithm consumes: orient each edge from the lower layer to the higher
layer, breaking within-layer ties by vertex id.  Every vertex then has
out-degree <= β (its out-neighbors are a subset of its same-or-higher-layer
neighbors), and the orientation is acyclic because (layer, id) strictly
increases along directed edges.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from repro.graphs.graph import Graph
from repro.partition.beta_partition import PartialBetaPartition

__all__ = ["Orientation", "orient_by_partition"]


class Orientation:
    """Acyclic orientation with per-vertex out-neighbor lists.

    Held as an out-neighbor CSR: ``targets[offsets[v]:offsets[v + 1]]``
    are v's out-neighbors.  Built from per-vertex lists, or from the CSR
    arrays directly (``csr=(offsets, targets)``), in which case
    :attr:`out_neighbors` is materialized on first access.  Treat both
    views as read-only.
    """

    def __init__(
        self,
        graph: Graph,
        out_neighbors: Sequence[Sequence[int]] | None = None,
        *,
        csr: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> None:
        if (out_neighbors is None) == (csr is None):
            raise TypeError("pass exactly one of out_neighbors and csr")
        self.graph = graph
        self._out_neighbors = out_neighbors
        if csr is None:
            degrees = np.fromiter(
                map(len, out_neighbors), dtype=np.int64, count=len(out_neighbors)
            )
            offsets = np.zeros(degrees.size + 1, dtype=np.int64)
            np.cumsum(degrees, out=offsets[1:])
            targets = np.fromiter(
                itertools.chain.from_iterable(out_neighbors),
                dtype=np.int64, count=int(offsets[-1]),
            )
            csr = (offsets, targets)
        self.offsets, self.targets = csr

    @property
    def out_neighbors(self) -> Sequence[Sequence[int]]:
        """Out-neighbors of every vertex, one list per vertex."""
        if self._out_neighbors is None:
            flat = self.targets.tolist()
            bounds = self.offsets.tolist()
            self._out_neighbors = [
                flat[bounds[v]:bounds[v + 1]] for v in range(len(bounds) - 1)
            ]
        return self._out_neighbors

    def max_out_degree(self) -> int:
        """Largest out-degree."""
        return int(np.diff(self.offsets).max(initial=0))

    def in_neighbors(self) -> list[list[int]]:
        """Reverse adjacency (computed on demand)."""
        incoming: list[list[int]] = [[] for _ in range(self.graph.num_vertices)]
        for v, outs in enumerate(self.out_neighbors):
            for w in outs:
                incoming[w].append(v)
        return incoming

    def topological_order(self) -> list[int]:
        """Vertices in an order where edges point forward; raises on cycle."""
        n = self.graph.num_vertices
        indegree = [0] * n
        for outs in self.out_neighbors:
            for w in outs:
                indegree[w] += 1
        stack = [v for v in range(n) if indegree[v] == 0]
        order: list[int] = []
        while stack:
            v = stack.pop()
            order.append(v)
            for w in self.out_neighbors[v]:
                indegree[w] -= 1
                if indegree[w] == 0:
                    stack.append(w)
        if len(order) != n:
            raise ValueError("orientation contains a cycle")
        return order

    def is_acyclic(self) -> bool:
        """True when no directed cycle exists."""
        try:
            self.topological_order()
        except ValueError:
            return False
        return True


def orient_by_partition(graph: Graph, partition: PartialBetaPartition) -> Orientation:
    """Orient lower layer -> higher layer, within-layer by vertex id.

    Requires a complete partition (no ∞ layers); the resulting out-degree
    is at most β whenever ``partition`` is a valid β-partition.  One mask
    over the graph's CSR keeps the half-edges whose (layer, id) rises.
    """
    n = graph.num_vertices
    layers = partition.layer_array(n)
    unlayered = np.isinf(layers)
    if unlayered.any():
        raise ValueError(
            f"vertex {int(np.argmax(unlayered))} is unlayered; complete the partition first"
        )
    offsets, targets = graph.csr()
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))
    rises = (layers[targets] > layers[src]) | (
        (layers[targets] == layers[src]) & (targets > src)
    )
    out_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src[rises], minlength=n), out=out_offsets[1:])
    return Orientation(graph, csr=(out_offsets, targets[rises].astype(np.int64, copy=False)))
