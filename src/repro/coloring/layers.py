"""One layer of a vertex labelling, colored in place on its graph's CSR.

Theorem 1.3(3) colors every β-partition layer on its own (§6.3).  A
:class:`Layer` names one layer without copying it: the graph, the
layer's vertex ids and the run's label vector, one int64 label per
vertex shared by every layer of the run.  The compiled Linial round and
Kuhn–Wattenhofer loops read the layer straight off the graph's CSR and
skip every arc whose endpoints carry different labels
(:func:`repro.core.native.cover_free_round`,
:func:`repro.core.native.kw_reduce`); the numpy passes, their oracle,
run on the induced subgraph, built once per layer by :meth:`induced`.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.graph import Graph

__all__ = ["Layer", "one_label"]


class Layer:
    """The subgraph of ``graph`` induced by one label class.

    ``labels`` is an int64 vector over every vertex of ``graph``;
    ``vertices`` are all the ids carrying one of its labels, strictly
    ascending.  Vertex ``i`` of the layer is ``vertices[i]``, as in
    ``graph.induced_subgraph(vertices)``, so a coloring of the layer is
    an array indexed by layer position, the coloring of that subgraph.
    The compiled loops check this contract before they run.
    """

    __slots__ = ("graph", "vertices", "labels", "_induced")

    def __init__(
        self, graph: Graph, vertices: np.ndarray, labels: np.ndarray
    ) -> None:
        self.graph = graph
        self.vertices = vertices
        self.labels = labels
        self._induced: Graph | None = None

    @property
    def size(self) -> int:
        """Number of vertices in the layer."""
        return len(self.vertices)

    def induced(self) -> Graph:
        """``graph.induced_subgraph(vertices)``, built on first use."""
        if self._induced is None:
            self._induced = self.graph.induced_subgraph(self.vertices)
        return self._induced


def one_label(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(vertices, labels)`` of a single layer holding all ``n``
    vertices: how whole-graph callers run the layer loops."""
    return np.arange(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
