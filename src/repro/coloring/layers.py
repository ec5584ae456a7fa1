"""The layers of a vertex labelling, each colored in place on a CSR.

Theorem 1.3(3) colors every β-partition layer on its own (§6.3).  A
:class:`Layer` names one layer without copying it: the graph, the CSR
it colors on (the graph's, or an orientation's for Arb-Linial), the
layer's vertex ids and the label vector its split shares.  The compiled
Linial round and Kuhn–Wattenhofer loops read the layer straight off
that CSR and skip every arc whose endpoints carry different labels
(:func:`repro.core.native.cover_free_round`,
:func:`repro.core.native.kw_reduce`); the numpy passes, their oracle,
run on the layer's arcs by layer position (:meth:`Layer.local_csr`,
:meth:`Layer.induced`).

:func:`split_layers` is the only way to build a layer, so every layer
is right by construction: its vertices are exactly one label class,
strictly ascending.  Its one-label form :func:`whole_layer` alone takes
a CSR other than the graph's, and checks it once, when the layer is
built.  The arrays are read-only and the attributes cannot be rebound,
so no stage that takes a layer checks it again.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.graph import Graph

__all__ = ["Layer", "layer_of", "split_layers", "whole_layer"]


class Layer:
    """The subgraph of ``graph`` induced by one label class.

    ``offsets`` / ``targets`` are the CSR the layer colors on, over
    every vertex of ``graph``: vertex v avoids the targets of its row
    that share its label.  ``labels`` is an int64 vector over every
    vertex of ``graph``; ``vertices`` are all the ids carrying one of
    its labels, strictly ascending.  Vertex ``i`` of the layer is
    ``vertices[i]``, as in ``graph.induced_subgraph(vertices)``, so a
    coloring of the layer is an array indexed by layer position, the
    coloring of that subgraph.  Built only by :func:`split_layers` and
    its one-label form :func:`whole_layer`.
    """

    __slots__ = ("graph", "offsets", "targets", "vertices", "labels", "_induced")

    def __init__(self, *args, **kwargs) -> None:
        raise TypeError("layers come from repro.coloring.layers.split_layers")

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("a Layer is read-only")

    @property
    def on_graph(self) -> bool:
        """Whether the layer colors on its graph's own (symmetric) CSR,
        not an orientation's."""
        return self.targets is self.graph.csr()[1]

    @property
    def size(self) -> int:
        """Number of vertices in the layer."""
        return len(self.vertices)

    def induced(self) -> Graph:
        """``graph.induced_subgraph(vertices)``, built on first use; the
        graph itself when the layer holds every vertex."""
        if self._induced is None:
            whole = self.size == self.graph.num_vertices
            object.__setattr__(
                self, "_induced",
                self.graph if whole
                else self.graph.induced_subgraph(self.vertices),
            )
        return self._induced

    def local_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """The constraints by layer position: the layer's CSR when it
        holds every vertex, else its induced subgraph's (a CSR other
        than the graph's only comes whole, from :func:`whole_layer`)."""
        if self.size == self.graph.num_vertices:
            return self.offsets, self.targets
        return self.induced().csr()


def split_layers(graph: Graph, labels) -> list[Layer]:
    """One :class:`Layer` per label class of ``labels``, in ascending
    label order, each colored on the graph's CSR: one stable argsort of
    the label vector, cut where the label changes.

    ``labels`` holds one integer per vertex of ``graph``; ValueError
    otherwise.
    """
    n = graph.num_vertices
    labels = np.array(labels)  # the layers' own copy
    if labels.shape != (n,) or not (
        labels.dtype.kind in "iu" or labels.size == 0
    ):
        raise ValueError(f"need one integer label per vertex ({n})")
    labels = labels.astype(np.int64, copy=False)
    order = np.argsort(labels, kind="stable")
    ranked = labels[order]
    cuts = np.flatnonzero(ranked[1:] != ranked[:-1]) + 1
    labels.setflags(write=False)
    order.setflags(write=False)
    return [
        _layer(graph, *graph.csr(), vertices, labels)
        for vertices in np.split(order, cuts)
    ]


def whole_layer(graph: Graph, csr=None) -> Layer:
    """Every vertex of ``graph`` under one label: the one-label split.

    ``csr``, an ``(offsets, targets)`` pair over the graph's vertices,
    is the CSR the layer colors on, the graph's own by default (also
    when ``csr`` is that pair).  Another CSR is copied and checked
    here: ValueError unless it is a CSR over the vertices with every
    target in ``[0, n)``.
    """
    (layer,) = split_layers(graph, np.zeros(graph.num_vertices, np.int64))
    if csr is None or all(a is b for a, b in zip(csr, graph.csr())):
        return layer
    csr = _checked_csr(graph.num_vertices, *csr)
    return _layer(graph, *csr, layer.vertices, layer.labels)


def layer_of(graph: Graph | Layer) -> Layer:
    """``graph`` as a layer: a Layer as is, a Graph as its whole layer."""
    return graph if isinstance(graph, Layer) else whole_layer(graph)


def _layer(graph, offsets, targets, vertices, labels) -> Layer:
    layer = object.__new__(Layer)
    for name, value in (
        ("graph", graph), ("offsets", offsets), ("targets", targets),
        ("vertices", vertices), ("labels", labels), ("_induced", None),
    ):
        object.__setattr__(layer, name, value)
    return layer


def _checked_csr(n: int, offsets, targets) -> tuple[np.ndarray, np.ndarray]:
    """Own read-only int64 copies of a CSR over ``n`` vertices; raises
    ValueError unless the rows are well formed and every target lies
    in ``[0, n)``, which the loops need to index their scratch by it."""
    offsets = np.array(offsets, dtype=np.int64)
    targets = np.array(targets, dtype=np.int64)
    if (
        offsets.shape != (n + 1,) or targets.ndim != 1
        or offsets[0] != 0 or offsets[-1] != targets.size
        or (np.diff(offsets) < 0).any()
    ):
        raise ValueError(f"offsets and targets are not a CSR over {n} vertices")
    if targets.size and not (0 <= int(targets.min()) and int(targets.max()) < n):
        raise ValueError(f"CSR targets must lie in [0, {n})")
    offsets.setflags(write=False)
    targets.setflags(write=False)
    return offsets, targets
