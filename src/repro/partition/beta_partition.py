"""(Partial) β-partitions — Definition 3.5 — and the min-merge of Lemma 4.10.

A β-partition assigns every vertex a layer from ``N ∪ {∞}`` such that each
vertex with a finite layer has at most β neighbors in the same or higher
layers (∞ counts as higher).  If any vertex has layer ∞ the partition is
*partial*.  Layers are stored as a dict ``vertex -> layer`` with ∞
represented by :data:`INFINITY` (``float("inf")``), which keeps min-merging
and comparisons natural; the columnar β-partition hands over its dense
layer vector instead, and the dict is built from it on first read.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from repro.graphs.graph import Graph

__all__ = ["INFINITY", "PartialBetaPartition", "merge_min"]

INFINITY: float = float("inf")

Layer = float  # an int layer or INFINITY


class PartialBetaPartition:
    """Layer assignment λ: V -> N ∪ {∞} with validation helpers.

    ``layers`` maps every vertex of the host graph to its layer.  Vertices
    absent from the mapping are treated as ∞ (convenient for proofs ℓ_u
    defined on small subgraphs, Remark 4.8).

    ``vector`` is an optional dense, read-only layer vector over vertices
    0..n-1 (∞ = unassigned), the form the columnar β-partition loop
    builds; :meth:`layer_array` and :meth:`size` read it instead of
    walking the dict.  A partition given only the vector builds
    ``layers`` on first read, as ``{v: int(layer)}`` over its finite
    entries in ascending id order, so a caller that reads only the
    vector never pays for the dict.  The vector is valid only while
    ``layers`` is left as constructed: no caller mutates ``layers`` of a
    built partition, and :meth:`copy` (the way to get a mutable one)
    drops the vector.  Equality compares ``layers`` alone.
    """

    def __init__(
        self,
        layers: dict[int, Layer] | None = None,
        vector: np.ndarray | None = None,
    ) -> None:
        if vector is not None:
            vector.setflags(write=False)
        elif layers is None:
            layers = {}
        self._layers = layers
        self.vector = vector

    @property
    def layers(self) -> dict[int, Layer]:
        if self._layers is None:
            assigned = np.flatnonzero(np.isfinite(self.vector))
            self._layers = dict(zip(
                assigned.tolist(), self.vector[assigned].astype(np.int64).tolist()
            ))
        return self._layers

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.layers == other.layers

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(layers={self.layers!r})"

    def layer(self, v: int) -> Layer:
        """Layer of ``v`` (∞ if unassigned)."""
        return self.layers.get(v, INFINITY)

    def layer_array(self, n: int) -> np.ndarray:
        """Layers of vertices ``0..n-1`` as a float vector (∞ = unassigned).

        The bulk counterpart of :meth:`layer` used by the vectorized layer
        grouping and recoloring paths.  Returns the carried read-only
        ``vector`` when it covers exactly ``n`` vertices.
        """
        if self.vector is not None and len(self.vector) == n:
            return self.vector
        out = np.full(n, INFINITY)
        if self.layers:
            ids = np.fromiter(self.layers.keys(), dtype=np.int64, count=len(self.layers))
            vals = np.fromiter(
                (float(lay) for lay in self.layers.values()),
                dtype=np.float64,
                count=len(self.layers),
            )
            in_range = (ids >= 0) & (ids < n)
            out[ids[in_range]] = vals[in_range]
        return out

    def assigned_vertices(self) -> list[int]:
        """Vertices with a finite layer."""
        return [v for v, lay in self.layers.items() if lay != INFINITY]

    def infinity_vertices(self, universe: Iterable[int]) -> list[int]:
        """Vertices of ``universe`` whose layer is ∞."""
        return [v for v in universe if self.layer(v) == INFINITY]

    def size(self) -> int:
        """Number of distinct non-∞ layers (Definition 3.5 'size')."""
        if self.vector is not None:
            return len(np.unique(self.vector[np.isfinite(self.vector)]))
        return len({lay for lay in self.layers.values() if lay != INFINITY})

    def max_layer(self) -> int:
        """Largest finite layer (-1 if none assigned)."""
        finite = [lay for lay in self.layers.values() if lay != INFINITY]
        return int(max(finite)) if finite else -1

    def is_partial(self, universe: Iterable[int]) -> bool:
        """True if some vertex of ``universe`` has layer ∞."""
        return any(self.layer(v) == INFINITY for v in universe)

    # -- validation --------------------------------------------------------

    def violations(self, graph: Graph, beta: int) -> list[int]:
        """Vertices violating Definition 3.5: finite layer but more than β
        neighbors in the same or higher layer (∞ counts as higher).
        Ascending ids; one array pass over the CSR."""
        offsets, targets = graph.csr()
        lay = self.layer_array(graph.num_vertices)
        high = lay[targets] >= np.repeat(lay, np.diff(offsets))
        ends = np.concatenate(([0], np.cumsum(high)))
        counts = ends[offsets[1:]] - ends[offsets[:-1]]
        return np.flatnonzero(np.isfinite(lay) & (counts > beta)).tolist()

    def is_valid(self, graph: Graph, beta: int) -> bool:
        """True if this is a valid (partial) β-partition of ``graph``."""
        return not self.violations(graph, beta)

    def is_valid_on_subset(self, graph: Graph, beta: int, subset: set[int]) -> bool:
        """Lemma 4.7 style check: the layering of ``subset`` restricted to
        G[subset] is a β-partition (neighbors outside the subset ignored)."""
        for v in subset:
            lay = self.layer(v)
            if lay == INFINITY:
                return False
            high = sum(
                1
                for w in graph.neighbors(v)
                if int(w) in subset and self.layer(int(w)) >= lay
            )
            if high > beta:
                return False
        return True

    def copy(self) -> "PartialBetaPartition":
        """Independent copy."""
        return PartialBetaPartition(dict(self.layers))


def merge_min(partitions: Iterable[Mapping[int, Layer] | PartialBetaPartition]) -> PartialBetaPartition:
    """Pointwise minimum of partial β-partitions (Lemma 4.10).

    The minimum of partial β-partitions is again a partial β-partition, and
    a vertex is finite in the merge iff it is finite in any input.  This is
    how the AMPC algorithm combines per-node proofs into one consistent
    global partition (Section 2.3).
    """
    merged: dict[int, Layer] = {}
    for part in partitions:
        mapping = part.layers if isinstance(part, PartialBetaPartition) else part
        for v, lay in mapping.items():
            if lay < merged.get(v, INFINITY):
                merged[v] = lay
    return PartialBetaPartition(merged)
